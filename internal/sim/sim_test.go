package sim

import (
	"errors"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
)

func TestEnvOriginTargetFoundImmediately(t *testing.T) {
	env := NewEnv(EnvConfig{Target: grid.Origin, HasTarget: true, Src: rng.New(1)})
	if !env.Found() || !env.Done() {
		t.Error("target at origin should be found at zero moves")
	}
	if env.FoundAt() != 0 {
		t.Errorf("FoundAt = %d, want 0", env.FoundAt())
	}
}

func TestEnvMoveAndFind(t *testing.T) {
	env := NewEnv(EnvConfig{Target: grid.Point{X: 2, Y: 0}, HasTarget: true, Src: rng.New(1)})
	if err := env.Move(grid.Right); err != nil {
		t.Fatal(err)
	}
	if env.Found() {
		t.Error("found too early")
	}
	if err := env.Move(grid.Right); err != nil {
		t.Fatal(err)
	}
	if !env.Found() || env.FoundAt() != 2 {
		t.Errorf("found=%v at %d, want found at move 2", env.Found(), env.FoundAt())
	}
	if env.Moves() != 2 || env.Steps() != 2 {
		t.Errorf("moves/steps = %d/%d", env.Moves(), env.Steps())
	}
}

func TestEnvBudget(t *testing.T) {
	env := NewEnv(EnvConfig{Target: grid.Point{X: 100, Y: 0}, HasTarget: true,
		MoveBudget: 3, Src: rng.New(1)})
	for i := 0; i < 3; i++ {
		if err := env.Move(grid.Right); err != nil {
			t.Fatal(err)
		}
	}
	if !env.Done() {
		t.Error("budget exhausted but Done is false")
	}
	if err := env.Move(grid.Right); !errors.Is(err, ErrBudget) {
		t.Errorf("over-budget move err = %v, want ErrBudget", err)
	}
	if env.Moves() != 3 {
		t.Errorf("moves = %d, want 3", env.Moves())
	}
}

func TestEnvReturnToOrigin(t *testing.T) {
	env := NewEnv(EnvConfig{Src: rng.New(1)})
	_ = env.Move(grid.Up)
	_ = env.Move(grid.Up)
	env.ReturnToOrigin()
	if env.Pos() != grid.Origin {
		t.Errorf("pos = %v, want origin", env.Pos())
	}
	if env.Moves() != 2 {
		t.Errorf("return to origin must not count as a move: moves = %d", env.Moves())
	}
	if env.Steps() != 3 {
		t.Errorf("return to origin counts as a step: steps = %d, want 3", env.Steps())
	}
}

func TestEnvCountStep(t *testing.T) {
	env := NewEnv(EnvConfig{Src: rng.New(1)})
	env.CountStep()
	env.CountStep()
	if env.Steps() != 2 || env.Moves() != 0 {
		t.Errorf("steps/moves = %d/%d, want 2/0", env.Steps(), env.Moves())
	}
}

func TestEnvVisitedTracking(t *testing.T) {
	v := grid.NewVisitSet(5)
	env := NewEnv(EnvConfig{Src: rng.New(1), TrackVisits: v})
	_ = env.Move(grid.Up)
	_ = env.Move(grid.Right)
	if v.CountInBall() != 3 { // origin + 2 cells
		t.Errorf("visited count = %d, want 3", v.CountInBall())
	}
	if !v.Contains(grid.Point{X: 1, Y: 1}) {
		t.Error("missing final position")
	}
}

// lineWalker walks right forever; it finds any target on the positive x
// axis.
type lineWalker struct{}

func (lineWalker) Run(env *Env) error {
	for !env.Done() {
		if err := env.Move(grid.Right); err != nil {
			if errors.Is(err, ErrBudget) {
				return nil
			}
			return err
		}
	}
	return nil
}

func TestRunSingleAgent(t *testing.T) {
	res, err := Run(Config{
		NumAgents: 1,
		Target:    grid.Point{X: 7, Y: 0},
		HasTarget: true,
	}, func() Program { return lineWalker{} }, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.MinMoves != 7 {
		t.Errorf("found=%v MinMoves=%d, want found at 7", res.Found, res.MinMoves)
	}
	if len(res.Agents) != 1 || !res.Agents[0].Found {
		t.Errorf("agent results = %+v", res.Agents)
	}
}

func TestRunBudgetNoFind(t *testing.T) {
	res, err := Run(Config{
		NumAgents:  4,
		Target:     grid.Point{X: 100, Y: 0},
		HasTarget:  true,
		MoveBudget: 10,
	}, func() Program { return lineWalker{} }, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("target at 100 cannot be found within budget 10")
	}
	if res.MinMoves != 0 {
		t.Errorf("MinMoves = %d, want 0 for not-found", res.MinMoves)
	}
	for i, a := range res.Agents {
		if a.Moves != 10 {
			t.Errorf("agent %d moves = %d, want 10", i, a.Moves)
		}
	}
}

func TestRunValidation(t *testing.T) {
	f := func() Program { return lineWalker{} }
	if _, err := Run(Config{NumAgents: 0}, f, rng.New(1)); err == nil {
		t.Error("zero agents should fail")
	}
	if _, err := Run(Config{NumAgents: 1}, nil, rng.New(1)); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := Run(Config{NumAgents: 1}, f, nil); err == nil {
		t.Error("nil source should fail")
	}
}

func TestRunPropagatesAgentError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Config{NumAgents: 3, MoveBudget: 1}, func() Program {
		return ProgramFunc(func(*Env) error { return boom })
	}, rng.New(1))
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestRunBudgetErrorIsNotFailure(t *testing.T) {
	_, err := Run(Config{NumAgents: 2, MoveBudget: 1}, func() Program {
		return ProgramFunc(func(*Env) error { return ErrBudget })
	}, rng.New(1))
	if err != nil {
		t.Errorf("ErrBudget from program should be benign, got %v", err)
	}
}

// randomWalkProgram is a minimal uniform random walk used to exercise
// multi-agent runs and coverage tracking.
type randomWalkProgram struct{}

func (randomWalkProgram) Run(env *Env) error {
	for !env.Done() {
		d := grid.Directions[env.Src().Intn(4)]
		if err := env.Move(d); err != nil {
			if errors.Is(err, ErrBudget) {
				return nil
			}
			return err
		}
	}
	return nil
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		NumAgents:  8,
		Target:     grid.Point{X: 3, Y: 2},
		HasTarget:  true,
		MoveBudget: 5000,
		Workers:    4,
	}
	f := func() Program { return randomWalkProgram{} }
	a, err := Run(cfg, f, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, f, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || a.MinMoves != b.MinMoves || a.MinSteps != b.MinSteps {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	for i := range a.Agents {
		if a.Agents[i] != b.Agents[i] {
			t.Errorf("agent %d differs: %+v vs %+v", i, a.Agents[i], b.Agents[i])
		}
	}
}

func TestRunMinOverAgents(t *testing.T) {
	// Agent substreams differ, so hitting times differ; MinMoves must be
	// the smallest found move count.
	res, err := Run(Config{
		NumAgents:  16,
		Target:     grid.Point{X: 2, Y: 1},
		HasTarget:  true,
		MoveBudget: 100000,
	}, func() Program { return randomWalkProgram{} }, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("random walk should find a close target")
	}
	minSeen := res.Agents[0].Moves
	anyFound := false
	for _, a := range res.Agents {
		if a.Found {
			anyFound = true
			if a.Moves < minSeen || !anyFound {
				minSeen = a.Moves
			}
		}
	}
	var want uint64 = 1<<63 - 1
	for _, a := range res.Agents {
		if a.Found && a.Moves < want {
			want = a.Moves
		}
	}
	if res.MinMoves != want {
		t.Errorf("MinMoves = %d, want %d", res.MinMoves, want)
	}
}

func TestRunCoverageTracking(t *testing.T) {
	res, err := Run(Config{
		NumAgents:   4,
		MoveBudget:  200,
		TrackRadius: 30,
	}, func() Program { return randomWalkProgram{} }, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == nil {
		t.Fatal("expected merged visit set")
	}
	if res.Visited.CountInBall() < 10 {
		t.Errorf("coverage count = %d, implausibly small", res.Visited.CountInBall())
	}
	if !res.Visited.Contains(grid.Origin) {
		t.Error("origin must be visited")
	}
}

func TestRunTrials(t *testing.T) {
	st, err := RunTrials(Config{
		NumAgents:  4,
		Target:     grid.Point{X: 1, Y: 1},
		HasTarget:  true,
		MoveBudget: 100000,
	}, func() Program { return randomWalkProgram{} }, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FoundAll {
		t.Errorf("found fraction = %v, want 1", st.FoundFrac)
	}
	if len(st.Moves) != 10 || len(st.Steps) != 10 {
		t.Errorf("collected %d/%d samples, want 10/10", len(st.Moves), len(st.Steps))
	}
	if _, err := RunTrials(Config{NumAgents: 1}, nil, 0, 1); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestPlacementPick(t *testing.T) {
	src := rng.New(1)
	const d = 10
	tests := []struct {
		p        Placement
		exactly  bool // norm must equal d
		wantName string
	}{
		{PlaceCorner, true, "corner"},
		{PlaceAxis, true, "axis"},
		{PlaceUniformBall, false, "uniform-ball"},
		{PlaceUniformSphere, true, "uniform-sphere"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.wantName {
			t.Errorf("String = %q, want %q", got, tt.wantName)
		}
		for i := 0; i < 50; i++ {
			pt, err := tt.p.Pick(d, src)
			if err != nil {
				t.Fatal(err)
			}
			if pt == grid.Origin {
				t.Errorf("%v produced the origin", tt.p)
			}
			if pt.Norm() > d {
				t.Errorf("%v produced %v with norm %d > %d", tt.p, pt, pt.Norm(), int64(d))
			}
			if tt.exactly && pt.Norm() != d {
				t.Errorf("%v produced %v with norm %d, want exactly %d", tt.p, pt, pt.Norm(), int64(d))
			}
		}
	}
	if _, err := PlaceCorner.Pick(0, src); err == nil {
		t.Error("distance 0 should fail")
	}
	if _, err := Placement(99).Pick(5, src); err == nil {
		t.Error("unknown placement should fail")
	}
}

func TestRunPlacedTrials(t *testing.T) {
	st, err := RunPlacedTrials(Config{
		NumAgents:  8,
		MoveBudget: 200000,
	}, PlaceUniformBall, 3, func() Program { return randomWalkProgram{} }, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.FoundFrac < 0.8 {
		t.Errorf("random walk should find distance-3 targets, found frac = %v", st.FoundFrac)
	}
	if _, err := RunPlacedTrials(Config{NumAgents: 1}, PlaceCorner, 3, nil, 0, 1); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestMachineProgram(t *testing.T) {
	f, err := MachineFactory(automata.RandomWalk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		NumAgents:  8,
		Target:     grid.Point{X: 2, Y: 2},
		HasTarget:  true,
		MoveBudget: 100000,
	}, f, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("machine random walk should find a close target")
	}
}

func TestMachineProgramStepBudget(t *testing.T) {
	prog, err := NewMachineProgram(automata.RandomWalk(), 50)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(EnvConfig{Target: grid.Point{X: 1000, Y: 1000}, HasTarget: true, Src: rng.New(4)})
	if err := prog.Run(env); err != nil {
		t.Fatal(err)
	}
	if env.Moves() > 50 {
		t.Errorf("moves = %d, want at most step budget 50", env.Moves())
	}
}

func TestMachineProgramValidation(t *testing.T) {
	if _, err := NewMachineProgram(nil, 0); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := MachineFactory(nil, 0); err == nil {
		t.Error("nil machine factory should fail")
	}
}

func TestEnvRecordPath(t *testing.T) {
	env := NewEnv(EnvConfig{Src: rng.New(1), RecordPath: true})
	_ = env.Move(grid.Up)
	_ = env.Move(grid.Right)
	env.ReturnToOrigin()
	path := env.Path()
	want := []grid.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 0, Y: 0}}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d (%v)", len(path), len(want), path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
	// The returned slice is a copy: mutating it must not affect the env.
	path[0] = grid.Point{X: 99, Y: 99}
	if env.Path()[0] != (grid.Point{}) {
		t.Error("Path returned a shared slice")
	}
}

func TestEnvPathNilByDefault(t *testing.T) {
	env := NewEnv(EnvConfig{Src: rng.New(1)})
	_ = env.Move(grid.Up)
	if env.Path() != nil {
		t.Error("path recorded without RecordPath")
	}
}

func TestRunManyAgentsStress(t *testing.T) {
	// 5000 agents with small budgets through the worker pool: exercises
	// the work-stealing loop and result aggregation at scale.
	res, err := Run(Config{
		NumAgents:  5000,
		Target:     grid.Point{X: 1, Y: 0},
		HasTarget:  true,
		MoveBudget: 16,
		Workers:    16,
	}, func() Program { return randomWalkProgram{} }, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agents) != 5000 {
		t.Fatalf("agent results = %d", len(res.Agents))
	}
	if !res.Found {
		t.Error("5000 random walkers should find an adjacent target")
	}
	if res.MinMoves == 0 || res.MinMoves > 16 {
		t.Errorf("MinMoves = %d", res.MinMoves)
	}
	for id, a := range res.Agents {
		if a.Moves > 16 {
			t.Fatalf("agent %d exceeded budget: %d moves", id, a.Moves)
		}
	}
}

func TestRunWorkersExceedAgents(t *testing.T) {
	res, err := Run(Config{
		NumAgents:  2,
		Target:     grid.Point{X: 1, Y: 0},
		HasTarget:  true,
		MoveBudget: 1000,
		Workers:    64,
	}, func() Program { return randomWalkProgram{} }, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agents) != 2 {
		t.Errorf("agents = %d", len(res.Agents))
	}
}
