package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// eventsOf returns the full event log of one job.
func eventsOf(t *testing.T, svc *Service, id string) []Event {
	t.Helper()
	rec, ok := svc.store.get(id)
	if !ok {
		t.Fatalf("no record for %s", id)
	}
	evs, _, _ := rec.eventsFrom(0)
	return evs
}

// mustJSON marshals for byte-level comparison of replayed state.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDurableRestartReplaysByteIdentically is the tentpole acceptance
// test at the package level: a daemon restarted on the same data
// directory serves the same job table — ids, event logs with their Seq
// numbers, lifecycle timestamps — and byte-identical artifacts, without
// re-executing anything that finished.
func TestDurableRestartReplaysByteIdentically(t *testing.T) {
	dataDir := t.TempDir()
	cacheDir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dataDir, CacheDir: cacheDir}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sweepJob, err := svc1.Submit(JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scenJob, err := svc1.Submit(scenarioSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	shardJob, err := svc1.Submit(goldenShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	synthEvalJob, err := svc1.Submit(goldenSynthSpec())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{sweepJob.ID, scenJob.ID, shardJob.ID, synthEvalJob.ID}
	for _, id := range ids {
		if final := waitTerminal(t, svc1, id); final.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Error)
		}
	}
	jobs1 := mustJSON(t, svc1.Jobs())
	events1 := map[string]string{}
	for _, id := range ids {
		events1[id] = mustJSON(t, eventsOf(t, svc1, id))
	}
	artifacts1 := map[string][]byte{}
	for _, id := range ids {
		for _, format := range []string{"json", "csv"} {
			data, err := svc1.Artifact(id, format)
			if err != nil {
				t.Fatal(err)
			}
			artifacts1[id+format] = data
		}
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())

	if jobs2 := mustJSON(t, svc2.Jobs()); jobs2 != jobs1 {
		t.Errorf("replayed job table differs:\nbefore: %s\nafter:  %s", jobs1, jobs2)
	}
	for id, want := range events1 {
		if got := mustJSON(t, eventsOf(t, svc2, id)); got != want {
			t.Errorf("replayed event log of %s differs:\nbefore: %s\nafter:  %s", id, want, got)
		}
	}
	for _, id := range ids {
		for _, format := range []string{"json", "csv"} {
			data, err := svc2.Artifact(id, format)
			if err != nil {
				t.Fatalf("replayed artifact %s/%s: %v", id, format, err)
			}
			if string(data) != string(artifacts1[id+format]) {
				t.Errorf("replayed artifact %s/%s differs from the original", id, format)
			}
		}
	}

	// The sweep's total announcement is itself an event, so the replayed
	// log restores the denominator even for a job killed before its first
	// point.
	totals := 0
	for _, ev := range eventsOf(t, svc2, sweepJob.ID) {
		if ev.Type == EventTotal {
			totals++
			if ev.Total == 0 {
				t.Errorf("replayed total event has total 0: %+v", ev)
			}
		}
	}
	if totals == 0 {
		t.Error("no EventTotal in the replayed sweep log")
	}
	if job := mustJob(t, svc2, sweepJob.ID); job.Total == 0 || job.Done != job.Total {
		t.Errorf("replayed progress counters: done=%d total=%d", job.Done, job.Total)
	}
}

// TestDurableRestartSeedsNextID is the id-collision regression test:
// submissions after a restart must continue the id sequence, not restart
// it and overwrite pre-restart jobs.
func TestDurableRestartSeedsNextID(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		job, err := svc1.Submit(scenarioSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc1, job.ID)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	job, err := svc2.Submit(scenarioSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j000003" {
		t.Errorf("post-restart id = %s, want j000003 (continuing the sequence)", job.ID)
	}
	if got := mustJob(t, svc2, "j000001"); got.Spec.Seed != 1 {
		t.Errorf("pre-restart job j000001 overwritten: %+v", got)
	}
}

// TestDurableReplayRequeuesInterruptedJobs hand-writes the WAL a crash
// would leave behind — one job queued, one mid-run — and proves a fresh
// service re-executes both to completion and seeds its id counter past
// them.
func TestDurableReplayRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	w, err := openWAL(dir, 0, DefaultSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	// j000006 was queued at crash time; j000007 was running.
	w.append(walRecord{Kind: walKindSubmit, Job: "j000006", Time: t0, Spec: &spec})
	w.append(walRecord{Kind: walKindSubmit, Job: "j000007", Time: t0, Spec: &spec})
	w.append(walRecord{Kind: walKindEvent, Job: "j000007", Time: t0,
		Event: &Event{Seq: 1, Job: "j000007", Type: EventState, State: StateRunning}})
	w.close()

	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	for _, id := range []string{"j000006", "j000007"} {
		if final := waitTerminal(t, svc, id); final.State != StateDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, final.State, final.Error)
		}
		if _, err := svc.Artifact(id, "csv"); err != nil {
			t.Errorf("recovered job %s has no artifact: %v", id, err)
		}
	}
	// The requeue of the interrupted job is itself durably logged: its
	// event log gains a fresh queued transition after the running one.
	evs := eventsOf(t, svc, "j000007")
	if len(evs) < 3 || evs[1].State != StateRunning || evs[2].State != StateQueued {
		t.Errorf("interrupted job's recovery transitions = %+v", evs)
	}
	if job, err := svc.Submit(scenarioSpec(9)); err != nil || job.ID != "j000008" {
		t.Errorf("post-recovery submit = %+v, %v; want id j000008", job, err)
	}
}

// TestWALTornWriteStopsReplayCleanly simulates the torn tails a crash
// can leave: a truncated frame, a corrupted payload, and a short header.
// Replay must keep every intact record before the damage and stop
// cleanly — no error — at the damage itself.
func TestWALTornWriteStopsReplayCleanly(t *testing.T) {
	spec := scenarioSpec(1)
	spec.Normalize()
	goodRec := walRecord{Kind: walKindSubmit, Job: "j000001", Time: time.Now().UTC(), Spec: &spec}
	goodPayload, err := json.Marshal(goodRec)
	if err != nil {
		t.Fatal(err)
	}
	good := frame(goodPayload)

	corrupt := frame(goodPayload)
	corrupt[len(corrupt)-1] ^= 0xFF // payload no longer matches the CRC

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated payload", append(append([]byte{}, good...), good[:len(good)-5]...)},
		{"corrupt checksum", append(append([]byte{}, good...), corrupt...)},
		{"short header", append(append([]byte{}, good...), 0x01, 0x02, 0x03)},
		{"absurd length", append(append([]byte{}, good...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(segmentPath(dir, 1), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := newStore()
			lastSeg, err := st.replayDurable(dir)
			if err != nil {
				t.Fatalf("replay of a torn segment = %v, want clean stop", err)
			}
			if lastSeg != 1 {
				t.Errorf("lastSeg = %d, want 1", lastSeg)
			}
			if len(st.jobs) != 1 {
				t.Fatalf("replayed %d jobs, want the 1 intact record", len(st.jobs))
			}
			if _, ok := st.jobs["j000001"]; !ok {
				t.Error("the intact record before the tear was lost")
			}
		})
	}
}

// TestWALReplayRejectsSeqGap: a WAL whose event Seq numbers skip ahead
// means the snapshot and segments disagree — replay must fail loudly
// rather than serve a silently holed event log.
func TestWALReplayRejectsSeqGap(t *testing.T) {
	dir := t.TempDir()
	spec := scenarioSpec(1)
	spec.Normalize()
	w, err := openWAL(dir, 0, DefaultSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	w.append(walRecord{Kind: walKindSubmit, Job: "j000001", Time: time.Now().UTC(), Spec: &spec})
	w.append(walRecord{Kind: walKindEvent, Job: "j000001",
		Event: &Event{Seq: 5, Job: "j000001", Type: EventState, State: StateRunning}})
	w.close()
	if _, err := newStore().replayDurable(dir); err == nil {
		t.Fatal("replay accepted a Seq gap, want a loud error")
	}
}

// TestSnapshotCompactionRoundTrip drives enough WAL volume to trigger
// compaction, then proves the snapshot+surviving-segments combination
// replays to the identical job table and that old segments were pruned.
func TestSnapshotCompactionRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir, SnapshotEvery: 4}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("csv\n"), nil
	}
	for seed := uint64(1); seed <= 5; seed++ {
		job, err := svc1.Submit(scenarioSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc1, job.ID)
	}
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(dataDir, walSnapshotName))
		return err == nil
	})
	// Compaction deletes the rotated-out segments once the snapshot that
	// covers them is published.
	waitFor(t, func() bool {
		segs, err := listSegments(dataDir)
		return err == nil && len(segs) <= 2
	})
	jobs1 := mustJSON(t, svc1.Jobs())
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	if jobs2 := mustJSON(t, svc2.Jobs()); jobs2 != jobs1 {
		t.Errorf("post-compaction replay differs:\nbefore: %s\nafter:  %s", jobs1, jobs2)
	}
	if st := svc2.Stats(); st.WALErrors != 0 {
		t.Errorf("WALErrors = %d after a clean compaction cycle", st.WALErrors)
	}
}

// TestDoneJobWithMissingArtifactsReExecutes: durable replay must not
// serve a done job whose artifact files vanished — it re-executes the
// job instead of returning a hole.
func TestDoneJobWithMissingArtifactsReExecutes(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir}
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc1.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc1, job.ID)
	want, err := svc1.Artifact(job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dataDir, job.ID+".csv")); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	if final := waitTerminal(t, svc2, job.ID); final.State != StateDone {
		t.Fatalf("re-executed job ended %s (%s)", final.State, final.Error)
	}
	got, err := svc2.Artifact(job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("re-executed artifact differs:\n%s\nvs\n%s", got, want)
	}
}
