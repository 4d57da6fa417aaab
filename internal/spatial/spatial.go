// Package spatial provides a sparse hierarchical index over the cells of
// the unbounded integer lattice Z². It is the storage layer behind the
// engines' unbounded-arena structures: visit sets whose memory scales with
// the cells actually touched (not with arena area), obstacle membership in
// O(depth) instead of O(#rectangles), and nearest-point queries over large
// target sets.
//
// # Layout
//
// Cells are grouped into 64×64-cell leaf tiles (one 512-byte bitmap each,
// word = row-in-tile, bit = column-in-tile), allocated on first touch. Tiles
// hang off a fixed-fanout tree: every internal node has 4×4 children, each
// covering a quarter of the parent's side, so a node at height h spans
// 64·4^h cells per side. The tree starts as a single leaf and is promoted on
// overflow: when a visit lands outside the root's span, the root is wrapped
// in a new parent (whose other 15 children start empty) until it covers the
// point. Lookup cost is O(height), and the height tracks the log of the
// spread of the data, not of the coordinate space.
//
// Coordinates are re-biased so that the origin sits on a tile whose base-4
// digit string is all 2s — maximally far from every block boundary at every
// level of the tree. Origin-centered workloads (every experiment in this
// repository) therefore stay in a root of height ⌈log₄(spread/64)⌉+O(1)
// instead of degenerating to the full 29-level tower that an origin on a
// power-of-two boundary would force.
//
// An Index is not safe for concurrent mutation. Read-only queries
// (Contains, Each, Nearest) never mutate the structure — including the
// internal last-tile write cache — so a quiesced Index may be shared by any
// number of readers; the sim package relies on this for obstacle and target
// membership.
package spatial

import "math/bits"

// Tile geometry. A leaf tile covers TileSize×TileSize cells.
const (
	// TileShift is log₂ of the tile side.
	TileShift = 6
	// TileSize is the side length of a leaf tile, in cells.
	TileSize = 1 << TileShift
	tileMask = TileSize - 1
)

// Tree fanout: every internal node has nodeFan×nodeFan children.
const (
	nodeShift = 2
	nodeFan   = 1 << nodeShift
	nodeMask  = nodeFan - 1
)

// tileBias is the biased tile coordinate of the origin's tile: base-4
// digits all 2 across the 29 tile levels (58 bits), so the origin is at
// least span/3 away from the nearest block boundary at every tree level.
const tileBias uint64 = 0x2AAAAAAAAAAAAAA

// cellBias re-biases a signed cell coordinate into unsigned tree space,
// placing the origin at the center of tile (tileBias, tileBias).
// Coordinates with |x| < 2⁶¹ are representable; the engines never leave
// that range.
const cellBias uint64 = tileBias<<TileShift + TileSize/2

// maxLevel is the tree height that covers the whole supported coordinate
// space; promotion never exceeds it.
const maxLevel = 29

// node is one tree node: exactly one of kids (internal) or bits (leaf) is
// non-nil.
type node struct {
	kids *[nodeFan * nodeFan]*node
	bits *[TileSize]uint64
}

func newLeaf() *node     { return &node{bits: new([TileSize]uint64)} }
func newInternal() *node { return &node{kids: new([nodeFan * nodeFan]*node)} }

// Index is a sparse set of lattice cells, stored as the hierarchical tile
// tree described in the package comment. The zero value is an empty set
// ready for use.
type Index struct {
	root  *node
	level uint   // tree height: root spans 4^level tiles per side
	rootX uint64 // root block coords: biased tile coords >> (2*level)
	rootY uint64

	count int64

	// Bounds of visited cells in biased tile coords, for Nearest's ring
	// search termination. Valid only when count > 0.
	minTX, maxTX uint64
	minTY, maxTY uint64

	// Last-leaf write cache: agents visit runs of adjacent cells, so
	// consecutive Visits overwhelmingly land in one tile. Only mutating
	// calls touch it, keeping read-only queries safe for concurrent use.
	lastTX, lastTY uint64
	lastLeaf       *node
}

// NewIndex returns an empty index. (The zero value works too; the
// constructor exists for symmetry with the rest of the repository.)
func NewIndex() *Index { return &Index{} }

// Count returns the number of distinct cells in the set.
func (ix *Index) Count() int64 { return ix.count }

// bias converts a signed cell coordinate pair into biased tile and
// in-tile coordinates.
func biasSplit(x, y int64) (utx, uty, cx, cy uint64) {
	ux := uint64(x) + cellBias
	uy := uint64(y) + cellBias
	return ux >> TileShift, uy >> TileShift, ux & tileMask, uy & tileMask
}

// unbias converts a biased cell coordinate back to the signed lattice.
func unbias(u uint64) int64 { return int64(u - cellBias) }

// Visit inserts cell (x, y) and reports whether it was newly inserted.
func (ix *Index) Visit(x, y int64) bool {
	utx, uty, cx, cy := biasSplit(x, y)
	leaf := ix.lastLeaf
	if leaf == nil || utx != ix.lastTX || uty != ix.lastTY {
		leaf = ix.leaf(utx, uty, true)
		ix.lastTX, ix.lastTY = utx, uty
		ix.lastLeaf = leaf
	}
	mask := uint64(1) << cx
	if leaf.bits[cy]&mask != 0 {
		return false
	}
	leaf.bits[cy] |= mask
	ix.count++
	return true
}

// Contains reports whether cell (x, y) is in the set. It never mutates the
// index, so it is safe to call concurrently on a quiesced index.
func (ix *Index) Contains(x, y int64) bool {
	utx, uty, cx, cy := biasSplit(x, y)
	leaf := ix.lookup(utx, uty)
	return leaf != nil && leaf.bits[cy]&(uint64(1)<<cx) != 0
}

// covers reports whether the root's span includes tile (utx, uty).
func (ix *Index) covers(utx, uty uint64) bool {
	return utx>>(nodeShift*ix.level) == ix.rootX && uty>>(nodeShift*ix.level) == ix.rootY
}

// lookup returns the leaf holding tile (utx, uty), or nil. Pure: no cache
// update, no allocation.
func (ix *Index) lookup(utx, uty uint64) *node {
	if ix.root == nil || !ix.covers(utx, uty) {
		return nil
	}
	n := ix.root
	for l := ix.level; l > 0; l-- {
		shift := nodeShift * (l - 1)
		idx := (uty>>shift&nodeMask)<<nodeShift | utx>>shift&nodeMask
		n = n.kids[idx]
		if n == nil {
			return nil
		}
	}
	return n
}

// leaf returns the leaf for tile (utx, uty), creating the path to it (and
// promoting the root on overflow) when create is set.
func (ix *Index) leaf(utx, uty uint64, create bool) *node {
	if ix.root == nil {
		if !create {
			return nil
		}
		ix.root = newLeaf()
		ix.level = 0
		ix.rootX, ix.rootY = utx, uty
		ix.boundsAdd(utx, uty)
		return ix.root
	}
	if !create {
		return ix.lookup(utx, uty)
	}
	// Promote on overflow: wrap the root until its span covers the tile.
	for !ix.covers(utx, uty) {
		if ix.level >= maxLevel {
			panic("spatial: coordinate outside the supported range")
		}
		parent := newInternal()
		idx := (ix.rootY&nodeMask)<<nodeShift | ix.rootX&nodeMask
		parent.kids[idx] = ix.root
		ix.root = parent
		ix.rootX >>= nodeShift
		ix.rootY >>= nodeShift
		ix.level++
	}
	n := ix.root
	for l := ix.level; l > 0; l-- {
		shift := nodeShift * (l - 1)
		idx := (uty>>shift&nodeMask)<<nodeShift | utx>>shift&nodeMask
		child := n.kids[idx]
		if child == nil {
			if l == 1 {
				child = newLeaf()
			} else {
				child = newInternal()
			}
			n.kids[idx] = child
		}
		n = child
	}
	ix.boundsAdd(utx, uty)
	return n
}

// boundsAdd widens the visited-tile bounding box to include (utx, uty).
func (ix *Index) boundsAdd(utx, uty uint64) {
	if ix.count == 0 && ix.lastLeaf == nil && ix.minTX == 0 && ix.maxTX == 0 {
		// First tile ever.
		ix.minTX, ix.maxTX = utx, utx
		ix.minTY, ix.maxTY = uty, uty
		return
	}
	if utx < ix.minTX {
		ix.minTX = utx
	}
	if utx > ix.maxTX {
		ix.maxTX = utx
	}
	if uty < ix.minTY {
		ix.minTY = uty
	}
	if uty > ix.maxTY {
		ix.maxTY = uty
	}
}

// Level returns the current tree height (0 = a single leaf tile). Exposed
// for the promotion-invariant tests and for capacity diagnostics.
func (ix *Index) Level() uint { return ix.level }

// Each calls fn for every cell in the set. Iteration order is the tree's
// DFS order and is deterministic for a given insertion history, but callers
// must not rely on it.
func (ix *Index) Each(fn func(x, y int64)) {
	if ix.root == nil {
		return
	}
	eachNode(ix.root, ix.level, ix.rootX, ix.rootY, fn)
}

func eachNode(n *node, level uint, bx, by uint64, fn func(x, y int64)) {
	if n.bits != nil {
		baseX := unbias(bx << TileShift)
		baseY := unbias(by << TileShift)
		for row, w := range n.bits {
			y := baseY + int64(row)
			for w != 0 {
				col := bits.TrailingZeros64(w)
				w &= w - 1
				fn(baseX+int64(col), y)
			}
		}
		return
	}
	for i, child := range n.kids {
		if child != nil {
			cx := bx<<nodeShift | uint64(i&nodeMask)
			cy := by<<nodeShift | uint64(i>>nodeShift)
			eachNode(child, level-1, cx, cy, fn)
		}
	}
}

// Merge inserts every cell of other into ix by structural descent with
// word-OR at aligned leaf tiles — no per-cell hashing or probing — and
// returns the number of newly inserted cells. Merging does not modify other.
func (ix *Index) Merge(other *Index) (added int64) {
	if other == nil || other.root == nil {
		return 0
	}
	if ix.root == nil {
		ix.level = other.level
		ix.rootX, ix.rootY = other.rootX, other.rootY
		if other.root.bits != nil {
			ix.root = newLeaf()
		} else {
			ix.root = newInternal()
		}
	}
	// Promote until other's root block nests inside ours.
	for ix.level < other.level ||
		other.rootX>>(nodeShift*(ix.level-other.level)) != ix.rootX ||
		other.rootY>>(nodeShift*(ix.level-other.level)) != ix.rootY {
		if ix.level >= maxLevel {
			panic("spatial: merge outside the supported range")
		}
		parent := newInternal()
		idx := (ix.rootY&nodeMask)<<nodeShift | ix.rootX&nodeMask
		parent.kids[idx] = ix.root
		ix.root = parent
		ix.rootX >>= nodeShift
		ix.rootY >>= nodeShift
		ix.level++
	}
	// Descend to the node aligned with other's root, creating the path.
	n := ix.root
	for l := ix.level; l > other.level; l-- {
		shift := nodeShift * (l - 1 - other.level)
		idx := (other.rootY>>shift&nodeMask)<<nodeShift | other.rootX>>shift&nodeMask
		child := n.kids[idx]
		if child == nil {
			if l-1 == other.level && other.root.bits != nil {
				child = newLeaf()
			} else {
				child = newInternal()
			}
			n.kids[idx] = child
		}
		n = child
	}
	added = mergeNode(n, other.root)
	ix.count += added
	if other.count > 0 {
		ix.boundsAdd(other.minTX, other.minTY)
		ix.boundsAdd(other.maxTX, other.maxTY)
	}
	return added
}

func mergeNode(dst, src *node) (added int64) {
	if src.bits != nil {
		for w, sw := range src.bits {
			if nw := sw &^ dst.bits[w]; nw != 0 {
				dst.bits[w] |= nw
				added += int64(bits.OnesCount64(nw))
			}
		}
		return added
	}
	for i, schild := range src.kids {
		if schild == nil {
			continue
		}
		dchild := dst.kids[i]
		if dchild == nil {
			if schild.bits != nil {
				dchild = newLeaf()
			} else {
				dchild = newInternal()
			}
			dst.kids[i] = dchild
		}
		added += mergeNode(dchild, schild)
	}
	return added
}

// Nearest returns the cell of the set closest to (x, y) in max-norm,
// breaking distance ties by smaller y, then smaller x. ok is false when the
// set is empty. The search expands tile rings outward from the query tile
// and stops as soon as no unexplored ring can beat the best candidate, so
// the cost is proportional to the tile distance to the nearest cell, capped
// by the set's bounding box.
func (ix *Index) Nearest(x, y int64) (nx, ny int64, ok bool) {
	if ix.count == 0 {
		return 0, 0, false
	}
	utx, uty, _, _ := biasSplit(x, y)
	// Maximum useful tile ring: Chebyshev tile distance from the query
	// tile to the far corners of the bounding box.
	maxRho := uint64(0)
	for _, d := range [4]uint64{
		tileDist(utx, ix.minTX), tileDist(utx, ix.maxTX),
		tileDist(uty, ix.minTY), tileDist(uty, ix.maxTY),
	} {
		if d > maxRho {
			maxRho = d
		}
	}
	bestDist := int64(-1)
	scan := func(leaf *node, ltx, lty uint64) {
		if leaf == nil {
			return
		}
		baseX := unbias(ltx << TileShift)
		baseY := unbias(lty << TileShift)
		for row, w := range leaf.bits {
			cy := baseY + int64(row)
			for w != 0 {
				col := bits.TrailingZeros64(w)
				w &= w - 1
				cx := baseX + int64(col)
				d := chebDist(cx, cy, x, y)
				if bestDist < 0 || d < bestDist ||
					(d == bestDist && (cy < ny || (cy == ny && cx < nx))) {
					bestDist, nx, ny = d, cx, cy
				}
			}
		}
	}
	for rho := uint64(0); rho <= maxRho; rho++ {
		// Cells in a ring-ρ tile are at distance ≥ 64(ρ−1)+1; once the
		// best candidate beats that, no further ring can win.
		if bestDist >= 0 && rho >= 1 && bestDist < int64(rho-1)*TileSize+1 {
			break
		}
		if rho == 0 {
			scan(ix.lookup(utx, uty), utx, uty)
			continue
		}
		lo := int64(rho)
		for d := -lo; d <= lo; d++ {
			tx := uint64(int64(utx) + d)
			scan(ix.lookup(tx, uty-rho), tx, uty-rho)
			scan(ix.lookup(tx, uty+rho), tx, uty+rho)
			if d > -lo && d < lo {
				ty := uint64(int64(uty) + d)
				scan(ix.lookup(utx-rho, ty), utx-rho, ty)
				scan(ix.lookup(utx+rho, ty), utx+rho, ty)
			}
		}
	}
	return nx, ny, true
}

// tileDist is the absolute difference of two biased tile coordinates.
func tileDist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// chebDist is the max-norm distance between two cells.
func chebDist(x1, y1, x2, y2 int64) int64 {
	dx, dy := x1-x2, y1-y2
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// FromRects rasterizes a set of inclusive rectangles [x0,x1]×[y0,y1] into
// an index, for O(height) point-membership over many rectangles (the
// Obstacles world). It returns nil when the total rasterized area exceeds
// maxCells (callers then keep their linear scan): the index trades memory
// proportional to covered cells for constant-time membership, which is the
// wrong trade for a handful of enormous rectangles.
func FromRects(rects [][4]int64, maxCells int64) *Index {
	var area int64
	for _, r := range rects {
		x0, y0, x1, y1 := r[0], r[1], r[2], r[3]
		if x1 < x0 || y1 < y0 {
			return nil // malformed; let the caller's validation report it
		}
		w, h := x1-x0+1, y1-y0+1
		if w > maxCells || h > maxCells || area+w*h > maxCells {
			return nil
		}
		area += w * h
	}
	ix := NewIndex()
	for _, r := range rects {
		for y := r[1]; y <= r[3]; y++ {
			for x := r[0]; x <= r[2]; x++ {
				ix.Visit(x, y)
			}
		}
	}
	return ix
}
