package spatial

import (
	"encoding/binary"
	"testing"
)

// FuzzSparseVisit drives an Index against a map oracle with a byte-coded
// op stream: each 5-byte record is 1 op byte + 4 coordinate bytes. Ops
// cycle through visit, contains, visit-into-scratch, and merge-scratch-in,
// so the fuzzer explores promotion, tile reuse, and merge alignment.
func FuzzSparseVisit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 255, 255, 255, 255})
	// A promotion chain: visits at growing offsets.
	chain := []byte{}
	for i := 0; i < 8; i++ {
		chain = append(chain, 0, byte(i), byte(i*i), byte(1<<i), 0)
	}
	f.Add(chain)
	// Merge stress: interleave visits with merge ops.
	f.Add([]byte{0, 10, 0, 0, 0, 2, 0, 0, 0, 0, 0, 20, 0, 0, 1, 2, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix := NewIndex()
		scratch := NewIndex()
		oracle := map[cell]bool{}
		scratchOracle := map[cell]bool{}
		for len(data) >= 5 {
			op := data[0] % 4
			// Spread 32-bit payloads over ±2^26 so runs cross many tiles
			// and promotion levels.
			raw := binary.LittleEndian.Uint32(data[1:5])
			x := int64(int32(raw))>>5 + int64(int8(data[1]))
			y := int64(int32(raw<<13))>>10 + int64(int8(data[2]))
			data = data[5:]
			switch op {
			case 0:
				fresh := ix.Visit(x, y)
				if fresh != !oracle[cell{x, y}] {
					t.Fatalf("Visit(%d,%d) fresh=%v, oracle disagrees", x, y, fresh)
				}
				oracle[cell{x, y}] = true
			case 1:
				if ix.Contains(x, y) != oracle[cell{x, y}] {
					t.Fatalf("Contains(%d,%d) disagrees with oracle", x, y)
				}
			case 2:
				scratch.Visit(x, y)
				scratchOracle[cell{x, y}] = true
			case 3:
				added := ix.Merge(scratch)
				wantAdded := 0
				for c := range scratchOracle {
					if !oracle[c] {
						wantAdded++
					}
					oracle[c] = true
				}
				if added != int64(wantAdded) {
					t.Fatalf("Merge added %d, oracle says %d", added, wantAdded)
				}
			}
		}
		if ix.Count() != int64(len(oracle)) {
			t.Fatalf("Count=%d, oracle has %d", ix.Count(), len(oracle))
		}
		for c := range oracle {
			if !ix.Contains(c.x, c.y) {
				t.Fatalf("lost cell (%d,%d)", c.x, c.y)
			}
		}
	})
}
