package perfecthash

import (
	"encoding/binary"
	"testing"
)

// FuzzLookup drives the compact (CHD) table with arbitrary key material:
// build it from the fuzzed keys (deduplicated), lay its slots out the way
// the oracle image does, then check that every member key reaches its own
// slot and that probes for derived non-member keys never alias onto a
// member.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, int64(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int64(3))
	seed := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i)<<32|uint64(i))
	}
	f.Add(seed, int64(4))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var keys []uint64
		dedup := map[uint64]bool{}
		for len(data) >= 8 {
			k := binary.LittleEndian.Uint64(data[:8])
			data = data[8:]
			if !dedup[k] {
				dedup[k] = true
				keys = append(keys, k)
			}
			if len(keys) >= 4096 {
				break
			}
		}
		disp, slotOf, used, err := BuildCompact(keys, uint64(seed))
		if err != nil {
			t.Fatalf("BuildCompact on %d deduplicated keys: %v", len(keys), err)
		}
		ns := CompactSlots(len(keys))
		owner := make([]int32, ns)
		for s := range owner {
			owner[s] = -1
		}
		for i, s := range slotOf {
			if s < 0 || int(s) >= ns {
				t.Fatalf("key %d placed at slot %d of %d", i, s, ns)
			}
			if owner[s] >= 0 {
				t.Fatalf("keys %d and %d share slot %d", owner[s], i, s)
			}
			owner[s] = int32(i)
		}
		for i, k := range keys {
			if s := probeCompact(k, used, disp, ns); s != slotOf[i] {
				t.Fatalf("member %#x probes slot %d, placed at %d", k, s, slotOf[i])
			}
		}
		// Derived probes: mutations of member keys plus a fixed battery. A
		// probe may land on any slot; it is a member hit only when that
		// slot's key is the probe itself.
		probe := func(k uint64) {
			s := probeCompact(k, used, disp, ns)
			if s < 0 || int(s) >= ns {
				t.Fatalf("probe %#x landed outside the %d slots: %d", k, ns, s)
			}
			hit := owner[s] >= 0 && keys[owner[s]] == k
			if hit != dedup[k] {
				t.Fatalf("probe %#x membership = %v, want %v", k, hit, dedup[k])
			}
		}
		for _, k := range keys {
			probe(k ^ 1)
			probe(k + 1)
			probe(^k)
			probe(k << 1)
		}
		for _, k := range []uint64{0, 1, ^uint64(0), 0xdeadbeef, 1 << 63} {
			probe(k)
		}
	})
}
