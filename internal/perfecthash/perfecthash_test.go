package perfecthash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chdTable lays a compact table's slots out the way the oracle image lays
// its slot slab: slot s holds the index of the key placed there, or -1, and
// a probe compares the stored key — the membership test the image makes by
// comparing its inline key.
type chdTable struct {
	keys  []uint64
	disp  []uint16
	slots []int32
	seed  uint64
}

func buildTable(keys []uint64, seed uint64) (*chdTable, error) {
	disp, slotOf, used, err := BuildCompact(keys, seed)
	if err != nil {
		return nil, err
	}
	t := &chdTable{keys: keys, disp: disp, slots: make([]int32, CompactSlots(len(keys))), seed: used}
	for s := range t.slots {
		t.slots[s] = -1
	}
	for i, s := range slotOf {
		t.slots[s] = int32(i)
	}
	return t, nil
}

// lookup returns key's index, or ok == false when key is not a member.
func (t *chdTable) lookup(key uint64) (int32, bool) {
	i := t.slots[probeCompact(key, t.seed, t.disp, len(t.slots))]
	if i < 0 || t.keys[i] != key {
		return 0, false
	}
	return i, true
}

func TestEmpty(t *testing.T) {
	tab, err := buildTable(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.lookup(42); ok {
		t.Error("lookup in empty table succeeded")
	}
	if len(tab.slots) != 1 || len(tab.disp) != 1 {
		t.Errorf("empty table holds %d slots, %d buckets; want 1, 1", len(tab.slots), len(tab.disp))
	}
}

func TestSingle(t *testing.T) {
	tab, err := buildTable([]uint64{7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.lookup(7); !ok || v != 0 {
		t.Errorf("lookup(7) = %d, %v", v, ok)
	}
	if _, ok := tab.lookup(8); ok {
		t.Error("lookup(8) should miss")
	}
}

func TestSequentialKeys(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	tab, err := buildTable(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := tab.lookup(k); !ok || v != int32(i) {
			t.Fatalf("lookup(%d) = %d, %v", k, v, ok)
		}
	}
	for k := uint64(1000); k < 2000; k++ {
		if _, ok := tab.lookup(k); ok {
			t.Fatalf("lookup(%d) should miss", k)
		}
	}
}

func TestPackedPairKeys(t *testing.T) {
	// The oracle's keys are packed (id1, id2) pairs; make sure structured
	// keys hash fine.
	var keys []uint64
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			keys = append(keys, a<<32|b)
		}
	}
	tab, err := buildTable(keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := tab.lookup(k); !ok || v != int32(i) {
			t.Fatalf("lookup(%#x) = %d, %v", k, v, ok)
		}
	}
	if _, ok := tab.lookup(uint64(51) << 32); ok {
		t.Error("miss expected")
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	if _, err := buildTable([]uint64{1, 2, 3, 2}, 4); err == nil {
		t.Error("expected error on duplicate keys")
	}
}

// CHD guarantee: the slot and displacement arrays stay linear in n —
// CompactSlots(n) ≈ 1.06n slots and ⌈n/4⌉ uint16 displacements.
func TestLinearSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10, 100, 1000, 20000} {
		keys := make([]uint64, n)
		seen := map[uint64]bool{}
		for i := range keys {
			for {
				k := rng.Uint64()
				if !seen[k] {
					seen[k] = true
					keys[i] = k
					break
				}
			}
		}
		tab, err := buildTable(keys, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.slots) > n+n/16+1 {
			t.Errorf("n=%d: %d slots exceeds n + n/16 + 1", n, len(tab.slots))
		}
		if len(tab.disp) > (n+3)/4 {
			t.Errorf("n=%d: %d displacements exceeds ⌈n/4⌉", n, len(tab.disp))
		}
	}
}

// Property: for random key sets, every key is found with its index and
// perturbed keys miss.
func TestLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		seen := map[uint64]bool{}
		keys := make([]uint64, 0, n)
		for len(keys) < n {
			k := rng.Uint64()
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		tab, err := buildTable(keys, uint64(seed))
		if err != nil {
			return false
		}
		for i, k := range keys {
			if v, ok := tab.lookup(k); !ok || v != int32(i) {
				return false
			}
		}
		for i := 0; i < 50; i++ {
			k := rng.Uint64()
			if _, ok := tab.lookup(k); ok != seen[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
