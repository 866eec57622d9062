package perfecthash

import (
	"sync"
	"testing"
)

// TestConcurrentProbes pins the sharing contract the sharded index relies
// on: a built compact table is immutable, so any number of goroutines may
// probe it concurrently without synchronization.
// The test is exercised under the race detector by `make race`.
func TestConcurrentProbes(t *testing.T) {
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	disp, slotOf, seed, err := BuildCompact(keys, 42)
	if err != nil {
		t.Fatal(err)
	}
	nb := CompactBuckets(len(keys))
	ns := CompactSlots(len(keys))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				b := CompactBucketOf(k, seed, nb)
				if s := CompactSlotOf(k, seed, disp[b], ns); slotOf[i] != int32(s) {
					t.Errorf("compact probe of %#x landed on slot %d, want %d", k, s, slotOf[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
