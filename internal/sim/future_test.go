package sim

import "testing"

func TestFutureTimeEncoding(t *testing.T) {
	for _, slot := range []int{0, 1, 7, slabChunkSize - 1, slabChunkSize, 1 << 20} {
		h := MakeFutureTime(slot)
		if !IsFutureTime(h) {
			t.Fatalf("slot %d: handle %d not recognized as future", slot, h)
		}
		if got := FutureSlot(h); got != slot {
			t.Fatalf("slot %d round-tripped to %d", slot, got)
		}
	}
	for _, tm := range []Time{0, 1, 1 << 40, 1<<62 - 1} {
		if IsFutureTime(tm) {
			t.Fatalf("concrete time %d classified as future", tm)
		}
	}
}

func TestFutureSlabResolveAcrossGoroutines(t *testing.T) {
	var s FutureSlab
	const n = 3 * slabChunkSize // force chunk growth
	handles := make([]Time, n)
	for i := range handles {
		slot, h := s.NewSlot()
		if slot != i {
			t.Fatalf("slot %d allocated as %d", i, slot)
		}
		handles[i] = h
	}
	go func() {
		for i := n - 1; i >= 0; i-- { // resolve in reverse to exercise waiting
			s.Resolve(i, Time(i*10))
		}
	}()
	for i, h := range handles {
		if got := s.Wait(FutureSlot(h)); got != Time(i*10) {
			t.Fatalf("slot %d resolved to %d, want %d", i, got, i*10)
		}
	}
	s.Reset()
	if s.InUse() != 0 {
		t.Fatalf("InUse %d after Reset", s.InUse())
	}
	// Recycled slots start unresolved again.
	slot, _ := s.NewSlot()
	done := make(chan Time)
	go func() { done <- s.Wait(slot) }()
	s.Resolve(slot, 42)
	if got := <-done; got != 42 {
		t.Fatalf("recycled slot resolved to %d", got)
	}
}
