package sim

import "testing"

func TestFutureSlabResolveAcrossGoroutines(t *testing.T) {
	var s FutureSlab
	const n = 3 * slabChunkSize // force chunk growth
	for i := 0; i < n; i++ {
		if slot := s.NewSlot(); slot != i {
			t.Fatalf("slot %d allocated as %d", i, slot)
		}
	}
	go func() {
		for i := n - 1; i >= 0; i-- { // resolve in reverse to exercise waiting
			s.Resolve(i, Time(i*10))
		}
	}()
	for i := 0; i < n; i++ {
		if got := s.Wait(i); got != Time(i*10) {
			t.Fatalf("slot %d resolved to %d, want %d", i, got, i*10)
		}
	}
	s.Reset()
	if s.next != 0 {
		t.Fatalf("%d slots in use after Reset", s.next)
	}
	// Recycled slots start unresolved again.
	slot := s.NewSlot()
	done := make(chan Time)
	go func() { done <- s.Wait(slot) }()
	s.Resolve(slot, 42)
	if got := <-done; got != 42 {
		t.Fatalf("recycled slot resolved to %d", got)
	}
}
