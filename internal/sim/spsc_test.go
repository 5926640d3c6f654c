package sim

import (
	"sync"
	"testing"
)

// Push appends v and publishes it immediately: PushStaged plus Ring.
// Producer only. The front end only stages and rings in batches; the tests
// use the one-element form.
func (q *SPSC[T]) Push(v T) {
	q.PushStaged(v)
	q.Ring()
}

func TestSPSCOrderAndQuiescence(t *testing.T) {
	q := NewSPSC[int](8) // tiny ring: exercise backpressure
	const n = 100000
	var sum int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 0
		for {
			v, ok := q.PopWait()
			if !ok {
				return
			}
			if v != next {
				t.Errorf("popped %d, want %d", v, next)
				return
			}
			next++
			sum += int64(v)
			q.MarkDone()
		}
	}()
	for i := 0; i < n/2; i++ {
		q.Push(i)
	}
	q.AwaitQuiesced() // mid-stream barrier
	if !q.Quiesced() {
		t.Fatal("not quiesced after AwaitQuiesced")
	}
	for i := n / 2; i < n; i++ {
		q.Push(i)
	}
	q.AwaitQuiesced()
	q.Close()
	wg.Wait()
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
}

func TestSPSCParkWake(t *testing.T) {
	q := NewSPSC[int](64)
	got := make(chan int, 1)
	go func() {
		v, _ := q.PopWait() // no work yet: the consumer must park, not spin
		got <- v
	}()
	// Give the consumer time to park, then wake it with one element.
	for i := 0; i < 1000; i++ {
		if q.sleeping.Load() {
			break
		}
	}
	q.Push(7)
	if v := <-got; v != 7 {
		t.Fatalf("woke with %d", v)
	}
	q.Close()
}

func TestSPSCStagedDoorbell(t *testing.T) {
	q := NewSPSC[int](8)
	// Staged elements are invisible until the doorbell rings.
	q.PushStaged(1)
	q.PushStaged(2)
	if q.tail.Load() != 0 {
		t.Fatalf("staged elements published early: tail=%d", q.tail.Load())
	}
	q.Ring()
	if q.tail.Load() != 2 {
		t.Fatalf("doorbell published tail=%d, want 2", q.tail.Load())
	}
	for want := 1; want <= 2; want++ {
		v, ok := q.PopWait()
		if !ok || v != want {
			t.Fatalf("popped %d/%v, want %d", v, ok, want)
		}
		q.MarkDone()
	}
	// Ring with nothing staged is a no-op.
	q.Ring()
	if q.tail.Load() != 2 {
		t.Fatalf("empty ring moved tail to %d", q.tail.Load())
	}
	// AwaitQuiesced publishes staged elements first, so a staged-only batch
	// cannot be waited on invisibly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := q.PopWait(); !ok {
				return
			}
			q.MarkDone()
		}
	}()
	q.PushStaged(3)
	q.AwaitQuiesced()
	if got := q.done.Load(); got != 3 {
		t.Fatalf("quiesced with done=%d, want 3", got)
	}
	q.Close()
	<-done
}

func TestSPSCStagedBackpressure(t *testing.T) {
	// Capacity 4: staging past the ring's size must ring the doorbell itself
	// and wait for the consumer rather than overwrite unconsumed elements.
	q := NewSPSC[int](4)
	const n = 64
	var got []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := q.PopWait()
			if !ok {
				return
			}
			got = append(got, v)
			q.MarkDone()
		}
	}()
	for i := 0; i < n; i++ {
		q.PushStaged(i)
	}
	q.Close()
	<-done
	if len(got) != n {
		t.Fatalf("consumer saw %d elements, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestSPSCPushAfterStagedKeepsOrder(t *testing.T) {
	q := NewSPSC[int](16)
	q.PushStaged(1)
	q.Push(2) // immediate push must publish the staged element too
	if q.tail.Load() != 2 {
		t.Fatalf("tail=%d after Push following PushStaged, want 2", q.tail.Load())
	}
	for want := 1; want <= 2; want++ {
		v, ok := q.PopWait()
		if !ok || v != want {
			t.Fatalf("popped %d/%v, want %d", v, ok, want)
		}
		q.MarkDone()
	}
}
