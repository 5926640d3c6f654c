package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Microsecond)
	if t1 != Time(5000) {
		t.Fatalf("Add: got %d, want 5000", t1)
	}
	if d := t1.Sub(t0); d != 5*Microsecond {
		t.Fatalf("Sub: got %d, want %d", d, 5*Microsecond)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before ordering wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatal("After ordering wrong")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds: got %v, want 1.5", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Errorf("Microseconds: got %v, want 1500", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds: got %v, want 2", got)
	}
	if got := Microseconds(25); got != 25*Microsecond {
		t.Errorf("Microseconds builder: got %d, want %d", got, 25*Microsecond)
	}
	if got := Microseconds(0.2); got != 200*Nanosecond {
		t.Errorf("fractional Microseconds: got %d, want 200", got)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("plane")
	s1, e1 := r.Acquire(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first acquire: [%d,%d), want [0,100)", s1, e1)
	}
	// Ready earlier than the resource frees: must queue.
	s2, e2 := r.Acquire(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("queued acquire: [%d,%d), want [100,200)", s2, e2)
	}
	// Ready later than free: starts at ready.
	s3, e3 := r.Acquire(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("idle acquire: [%d,%d), want [500,510)", s3, e3)
	}
	if r.BusyTime() != 210 {
		t.Fatalf("BusyTime: got %d, want 210", r.BusyTime())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	r.Reset()
	if r.FreeAt() != 0 || r.BusyTime() != 0 {
		t.Fatalf("after Reset: freeAt=%d busy=%d, want zeros", r.FreeAt(), r.BusyTime())
	}
}

func TestAcquireAllHoldsEveryResource(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n          int // resources; the first is busy until 70
		start, end Time
	}{
		{"none", 0, 10, 40}, // nothing to wait for: starts when ready
		{"one", 1, 70, 100},
		{"chipbus+channel", 2, 70, 100},
		{"chipbus+channel+plane", 3, 70, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := make([]*Resource, tc.n)
			for i := range rs {
				rs[i] = NewResource("r")
			}
			if tc.n > 0 {
				rs[0].Acquire(0, 70)
			}
			if got := EarliestStart(10, 30, rs...); got != tc.start {
				t.Fatalf("EarliestStart: %d, want %d", got, tc.start)
			}
			start, end := AcquireAll(10, 30, rs...)
			if start != tc.start || end != tc.end {
				t.Fatalf("AcquireAll: [%d,%d), want [%d,%d)", start, end, tc.start, tc.end)
			}
			for i, r := range rs {
				if r.FreeAt() != tc.end {
					t.Fatalf("resource %d free at %d, want %d", i, r.FreeAt(), tc.end)
				}
			}
		})
	}
}

func TestEarliestStartDoesNotAcquire(t *testing.T) {
	a := NewResource("a")
	a.Acquire(0, 40)
	if got := EarliestStart(10, 5, a); got != 40 {
		t.Fatalf("EarliestStart: got %d, want 40", got)
	}
	if a.FreeAt() != 40 {
		t.Fatal("EarliestStart must not mutate the resource")
	}
}

func TestResourceBackfill(t *testing.T) {
	r := NewResource("plane")
	// An operation scheduled far in the future must not burn the idle gap
	// before it.
	r.Acquire(1000, 100) // [1000,1100)
	s, e := r.Acquire(0, 100)
	if s != 0 || e != 100 {
		t.Fatalf("backfill: [%d,%d), want [0,100)", s, e)
	}
	// A 500-long op does not fit the [100,1000) gap edge at 600... it does:
	// [100,600) fits. One that is too long goes after the future op.
	s, _ = r.Acquire(100, 950)
	if s != 1100 {
		t.Fatalf("oversized op: start %d, want 1100", s)
	}
	// Exact-fit gap.
	s, e = r.Acquire(100, 900)
	if s != 100 || e != 1000 {
		t.Fatalf("exact fit: [%d,%d), want [100,1000)", s, e)
	}
}

func TestAcquireAllBackfillCommonGap(t *testing.T) {
	a := NewResource("a")
	b := NewResource("b")
	a.Acquire(0, 100)   // a busy [0,100)
	b.Acquire(150, 100) // b busy [150,250)
	// Needs 60 in both: a free from 100, b free [0,150): common [100,150)
	// fits 50 but not 60 -> next common gap starts at 250.
	s, e := AcquireAll(0, 60, a, b)
	if s != 250 || e != 310 {
		t.Fatalf("common gap: [%d,%d), want [250,310)", s, e)
	}
	// 50 fits in [100,150).
	s, e = AcquireAll(0, 50, a, b)
	if s != 100 || e != 150 {
		t.Fatalf("small common gap: [%d,%d), want [100,150)", s, e)
	}
}

// Property: acquisitions never overlap each other (they may backfill gaps),
// never start before ready, and busy time equals the sum of durations.
func TestResourceNoOverlapProperty(t *testing.T) {
	type iv struct{ s, e Time }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		var got []iv
		var total Duration
		for i := 0; i < 200; i++ {
			ready := Time(rng.Int63n(10000))
			d := Duration(rng.Int63n(500) + 1)
			start, end := r.Acquire(ready, d)
			if start < ready {
				return false // started before ready
			}
			if end != start.Add(d) {
				return false
			}
			for _, g := range got {
				if start < g.e && g.s < end {
					return false // overlap
				}
			}
			got = append(got, iv{start, end})
			total += d
		}
		return r.BusyTime() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }
