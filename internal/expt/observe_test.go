package expt

import (
	"errors"
	"testing"

	"dloop/internal/obs"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// recordingPublisher counts the snapshots an Observer publishes.
type recordingPublisher struct{ n int }

func (p *recordingPublisher) Publish(r *obs.Registry) error {
	if r == nil {
		return errors.New("nil registry published")
	}
	p.n++
	return nil
}

// observeRun runs a short DLOOP cell under ob. A pulse of the test's own is
// set before ob.Attach, and the returned count is how often it fired: an
// Attach that installs its own pulse replaces it, and the count stays 0.
// attached is what Attach returned.
func observeRun(t *testing.T, ob *Observer) (pulses int, attached obs.Recorder) {
	t.Helper()
	opt := quickOptions()
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)
	_, err := RunObserved(cfg, p, 300, 3, nil, func(c *ssd.Controller) obs.Recorder {
		c.SetPulse(func() { pulses++ })
		attached = ob.Attach(c)
		return attached
	})
	if err != nil {
		t.Fatal(err)
	}
	return pulses, attached
}

// An Observer with no output and no publisher costs the run nothing: it
// attaches no recorder and leaves the controller's pulse alone. The nil
// Publisher is the interface value a command without -listen passes.
func TestObserverWithoutPublisherAttachesNothing(t *testing.T) {
	ob, err := NewObserver("", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pulses, attached := observeRun(t, ob)
	if attached != nil {
		t.Errorf("Attach returned %v, want nil", attached)
	}
	if pulses == 0 {
		t.Error("Attach replaced the controller's pulse")
	}
	if err := ob.Finish(nil); err != nil {
		t.Fatal(err)
	}
}

// A publisher gets a snapshot when the collector attaches and one more when
// the run finishes, even inside the rate limit; a failed run publishes
// nothing at Finish.
func TestObserverPublishes(t *testing.T) {
	for _, runErr := range []error{nil, errors.New("run failed")} {
		pub := &recordingPublisher{}
		ob, err := NewObserver("", "", 0, pub)
		if err != nil {
			t.Fatal(err)
		}
		pulses, attached := observeRun(t, ob)
		if attached == nil {
			t.Fatal("Attach with a publisher returned no recorder")
		}
		if pulses != 0 {
			t.Errorf("the test's pulse fired %d times; Attach should have replaced it", pulses)
		}
		if pub.n < 1 {
			t.Fatalf("%d snapshots published by the end of the run, want the one at attach", pub.n)
		}
		before := pub.n
		if err := ob.Finish(runErr); !errors.Is(err, runErr) {
			t.Fatalf("Finish(%v) = %v", runErr, err)
		}
		want := before + 1
		if runErr != nil {
			want = before
		}
		if pub.n != want {
			t.Errorf("Finish(%v): %d snapshots published, want %d", runErr, pub.n, want)
		}
	}
}
