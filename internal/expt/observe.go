package expt

import (
	"os"
	"time"

	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
)

// publishEvery is the wall-clock gap between live snapshots: the simulator
// pulses at every epoch barrier, far faster than any scraper polls, and
// rendering an exposition per barrier would cost the run its speed.
const publishEvery = 250 * time.Millisecond

// Publisher receives live registry snapshots; *httpexport.Server is one.
// The library names only this method, so it links no HTTP server: the
// commands that serve /metrics build one and pass it in.
type Publisher interface {
	Publish(*obs.Registry) error
}

// Observer is one run's observability outputs. Its Attach builds the run's
// collector at RunObserved's attach point and publishes live snapshots to
// the exporter at quiescent points; Finish closes the collector and writes
// the metrics.json and trace-event files. An Observer with no output
// attaches nothing, so the run costs nothing.
type Observer struct {
	metricsPath string
	traceFile   *os.File
	snapshot    sim.Duration
	exporter    Publisher
	col         *obs.Collector
	lastPub     time.Time
}

// NewObserver returns an Observer writing metrics.json to metricsPath and
// a trace-event document to tracePath (each when non-empty), with snapshot
// series every snapshot of simulated time (0 = off) and live snapshots to
// exporter (when non-nil). It creates the trace file now, so a bad path
// fails before the run.
func NewObserver(metricsPath, tracePath string, snapshot sim.Duration, exporter Publisher) (*Observer, error) {
	o := &Observer{metricsPath: metricsPath, snapshot: snapshot, exporter: exporter}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		o.traceFile = f
	}
	return o, nil
}

// Attach builds the collector for a warmed controller, or returns nil when
// no output was asked for.
func (o *Observer) Attach(c *ssd.Controller) obs.Recorder {
	if o.metricsPath == "" && o.traceFile == nil && o.snapshot <= 0 && o.exporter == nil {
		return nil
	}
	opts := c.ObsOptions()
	if o.traceFile != nil {
		opts.TraceEvents = o.traceFile
	}
	opts.SnapshotInterval = o.snapshot
	o.col = obs.NewCollector(opts)
	if o.exporter != nil {
		c.SetPulse(o.publish)
		o.publish()
	}
	return o.col
}

// publish pushes a merged registry snapshot to the exporter, at most once
// per publishEvery.
func (o *Observer) publish() {
	if time.Since(o.lastPub) < publishEvery {
		return
	}
	o.lastPub = time.Now()
	o.exporter.Publish(o.col.SnapshotRegistry())
}

// Finish ends the observation of a run that returned runErr. After a
// failed run it closes the trace file and returns runErr. Otherwise it
// closes the collector, publishes the final snapshot past the rate limit
// (the exporter serves it until the process exits), and writes the files.
func (o *Observer) Finish(runErr error) error {
	if runErr != nil || o.col == nil {
		if o.traceFile != nil {
			o.traceFile.Close()
		}
		return runErr
	}
	if err := o.col.Close(); err != nil {
		return err
	}
	if o.exporter != nil {
		if err := o.exporter.Publish(o.col.SnapshotRegistry()); err != nil {
			return err
		}
	}
	if o.traceFile != nil {
		if err := o.traceFile.Close(); err != nil {
			return err
		}
	}
	if o.metricsPath == "" {
		return nil
	}
	f, err := os.Create(o.metricsPath)
	if err != nil {
		return err
	}
	if err := o.col.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
