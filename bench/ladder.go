package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dloop/internal/expt"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// The layer ladder is the traced run. It attributes host time per request to
// the repository's layers purely from outside: every rung times calls into
// one layer's exported functions, and each rung replays what the rung above
// it handed down, one layer lower. A layer's self time is its rung minus the
// rung below.
//
//	rung 0  workload  Generator.NextN alone
//	rung 1  trace     arena Cursor.NextN alone
//	rung 2  ssd       the whole stack: EnqueueBatch in 4096-request batches + Result
//	rung 3  ftl       ReadPage/WritePage driven directly, bypassing the controller
//	rung 4  flash     the recorded op stream replayed on a bare flash.Device
//	rung 5  sim       the same ops' Acquire calls on bare sim.Resources
//	rung 6  stats     the recorded latency stream refolded into the accumulators
//
// Rungs 2-5 telescope: ssd.self + ftl.self + flash.self + sim add up to
// ssd.enqueue_ns_per_req by construction. Rungs 1 and 6 are parts of
// ssd.self (the controller pulls from the cursor and folds the statistics).
//
// Rungs 2-6 run in lock-step, one turn of about turnTime at a time: each rung
// has its own simulator forked from one checkpoint, and turn k passes through
// every rung before turn k+1 starts. The reference box's speed drifts by
// 10-20 % over seconds to minutes; rungs timed one after the other would
// differ by that drift, rungs timed within the same round do not.

// ladderBatch is the EnqueueBatch size of rung 2, one span each.
const ladderBatch = 4096

// turnTime is about how long one part runs before the next takes over.
const turnTime = 40 * time.Millisecond

// The parts of a lock-step pass, in the order a turn visits them.
const (
	pUntraced = iota // rung 2, no spans
	pTraced          // rung 2, one span per batch
	pObserved        // rung 2 with an obs.Collector attached
	pDirect          // rung 3
	pFlash           // rung 4
	pTimeline        // rung 5
	pStats           // rung 6
	numParts
)

// partSpan names the span a part's turn is recorded as; rung 2 records its
// batches instead (traced) or nothing (untraced).
var partSpan = [numParts]string{"", "", "ssd.enqueue+obs", "ftl.direct-drive", "flash.replay", "sim.replay", "stats.refold"}

// pageReq is one request as the FTL sees it, derived by the benchmark itself.
type pageReq struct {
	arrival sim.Time
	first   ftl.LPN
	n       int32
	read    bool
}

// span is one traced interval at a layer boundary. Spans of one traced run
// share its run id; times are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	run   string
	spans []span
}

func (t *tracer) add(name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

type budgetRow struct {
	Layer    string  `json:"layer"`
	NsPerReq float64 `json:"ns_per_req"`
	Share    float64 `json:"share"`
	Part     bool    `json:"part_of_ssd_self"` // not added to the sum
}

type ladderResult struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	N        int         `json:"n"`
	Passes   int         `json:"passes"`
	Values   values      `json:"values"`
	Budget   []budgetRow `json:"budget"`
	Fidelity string      `json:"fidelity,omitempty"`
	Problems []string    `json:"problems"`
	spans    []span
}

func perItem(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// enqueueAll is rung 2 as one piece: the arena replayed through EnqueueBatch,
// then Result.
func enqueueAll(c *ssd.Controller, a *trace.Arena) (wall, result time.Duration, res ssd.Result, err error) {
	buf := make([]trace.Request, ladderBatch)
	cur := a.Cursor()
	t0 := time.Now()
	for {
		n, _ := cur.NextN(buf)
		if n == 0 {
			break
		}
		if err := c.EnqueueBatch(buf[:n]); err != nil {
			return 0, 0, ssd.Result{}, err
		}
	}
	t1 := time.Now()
	res = c.Result()
	t2 := time.Now()
	return t2.Sub(t0), t2.Sub(t1), res, nil
}

// directDrive is rung 3: the page stream straight into the FTL.
func directDrive(f ftl.FTL, reqs []pageReq) error {
	for i := range reqs {
		r := &reqs[i]
		for k := ftl.LPN(0); k < ftl.LPN(r.n); k++ {
			var err error
			if r.read {
				_, err = f.ReadPage(r.first+k, r.arrival)
			} else {
				_, err = f.WritePage(r.first+k, r.arrival)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// directDriveSplit is rung 3 again with one timestamp per request, chained,
// so every nanosecond lands on a read request or a write request. Only the
// ratio is used: it splits rung 3's time by operation.
func directDriveSplit(f ftl.FTL, reqs []pageReq) (readNs, writeNs int64, err error) {
	t0 := time.Now()
	var last int64
	for i := range reqs {
		if err := directDrive(f, reqs[i:i+1]); err != nil {
			return 0, 0, err
		}
		now := time.Since(t0).Nanoseconds()
		if reqs[i].read {
			readNs += now - last
		} else {
			writeNs += now - last
		}
		last = now
	}
	return readNs, writeNs, nil
}

func flashOps(res ssd.Result) int64 { return res.Reads + res.Writes + res.CopyBacks + res.Erases }

// checkpointTimes times Snapshot and Restore on a warmed controller and
// returns the checkpoint the rungs fork from.
func checkpointTimes(c *ssd.Controller, out values) (*ssd.Checkpoint, error) {
	t := time.Now()
	cp, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	out["ssd.snapshot_ms"] = ms(time.Since(t))
	t = time.Now()
	if err := c.Restore(cp); err != nil {
		return nil, err
	}
	out["ssd.restore_ms"] = ms(time.Since(t))
	return cp, nil
}

// codecTimes times the checkpoint codec the warm-up cache uses.
func codecTimes(c *ssd.Controller, cp *ssd.Checkpoint, out values) error {
	t := time.Now()
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	out["ckpt.encode_ms"] = ms(time.Since(t))
	out["ckpt.bytes"] = float64(len(data))
	t = time.Now()
	if _, err := c.DecodeCheckpoint(data); err != nil {
		return err
	}
	out["ckpt.decode_ms"] = ms(time.Since(t))
	return nil
}

// recording is what the lower rungs replay: every flash op and every request
// latency of one full-stack pass, cut at the batch boundaries.
type recording struct {
	opRecorder
	lats  []sim.Duration
	opEnd []int // ops recorded when batch b ended
}

// rig is the set of simulators one lock-step pass drives, all forked from cp.
type rig struct {
	n     int
	turn  int // requests a part serves before the next part takes over
	arena *trace.Arena
	reqs  []pageReq
	cp    *ssd.Checkpoint
	// ctl are the rung-2 controllers by part (pUntraced, pTraced,
	// pObserved); direct is rung 3's. observed is nil, like rec, on a
	// workload whose ladder stops at rung 3.
	ctl    [3]*ssd.Controller
	direct *ssd.Controller
	rec    *recording
	full   ssd.Result // what every rung-2 part must reproduce
}

// controllers lists the simulators the rig has.
func (r *rig) controllers() []*ssd.Controller {
	var cs []*ssd.Controller
	for _, c := range append(r.ctl[:], r.direct) {
		if c != nil {
			cs = append(cs, c)
		}
	}
	return cs
}

func (r *rig) close() {
	for _, c := range r.controllers() {
		c.Close()
	}
}

// record runs the full stack once on ctl[pUntraced] with a recording
// obs.Recorder and the latency hook attached.
func (r *rig) record() error {
	c := r.ctl[pUntraced]
	rec := &recording{lats: make([]sim.Duration, 0, r.n)}
	c.SetRecorder(&rec.opRecorder)
	c.SetLatencyHook(func(d sim.Duration) { rec.lats = append(rec.lats, d) })
	defer c.SetRecorder(nil)
	defer c.SetLatencyHook(nil)
	buf := make([]trace.Request, ladderBatch)
	cur := r.arena.Cursor()
	for {
		k, _ := cur.NextN(buf)
		if k == 0 {
			break
		}
		if err := c.EnqueueBatch(buf[:k]); err != nil {
			return err
		}
		rec.opEnd = append(rec.opEnd, len(rec.ops))
	}
	r.full = c.Result()
	r.rec = rec
	if got := int64(len(rec.ops)); got != flashOps(r.full) || len(rec.lats) != r.n {
		return fmt.Errorf("recording pass kept %d ops of %d and %d latencies of %d", got, flashOps(r.full), len(rec.lats), r.n)
	}
	return nil
}

// passTimes is what one lock-step pass measured.
type passTimes struct {
	ns       [numParts]float64 // host ns per request, by part
	resultMs float64           // Result() on the untraced controller
	fidelity string            // replay completion times against the recording
}

// pass drives every turn of the stream through every part.
func (r *rig) pass(tr *tracer, root string) (passTimes, []string, error) {
	var pt passTimes
	var problems []string
	for _, c := range r.controllers() {
		if err := c.Restore(r.cp); err != nil {
			return pt, nil, err
		}
	}
	var col *obs.Collector
	if c := r.ctl[pObserved]; c != nil {
		col = obs.NewCollector(c.ObsOptions())
		c.SetRecorder(col)
		defer c.SetRecorder(nil)
	}
	var fr *flashReplayer
	var tl *timelineReplayer
	var sf statsRefolder
	if r.rec != nil {
		geo, timing := r.direct.Geometry(), r.direct.Device().Timing()
		var err error
		if fr, err = newFlashReplayer(geo, timing); err != nil {
			return pt, nil, err
		}
		tl = newTimelineReplayer(geo, timing)
	}
	var curs [3]*trace.Cursor
	for i := range curs {
		curs[i] = r.arena.Cursor()
	}
	buf := make([]trace.Request, ladderBatch)
	var acc [numParts]time.Duration
	// enqueue serves one turn of rung 2 in ladderBatch batches; the traced
	// part records one span per batch, the others none.
	enqueue := func(part, requests int) error {
		for left := requests; left > 0; {
			k, _ := curs[part].NextN(buf)
			var b0 time.Time
			if part == pTraced {
				b0 = time.Now()
			}
			if err := r.ctl[part].EnqueueBatch(buf[:k]); err != nil {
				return err
			}
			if part == pTraced {
				tr.add("ssd.EnqueueBatch", root, b0, time.Now())
			}
			left -= k
		}
		return nil
	}
	passStart := time.Now()
	t := passStart
	// lap charges the time since the previous lap to a part.
	lap := func(part int) {
		now := time.Now()
		acc[part] += now.Sub(t)
		if partSpan[part] != "" {
			tr.add(partSpan[part], root, t, now)
		}
		t = now
	}
	for b, lo := 0, 0; lo < r.n; b, lo = b+1, lo+r.turn {
		hi := min(lo+r.turn, r.n)
		// The untraced and the traced controller swap places every turn,
		// so neither always runs on what the other left in the caches.
		first, second := pUntraced, pTraced
		if b%2 == 1 {
			first, second = pTraced, pUntraced
		}
		t = time.Now()
		for _, part := range []int{first, second, pObserved} {
			if r.ctl[part] == nil {
				continue
			}
			if err := enqueue(part, hi-lo); err != nil {
				return pt, nil, err
			}
			lap(part)
		}
		if err := directDrive(r.direct.FTL(), r.reqs[lo:hi]); err != nil {
			return pt, nil, err
		}
		lap(pDirect)
		if r.rec == nil {
			continue
		}
		opLo := 0
		if lo > 0 {
			opLo = r.rec.opEnd[lo/ladderBatch-1]
		}
		ops := r.rec.ops[opLo:r.rec.opEnd[(hi-1)/ladderBatch]]
		if err := fr.run(ops); err != nil {
			return pt, nil, err
		}
		lap(pFlash)
		tl.run(ops)
		lap(pTimeline)
		sf.run(r.rec.lats[lo:hi], r.reqs[lo:hi])
		lap(pStats)
	}
	// Result closes rung 2 on each of its controllers.
	for part, c := range r.ctl {
		if c == nil {
			continue
		}
		t0 := time.Now()
		res := c.Result()
		d := time.Since(t0)
		acc[part] += d
		if part == pUntraced {
			pt.resultMs = ms(d)
		}
		if part == pTraced {
			tr.add("ssd.Result", root, t0, t0.Add(d))
		}
		if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", r.full) {
			problems = append(problems, fmt.Sprintf("rung 2 (%s) did not reproduce the reference Result", []string{"untraced", "traced", "observed"}[part]))
		}
	}
	tr.add(root, "", passStart, time.Now())
	if col != nil {
		if err := col.Close(); err != nil {
			return pt, nil, err
		}
	}
	for part := range acc {
		pt.ns[part] = perItem(acc[part], r.n)
	}

	st, full := r.direct.Device().Stats(), r.full
	if st.Reads() != full.Reads || st.Writes() != full.Writes || st.CopyBacks() != full.CopyBacks || st.Erases() != full.Erases {
		problems = append(problems, fmt.Sprintf("FTL direct-drive issued %d/%d/%d/%d reads/writes/copy-backs/erases, the full run %d/%d/%d/%d",
			st.Reads(), st.Writes(), st.CopyBacks(), st.Erases(), full.Reads, full.Writes, full.CopyBacks, full.Erases))
	}
	if r.rec != nil {
		if err := checkReplayCounts(fr.dev, r.rec.ops); err != nil {
			problems = append(problems, err.Error())
		}
		if err := sf.check(full); err != nil {
			problems = append(problems, err.Error())
		}
		pt.fidelity = "flash replay: op counts per kind x cause and per plane x cause identical to the recording; completion times identical"
		if fr.endSum != r.rec.endSum || tl.endSum != r.rec.endSum {
			pt.fidelity = fmt.Sprintf("flash replay: op counts identical to the recording; completion-time checksums differ (recorded %d, flash replay %d, timeline replay %d): the replays' timing model has drifted from flash.Device", r.rec.endSum, fr.endSum, tl.endSum)
		}
	}
	return pt, problems, nil
}

func runLadder(o runOpts, s spec) (*ladderResult, error) {
	if s.sweep {
		return sweepLadder(o, s)
	}
	n := scaled(s.n, o.scale) / 2
	lr := &ladderResult{Workload: s.name, Seed: o.seed, N: n, Values: values{}}
	tr := &tracer{t0: time.Now(), run: fmt.Sprintf("%s-seed%d", s.name, o.seed)}
	cfg, p, err := s.config()
	if err != nil {
		return nil, err
	}
	// The rungs below the controller need the single-FTL engine: exch_mq
	// runs rungs 0-3 on its sequential twin.
	mq := cfg.FTLShards > 1
	twin := cfg
	twin.FTLShards = 0

	// Rung 0: the generator alone.
	g, err := workload.NewGenerator(p, o.seed)
	if err != nil {
		return nil, err
	}
	buf := make([]trace.Request, ladderBatch)
	t := time.Now()
	for left := n; left > 0; left -= min(left, len(buf)) {
		if _, err := g.NextN(buf[:min(left, len(buf))]); err != nil {
			return nil, err
		}
	}
	lr.Values["workload.gen_ns_per_req"] = perItem(time.Since(t), n)
	tr.add("workload.Generator.NextN", "", t, time.Now())

	r := &rig{n: n}
	defer r.close()
	if s.traceFile {
		dir, err := os.MkdirTemp(o.outDir, "ladder-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, s.name+".trace")
		if _, err := writeTraceFile(path, p, o.seed, n); err != nil {
			return nil, err
		}
		if r.arena, err = trace.LoadArena(path, trace.FormatDiskSim); err != nil {
			return nil, err
		}
	} else if r.arena, err = workload.MaterializeArena(p, o.seed, n); err != nil {
		return nil, err
	}

	// Rung 1: the arena cursor alone.
	cur := r.arena.Cursor()
	t = time.Now()
	for {
		if k, _ := cur.NextN(buf); k == 0 {
			break
		}
	}
	cursorNs := perItem(time.Since(t), n)
	lr.Values["trace.cursor_ns_per_req"] = cursorNs
	tr.add("trace.Cursor.NextN", "", t, time.Now())

	// One simulator is built and preconditioned; the others are built and
	// take their state from its checkpoint.
	c, _, err := buildWarm(twin, p)
	if err != nil {
		return nil, err
	}
	r.ctl[pUntraced] = c
	if r.cp, err = checkpointTimes(c, lr.Values); err != nil {
		return nil, err
	}
	forks := []**ssd.Controller{&r.ctl[pTraced], &r.direct}
	if !mq {
		forks = append(forks, &r.ctl[pObserved])
	}
	for _, f := range forks {
		if *f, err = ssd.Build(twin); err != nil {
			return nil, err
		}
	}
	pageSize := int64(c.Geometry().PageSize)
	r.reqs = make([]pageReq, n)
	var readPages, writePages int64
	for i := range r.reqs {
		q := r.arena.At(i)
		first, k := pageSpan(q, pageSize)
		r.reqs[i] = pageReq{arrival: q.Arrival, first: ftl.LPN(first), n: int32(k), read: q.Op == trace.OpRead}
		if r.reqs[i].read {
			readPages += k
		} else {
			writePages += k
		}
	}
	pages := readPages + writePages

	// The reference pass takes the first-touch costs and fixes the Result
	// every rung is checked against; below rung 3 it is also the recording.
	t = time.Now()
	if mq {
		_, _, r.full, err = enqueueAll(c, r.arena)
	} else {
		err = r.record()
	}
	if err != nil {
		return nil, err
	}
	// A turn is as many whole batches as the stack serves in about turnTime:
	// long enough that refilling the caches after the other parts' turns is
	// a small share of it, short enough that the box's drift is common to
	// all parts of a round.
	r.turn = ladderBatch * max(1, int(turnTime.Seconds()/since(t)*float64(n)/ladderBatch))
	if r.full.Requests != int64(n) || r.full.PagesRead+r.full.PagesWrit != pages {
		lr.Problems = append(lr.Problems, fmt.Sprintf("rung 2 served %d requests / %d pages, stream has %d / %d",
			r.full.Requests, r.full.PagesRead+r.full.PagesWrit, n, pages))
	}

	// Lock-step passes while the time budget lasts; the pass with the
	// median ssd.enqueue_ns_per_req is the one reported, whole, so its rows
	// still add up.
	var passes []passTimes
	var lastPass float64
	start := time.Now()
	for len(passes) == 0 || (len(passes) < 5 && since(start)+lastPass <= 0.6*o.seconds) {
		p0 := time.Now()
		pt, problems, err := r.pass(tr, fmt.Sprintf("ladder.pass#%d", len(passes)))
		if err != nil {
			return nil, err
		}
		lr.Problems = append(lr.Problems, problems...)
		passes = append(passes, pt)
		lastPass = since(p0)
	}
	lr.Passes = len(passes)
	sort.Slice(passes, func(i, j int) bool { return passes[i].ns[pTraced] < passes[j].ns[pTraced] })
	pt := passes[(len(passes)-1)/2]
	enqNs, untNs, dirNs := pt.ns[pTraced], pt.ns[pUntraced], pt.ns[pDirect]
	lr.Fidelity = pt.fidelity

	// Rung 3 split by operation.
	if err := c.Restore(r.cp); err != nil {
		return nil, err
	}
	readNs, writeNs, err := directDriveSplit(c.FTL(), r.reqs)
	if err != nil {
		return nil, err
	}
	dirTotal := dirNs * float64(n)
	lr.Values["ftl.page_ns"] = dirTotal / float64(pages)
	if readPages > 0 {
		lr.Values["ftl.read_page_ns"] = dirTotal * float64(readNs) / float64(readNs+writeNs) / float64(readPages)
	}
	if writePages > 0 {
		lr.Values["ftl.write_page_ns"] = dirTotal * float64(writeNs) / float64(readNs+writeNs) / float64(writePages)
	}

	lr.Values["ssd.enqueue_ns_per_req"] = enqNs
	lr.Values["ssd.self_ns_per_req"] = enqNs - dirNs
	lr.Values["ssd.result_ms"] = pt.resultMs
	lr.Values["bench.trace_overhead_pct"] = 100 * (enqNs - untNs) / untNs
	if v := lr.Values["bench.trace_overhead_pct"]; v > 15 && o.strict { // a smoke-sized pass is all noise
		lr.Problems = append(lr.Problems, fmt.Sprintf("bench.trace_overhead_pct %.1f > 15: the ladder is not trusted", v))
	}
	row := func(layer string, ns float64, part bool) {
		lr.Budget = append(lr.Budget, budgetRow{Layer: layer, NsPerReq: ns, Share: ns / enqNs, Part: part})
	}
	row("ssd.self", enqNs-dirNs, false)
	row("trace.cursor", cursorNs, true)
	if mq {
		row("ftl and below", dirNs, false)
		if err := mqPair(lr, r, cfg, p); err != nil {
			return nil, err
		}
	} else {
		ops := float64(flashOps(r.full))
		flNs, tlNs, foldNs := pt.ns[pFlash], pt.ns[pTimeline], pt.ns[pStats]
		lr.Values["ftl.self_ns_per_page"] = (dirNs - flNs) * float64(n) / float64(pages)
		lr.Values["flash.replay_ns_per_op"] = flNs * float64(n) / ops
		lr.Values["flash.self_ns_per_op"] = (flNs - tlNs) * float64(n) / ops
		lr.Values["sim.acquire_ns_per_op"] = tlNs * float64(n) / ops
		lr.Values["stats.fold_ns_per_req"] = foldNs
		lr.Values["obs.overhead_pct"] = 100 * (pt.ns[pObserved] - untNs) / untNs
		row("stats.fold", foldNs, true)
		row("ftl.self", dirNs-flNs, false)
		row("flash.self", flNs-tlNs, false)
		row("sim", tlNs, false)
	}
	lr.spans = tr.spans
	return lr, nil
}

// mqPair times the multi-queue engine as one piece (its workers run behind
// EnqueueBatch, so it cannot be driven in lock-step) right after a run of its
// sequential twin, and once more with a collector attached. All three runs
// are warm and replay the same stream.
func mqPair(lr *ladderResult, r *rig, cfg ssd.Config, p workload.Profile) error {
	c, _, err := buildWarm(cfg, p)
	if err != nil {
		return err
	}
	defer c.Close()
	cp, err := c.Snapshot()
	if err != nil {
		return err
	}
	if _, _, _, err := enqueueAll(c, r.arena); err != nil { // first-touch costs
		return err
	}
	if err := r.ctl[pUntraced].Restore(r.cp); err != nil {
		return err
	}
	seq, _, _, err := enqueueAll(r.ctl[pUntraced], r.arena)
	if err != nil {
		return err
	}
	if err := c.Restore(cp); err != nil {
		return err
	}
	wall, rw, _, err := enqueueAll(c, r.arena)
	if err != nil {
		return err
	}
	lr.Values["ssd.mq_speedup"] = float64(seq) / float64(wall)
	lr.Values["ssd.result_ms"] = ms(rw)

	if err := c.Restore(cp); err != nil {
		return err
	}
	col := obs.NewCollector(c.ObsOptions())
	c.SetRecorder(col)
	observed, _, _, err := enqueueAll(c, r.arena)
	c.SetRecorder(nil)
	if err != nil {
		return err
	}
	lr.Values["obs.overhead_pct"] = 100 * float64(observed-wall) / float64(wall)
	return col.Close()
}

// sweepLadder is the traced run of sweep_fig8. The sweep has no ladder: it
// times the calls a sweep cell makes on the Financial1 x DLOOP x 4 GB
// reference cell, and a second Fig8 over a populated warm-up cache.
func sweepLadder(o runOpts, s spec) (*ladderResult, error) {
	requests := scaled(s.n, o.scale)
	lr := &ladderResult{Workload: s.name, Seed: o.seed, N: requests, Values: values{}, Passes: 1}
	geo, err := ssd.ScaledGeometryFor(4, 2, 0.03, 3, sweepScale)
	if err != nil {
		return nil, err
	}
	cmt := 4096 * sweepScale // the SRAM cache expt scales along with the device
	cfg := ssd.Config{CapacityGB: 4, PageSizeKB: 2, ExtraPct: 0.03, FTL: ssd.SchemeDLOOP,
		Geometry: &geo, CMTEntries: int(cmt)}
	c, timing, err := buildWarm(cfg, workload.Financial1().ScaleFootprint(sweepScale))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for k, v := range timing {
		lr.Values[k] = v
	}
	cp, err := checkpointTimes(c, lr.Values)
	if err != nil {
		return nil, err
	}
	if err := codecTimes(c, cp, lr.Values); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(o.outDir, "warmup-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt := sweepOptions(o.seed, requests, nil)
	opt.WarmupCache = dir
	if _, _, err := expt.Fig8(opt); err != nil { // populates the cache
		return nil, err
	}
	t := time.Now()
	if _, _, err := expt.Fig8(opt); err != nil {
		return nil, err
	}
	lr.Values["expt.warm_cache_wall_s"] = since(t)
	return lr, nil
}

func (lr *ladderResult) print() {
	fmt.Printf("== %s  seed %d: layer ladder at N = %d, %d pass(es)\n", lr.Workload, lr.Seed, lr.N, lr.Passes)
	if len(lr.Budget) > 0 {
		fmt.Printf("  %-16s %12s %8s\n", "layer", "ns/request", "share")
		var sum float64
		for _, r := range lr.Budget {
			name := r.Layer
			if r.Part {
				name = "  of which " + name
			} else {
				sum += r.NsPerReq
			}
			fmt.Printf("  %-24s %10.1f %7.1f%%\n", name, r.NsPerReq, 100*r.Share)
		}
		fmt.Printf("  %-24s %10.1f          = ssd.enqueue_ns_per_req %.1f\n", "sum", sum, lr.Values["ssd.enqueue_ns_per_req"])
	}
	if lr.Fidelity != "" {
		fmt.Println("  residual:", lr.Fidelity)
	}
	for _, p := range lr.Problems {
		fmt.Println("  FAIL", p)
	}
}

func (lr *ladderResult) writeSpans(outDir string) error {
	if len(lr.spans) == 0 {
		return nil
	}
	data, err := json.Marshal(lr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "spans-"+lr.Workload+".json"), data, 0o644)
}
