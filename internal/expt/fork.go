package expt

import (
	"fmt"

	"dloop/internal/ssd"
)

// groupJobs partitions a sweep into warm-up groups — cells whose WarmupKey
// matches share one warm-up prefix — preserving submission order within each
// group. With NoFork every job is its own group.
func groupJobs(jobs []job, opt Options) [][]job {
	if opt.NoFork {
		out := make([][]job, len(jobs))
		for i, j := range jobs {
			out[i] = []job{j}
		}
		return out
	}
	idx := make(map[string]int)
	var out [][]job
	for _, j := range jobs {
		k := WarmupKey(j.cfg, j.profile.FootprintBytes)
		if i, ok := idx[k]; ok {
			out[i] = append(out[i], j)
		} else {
			idx[k] = len(out)
			out = append(out, []job{j})
		}
	}
	return out
}

// task is one unit of worker-pool work: either a whole warm-up group (load or
// simulate the warm-up, run the lead cell, fan the rest out) or one forked
// cell restoring a group's shared checkpoint.
type task struct {
	group []job
	cell  job
	fork  *forkGroup
}

// forkGroup is the shared, immutable fork source for one group's re-enqueued
// cells. Restore only reads cp's bytes, so any number of workers fork from
// the same checkpoint concurrently.
type forkGroup struct {
	key string
	cfg ssd.Config
	cp  *ssd.Checkpoint
}

// workerState caches one built controller per worker goroutine, keyed by
// WarmupKey. Consecutive fork cells of the same group landing on the same
// worker skip ssd.Build — a restore into the cached controller reuses every
// slab the previous cell allocated — which is where most of the fork path's
// allocations go away.
type workerState struct {
	key string
	c   *ssd.Controller
}

func (ws *workerState) set(key string, c *ssd.Controller) {
	if ws.c != nil && ws.c != c {
		ws.c.Close()
	}
	ws.key, ws.c = key, c
}

func (ws *workerState) close() {
	if ws.c != nil {
		ws.c.Close()
		ws.c = nil
		ws.key = ""
	}
}

// sweepCtx carries one runAll invocation's shared plumbing to the tasks.
type sweepCtx struct {
	opt     Options
	cache   *WarmupCache
	stats   *SweepStats
	emit    func(job, ssd.Result)
	fail    func(error)
	stopped func() bool
	enqueue func(task)
}

// runGroupTask executes one warm-up group. A singleton group with no cache
// runs as a plain fresh cell. Otherwise the group's warm-up state comes from
// the persistent cache when it can (decode + restore instead of simulating
// the prefix) and from one fresh warm-up otherwise, which is then published
// to the cache. Every remaining cell of the group re-enqueues to the worker
// pool as a fork task before the lead cell runs, so idle workers fork from
// the shared checkpoint concurrently instead of the group running serially on
// one worker. Forked, cached, and fresh runs are bit-identical (see
// TestForkMatchesNoFork and TestCachedSweepMatchesNoFork).
func runGroupTask(sc *sweepCtx, ws *workerState, g []job) {
	if sc.opt.NoFork || (len(g) == 1 && !sc.cache.enabled()) {
		for _, j := range g {
			if sc.stopped() {
				return
			}
			res, err := runJob(j, sc.opt)
			if err != nil {
				sc.fail(err)
				return
			}
			sc.stats.noteFresh()
			sc.emit(j, res)
		}
		return
	}
	if sc.stopped() {
		return
	}
	lead := g[0]
	key := WarmupKey(lead.cfg, lead.profile.FootprintBytes)
	c, cp, err := sc.cache.load(lead.cfg, key)
	if err != nil {
		sc.fail(err)
		return
	}
	hit := c != nil
	if !hit {
		c, err = buildWarm(lead.cfg, lead.profile)
		if err != nil {
			sc.fail(err)
			return
		}
		sc.stats.noteWarmup()
		if cp, err = c.Snapshot(); err != nil {
			c.Close()
			sc.fail(err)
			return
		}
		sc.cache.store(key, cp)
	}
	// Park the warm controller in the worker's cache: fork cells of this
	// group landing back here restore into it instead of rebuilding.
	ws.set(key, c)
	fg := &forkGroup{key: key, cfg: lead.cfg, cp: cp}
	for _, j := range g[1:] {
		sc.enqueue(task{cell: j, fork: fg})
	}
	res, err := runCell(lead, sc.opt, c)
	if err != nil {
		sc.fail(err)
		return
	}
	if hit {
		sc.stats.noteForked()
	} else {
		sc.stats.noteFresh()
	}
	sc.emit(lead, res)
}

// runForkTask executes one forked cell: restore the group's shared checkpoint
// into this worker's controller (rebuilding only if the worker last served a
// different configuration) and replay the measured window.
func runForkTask(sc *sweepCtx, ws *workerState, t task) {
	if sc.stopped() {
		return
	}
	fg := t.fork
	if ws.c == nil || ws.key != fg.key {
		c, err := ssd.Build(fg.cfg)
		if err != nil {
			sc.fail(fmt.Errorf("expt: build %s: %w", fg.cfg.FTL, err))
			return
		}
		ws.set(fg.key, c)
	}
	if err := ws.c.Restore(fg.cp); err != nil {
		sc.fail(fmt.Errorf("expt: restore %s/%s: %w", t.cell.cfg.FTL, t.cell.profile.Name, err))
		return
	}
	res, err := runCell(t.cell, sc.opt, ws.c)
	if err != nil {
		sc.fail(err)
		return
	}
	sc.stats.noteForked()
	sc.emit(t.cell, res)
}
