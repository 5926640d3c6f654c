package ssd

import (
	"reflect"
	"testing"

	"dloop/internal/obs"
	"dloop/internal/trace"
)

// countConfigs are the layouts whose counters Result and the collector
// both read: every scheme, the learned translation policy and two FTL
// shards.
func countConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, scheme := range Schemes() {
		cfgs[scheme] = tinyConfig(scheme)
	}
	learned := tinyConfig(SchemeDLOOP)
	learned.TranslatePolicy = "learned"
	cfgs["DLOOP learned"] = learned
	sharded := tinyConfig(SchemeDLOOP)
	sharded.FTLShards = 2
	cfgs["DLOOP 2 shards"] = sharded
	return cfgs
}

// observedRun builds cfg, attaches a collector (before the warm-up when
// early), preconditions, runs n requests of seed and closes the collector.
func observedRun(t *testing.T, cfg Config, early bool, n int, seed int64) (Result, obs.RegistrySnapshot) {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	col := obs.NewCollector(c.ObsOptions())
	attach := func() {
		if err := c.SetRecorder(col); err != nil {
			t.Fatal(err)
		}
	}
	if early {
		attach()
	}
	preconditionTiny(t, c)
	if !early {
		attach()
	}
	res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, n, seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return res, col.Registry().Snapshot()
}

// TestResultCountsMatchFamilies: with the collector attached from build,
// its window and Result's are the same, so every counter Result reports
// equals its family, the hit rate included: both read the FTLs' one Counts.
// The device counts the GC moves and the parity waste, from its last
// statistics reset, so those families equal Result's whether the collector
// attaches before or after the warm-up.
func TestResultCountsMatchFamilies(t *testing.T) {
	for name, cfg := range countConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, early := range []bool{true, false} {
				res, snap := observedRun(t, cfg, early, 3000, 7)
				if res.GCRuns == 0 && res.FullMerges == 0 {
					t.Fatal("the run neither collected nor merged; the comparison is vacuous")
				}
				families := map[string]int64{
					"flash.copyback.gc": res.GCCopyBacks,
					"flash.write.gc":    res.GCExternalMoves,
					"gc.parity_waste":   res.WastedPages,
				}
				if early {
					for family, got := range map[string]int64{
						"map.trans_reads":  res.TransReads,
						"map.trans_writes": res.TransWrites,
						"map.learned_hits": res.LearnedHits,
						"gc.runs":          res.GCRuns,
						"merge.switch":     res.SwitchMerges,
						"merge.partial":    res.PartialMerges,
						"merge.full":       res.FullMerges,
						"merge.copies":     res.MergeCopies,
					} {
						families[family] = got
					}
					if got := snap.Gauges["cmt.hitrate"]; res.CMTHitRate != got {
						t.Errorf("Result.CMTHitRate %v, cmt.hitrate %v", res.CMTHitRate, got)
					}
				}
				for family, got := range families {
					if got != snap.Counters[family] {
						t.Errorf("attached early %v: Result reports %d, family %s reads %d", early, got, family, snap.Counters[family])
					}
				}
			}
		})
	}
}

// TestRestoredCountsMatchFresh runs another cell on a controller, restores
// a checkpoint onto it and runs the checkpoint's cell: its families and
// Result equal a fresh controller's, and the counts the checkpoint does not
// carry restart from zero, as on a controller that never ran.
func TestRestoredCountsMatchFresh(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeFAST} {
		t.Run(scheme, func(t *testing.T) {
			cfg := tinyConfig(scheme)
			fresh, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			preconditionTiny(t, fresh)
			cp, err := fresh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			wantRes, want := observedRun(t, cfg, false, 3000, 7)

			reused := buildTiny(t, scheme)
			preconditionTiny(t, reused)
			if _, err := reused.Run(trace.NewSliceReader(tinyWorkload(t, reused, 3000, 9))); err != nil {
				t.Fatal(err)
			}
			if err := reused.Restore(cp); err != nil {
				t.Fatal(err)
			}
			blank := buildTiny(t, scheme)
			if err := blank.Restore(cp); err != nil {
				t.Fatal(err)
			}
			if got, want := reused.FTL().Counts(), blank.FTL().Counts(); got != want {
				t.Fatalf("counts after restoring over a run %v, over a blank controller %v", got, want)
			}
			col := obs.NewCollector(reused.ObsOptions())
			if err := reused.SetRecorder(col); err != nil {
				t.Fatal(err)
			}
			res, err := reused.Run(trace.NewSliceReader(tinyWorkload(t, reused, 3000, 7)))
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			fam := col.Registry().Snapshot().Counters
			for e := obs.EventKind(0); e < obs.NumEventKinds; e++ {
				if fam[e.String()] != want.Counters[e.String()] {
					t.Errorf("%v: restored run %d, fresh run %d", e, fam[e.String()], want.Counters[e.String()])
				}
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("restored Result %+v, fresh %+v", res, wantRes)
			}
		})
	}
}
