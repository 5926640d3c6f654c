package ssd

import (
	"reflect"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// demandPagedSchemes are the two FTLs that run the pluggable translation
// engine; the other three map without demand paging and reject non-default
// policies at Build.
var demandPagedSchemes = []string{SchemeDLOOP, SchemeDFTL}

// translatePoliciesUnderTest is every selectable policy plus the empty
// default, which must behave exactly like explicit "slru".
var translatePoliciesUnderTest = []string{"", "slru", "lru", "learned"}

// tinySeqWorkload is tinyWorkload's sequential sibling: a pure write stream
// that sweeps the footprint in order, the pattern that trains the learned
// index and (on wrap-around) rewards it with predictable mappings.
func tinySeqWorkload(t *testing.T, c *Controller, n int, seed int64) []trace.Request {
	t.Helper()
	capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
	p := workload.Profile{
		Name:           "tinyseq",
		WriteRatio:     1.0,
		Sizes:          []workload.SizeWeight{{Sectors: 4, Weight: 1}},
		RatePerSec:     2000,
		FootprintBytes: capBytes * 3 / 4,
		SeqProb:        0.99,
		AlignSectors:   4,
	}
	reqs, err := workload.Generate(p, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// learnedSegmentCounter is the scheme-level view into the learned index that
// DLOOP and DFTL both export.
type learnedSegmentCounter interface {
	LearnedSegments() int
	TranslatePolicyName() string
}

// TestTranslatePolicyDifferential is the randomized differential suite for
// the translation engine at the controller level: for both demand-paged
// schemes and several workload seeds, every policy replays the same trace. The empty default must be bit-identical
// to explicit "slru" (the pre-refactor behavior the golden suite pins), and
// all policies — whatever they charge for translation traffic — must expose
// the same logical state: the identical set of mapped LPNs, each stored valid
// under its own OOB tag.
func TestTranslatePolicyDifferential(t *testing.T) {
	for _, scheme := range demandPagedSchemes {
		t.Run(scheme+"/seq", func(t *testing.T) {
			for _, seed := range []int64{1, 37, 101} {
				results := make(map[string]Result)
				mappings := make(map[string][]flash.PPN)
				for _, pol := range translatePoliciesUnderTest {
					cfg := tinyConfig(scheme)
					cfg.TranslatePolicy = pol
					c, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					preconditionTiny(t, c)
					res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, seed)))
					if err != nil {
						t.Fatalf("%s policy %q: %v", scheme, pol, err)
					}
					checkMappingConsistency(t, c)
					results[pol] = res
					tbl := make([]flash.PPN, c.FTL().Capacity())
					for lpn := range tbl {
						tbl[lpn] = lookupAny(t, c, ftl.LPN(lpn))
					}
					mappings[pol] = tbl
					c.Close()
				}
				if !reflect.DeepEqual(results[""], results["slru"]) {
					t.Fatalf("seed %d: default policy diverged from explicit slru:\n got %+v\nwant %+v",
						seed, results[""], results["slru"])
				}
				// Identical workload, identical writes: whatever each
				// policy paid in translation traffic, the mapped set is
				// the same, and slru/default place bit-identically.
				for _, pol := range translatePoliciesUnderTest[1:] {
					for lpn, want := range mappings[""] {
						got := mappings[pol][lpn]
						if (got == flash.InvalidPPN) != (want == flash.InvalidPPN) {
							t.Fatalf("seed %d policy %q: lpn %d mapped=%v, default mapped=%v",
								seed, pol, lpn, got != flash.InvalidPPN, want != flash.InvalidPPN)
						}
					}
				}
				if !reflect.DeepEqual(mappings[""], mappings["slru"]) {
					t.Fatalf("seed %d: slru mapping table diverged from default", seed)
				}
				if results["learned"].TransReads > results["slru"].TransReads {
					t.Logf("seed %d %s: learned TransReads %d > slru %d (random workload; allowed)",
						seed, scheme, results["learned"].TransReads, results["slru"].TransReads)
				}
			}
		})
	}
}

// TestTranslatePolicyMQDifferential runs the same cross-policy logical check
// through the multi-queue front end: 2 FTL shards on the 8-channel shape,
// each shard running its own translation engine.
func TestTranslatePolicyMQDifferential(t *testing.T) {
	for _, scheme := range demandPagedSchemes {
		t.Run(scheme, func(t *testing.T) {
			mapped := make(map[string][]bool)
			for _, pol := range translatePoliciesUnderTest {
				cfg := mqConfig(scheme, tiny8Geometry(), 2)
				cfg.TranslatePolicy = pol
				c := buildMQ(t, cfg)
				preconditionTiny(t, c)
				if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 7))); err != nil {
					t.Fatalf("policy %q: %v", pol, err)
				}
				set := make([]bool, c.Capacity())
				for lpn := range set {
					set[lpn] = lookupMQ(t, c, ftl.LPN(lpn)) != flash.InvalidPPN
				}
				mapped[pol] = set
			}
			for _, pol := range translatePoliciesUnderTest[1:] {
				if !reflect.DeepEqual(mapped[pol], mapped[""]) {
					t.Fatalf("policy %q maps a different LPN set than the default", pol)
				}
			}
		})
	}
}

// TestTranslateForkBitIdenticalLearned extends the checkpoint/fork
// acceptance test to the learned policy's extra state: a run forked from a
// warm checkpoint — learned segments included — must be bit-identical to an
// uninterrupted fresh run, and the checkpoint must survive repeated restores.
func TestTranslateForkBitIdenticalLearned(t *testing.T) {
	for _, scheme := range demandPagedSchemes {
		t.Run(scheme, func(t *testing.T) {
			build := func() *Controller {
				cfg := tinyConfig(scheme)
				cfg.TranslatePolicy = "learned"
				c, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				preconditionTiny(t, c)
				return c
			}
			fresh := build()
			w1 := tinySeqWorkload(t, fresh, 2000, 21)
			w2 := tinyWorkload(t, fresh, 1500, 22)
			want1, err := fresh.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}
			if want1.LearnedHits == 0 {
				t.Fatal("sequential workload produced no learned hits; the fork covers no learned state")
			}

			fresh2 := build()
			want2, err := fresh2.Run(trace.NewSliceReader(w2))
			if err != nil {
				t.Fatal(err)
			}

			c := build()
			cp, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got1, err := c.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got1, want1) {
				t.Fatalf("run after snapshot differs from fresh run:\n got %+v\nwant %+v", got1, want1)
			}
			if err := c.Restore(cp); err != nil {
				t.Fatal(err)
			}
			got2, err := c.Run(trace.NewSliceReader(w2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got2, want2) {
				t.Fatalf("forked run differs from fresh run:\n got %+v\nwant %+v", got2, want2)
			}
			// The first fork ran 2000 sequential requests off the checkpoint,
			// mutating segments heavily; a second restore must still replay w1
			// exactly, or the snapshot aliased live learned state.
			if err := c.Restore(cp); err != nil {
				t.Fatal(err)
			}
			again, err := c.Run(trace.NewSliceReader(w1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want1) {
				t.Fatalf("second fork differs from fresh run:\n got %+v\nwant %+v", again, want1)
			}
		})
	}
}

// TestTranslateRecoveryRetrainsLearned checks the crash contract of the
// learned index: it lives in SRAM, so recovery drops it (the OOB scan
// rebuilds only the table and GTD) and the index retrains lazily as
// translation-page write-backs resume.
func TestTranslateRecoveryRetrainsLearned(t *testing.T) {
	for _, scheme := range demandPagedSchemes {
		t.Run(scheme, func(t *testing.T) {
			cfg := tinyConfig(scheme)
			cfg.TranslatePolicy = "learned"
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			preconditionTiny(t, c)
			if _, err := c.Run(trace.NewSliceReader(tinySeqWorkload(t, c, 2000, 5))); err != nil {
				t.Fatal(err)
			}
			lc, ok := c.FTL().(learnedSegmentCounter)
			if !ok {
				t.Fatalf("%s does not expose its learned segments", scheme)
			}
			if lc.LearnedSegments() == 0 {
				t.Fatal("sequential workload trained no segments; the crash state is trivial")
			}

			r, err := c.Recover()
			if err != nil {
				t.Fatal(err)
			}
			rc := r.FTL().(learnedSegmentCounter)
			if got := rc.TranslatePolicyName(); got != "learned" {
				t.Fatalf("recovered policy %q, want learned", got)
			}
			if got := rc.LearnedSegments(); got != 0 {
				t.Fatalf("recovery kept %d learned segments; SRAM state must not survive power loss", got)
			}
			for lpn := ftl.LPN(0); lpn < c.FTL().Capacity(); lpn++ {
				if got, want := lookupAny(t, r, lpn), lookupAny(t, c, lpn); got != want {
					t.Fatalf("lpn %d recovered %d want %d", lpn, got, want)
				}
			}

			// Write-backs during fresh traffic retrain the index from scratch
			// and predictions start landing again.
			res, err := r.Run(trace.NewSliceReader(tinySeqWorkload(t, r, 2000, 6)))
			if err != nil {
				t.Fatalf("post-recovery: %v", err)
			}
			if rc.LearnedSegments() == 0 {
				t.Fatal("learned index never retrained after recovery")
			}
			if res.LearnedHits == 0 {
				t.Fatal("no learned hits after recovery; retraining is dead weight")
			}
			checkMappingConsistency(t, r)
		})
	}
}

// TestTranslateBuildRejections pins the Config validation: non-default
// policies demand a demand-paged scheme, unknown policies fail, and explicit
// CMT sizes outside [2, logical space] fail.
func TestTranslateBuildRejections(t *testing.T) {
	cfg := tinyConfig(SchemeFAST)
	cfg.TranslatePolicy = "learned"
	if _, err := Build(cfg); err == nil {
		t.Fatal("learned policy on FAST accepted")
	}
	cfg = tinyConfig(SchemeDLOOP)
	cfg.TranslatePolicy = "bogus"
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
	cfg = tinyConfig(SchemeDLOOP)
	cfg.CMTEntries = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("CMTEntries 1 accepted")
	}
	cfg = tinyConfig(SchemeDLOOP)
	cfg.CMTEntries = 1 << 30
	if _, err := Build(cfg); err == nil {
		t.Fatal("CMTEntries beyond the logical space accepted")
	}
	cfg = tinyConfig(SchemeDFTL)
	cfg.TranslatePolicy = "lru"
	c, err := Build(cfg)
	if err != nil {
		t.Fatalf("lru on DFTL rejected: %v", err)
	}
	if got := c.FTL().(learnedSegmentCounter).TranslatePolicyName(); got != "lru" {
		t.Fatalf("policy %q in effect, want lru", got)
	}
}
