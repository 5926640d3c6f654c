package ssd

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/trace"
)

// columnConfigs are the configurations whose columns the tests below count:
// every scheme on the tiny device, and DLOOP over two FTL shards.
func columnConfigs() []Config {
	var cfgs []Config
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped} {
		cfgs = append(cfgs, tinyConfig(scheme))
	}
	return append(cfgs, mqConfig(SchemeDLOOP, tiny8Geometry(), 2))
}

// failEach calls op with the (k+1)th column failing, for k = 0, 1, ...,
// until op succeeds. Each failure must be ErrColumnMap and leave exactly the
// columns live that were live before; the success is handed to done.
func failEach[T any](t *testing.T, what string, op func() (T, error), done func(T)) {
	t.Helper()
	live := flash.LiveColumns()
	for k := 0; ; k++ {
		withdraw := flash.FailColumnAfter(k)
		v, err := op()
		withdraw()
		if err == nil {
			if k == 0 {
				t.Fatalf("%s makes no column", what)
			}
			done(v)
			return
		}
		if !errors.Is(err, flash.ErrColumnMap) {
			t.Fatalf("%s with column %d failing: %v, want flash.ErrColumnMap", what, k, err)
		}
		if got := flash.LiveColumns(); got != live {
			t.Fatalf("%s with column %d failing left %d columns live", what, k, got-live)
		}
	}
}

// TestBuildColumnFault fails each column Build and Recover make, in turn,
// for every scheme and for two FTL shards: each must return a typed error
// (flash.ErrColumnMap) and release every column it made before the failure.
// A Recover that fails leaves the crashed controller able to recover again.
func TestBuildColumnFault(t *testing.T) {
	for _, cfg := range columnConfigs() {
		live := flash.LiveColumns()
		var c *Controller
		failEach(t, cfg.FTL+" Build", func() (*Controller, error) { return Build(cfg) }, func(b *Controller) { c = b })
		preconditionTiny(t, c)
		failEach(t, cfg.FTL+" Recover", c.Recover, func(nc *Controller) { nc.Close() })
		c.Close()
		if got := flash.LiveColumns(); got != live {
			t.Fatalf("%s: %d columns live after Close", cfg.FTL, got-live)
		}
	}
}

// TestCloseDropsColumns runs every scheme, closes it, and checks that every
// column its devices and FTLs made (page words, block rows, erase counts,
// mapping tables, free pools, victim indexes, FAST's block and log maps) is
// released, and that a request on the closed controller panics with an
// index error rather than reading freed memory.
func TestCloseDropsColumns(t *testing.T) {
	for _, cfg := range columnConfigs() {
		live := flash.LiveColumns()
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		reqs := tinyWorkload(t, c, 400, 3)
		if _, err := c.Run(trace.NewSliceReader(reqs)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		c.Close() // a second Close does nothing
		if got := flash.LiveColumns(); got != live {
			t.Fatalf("%s: %d columns live after Close", cfg.FTL, got-live)
		}
		w := reqs[0]
		w.Op = trace.OpWrite
		mustPanic(t, cfg.FTL+": a write on a closed controller", func() { c.Serve(w) })
		w.Op = trace.OpRead
		mustPanic(t, cfg.FTL+": a read on a closed controller", func() { c.Serve(w) })
	}
}

// mustPanic checks that fn panics with an index error, as a use of a
// released column does.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if err, ok := recover().(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s recovered %v, want an index error", what, err)
		}
	}()
	fn()
}
