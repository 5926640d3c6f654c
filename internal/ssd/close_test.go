//go:build linux && !race

package ssd

import (
	"bytes"
	"os"
	"runtime/debug"
	"strconv"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// vmRSS reads the process's resident set size, in bytes, after returning
// the Go heap's free memory to the OS, so only live memory counts.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	debug.FreeOSMemory()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// TestCloseReturnsColumns checks that Close gives a controller's columns
// (page words, mapping table, per-block state) back to the OS at once. Eight 16 GB DLOOP controllers
// (32 MB columns, mapped outside the heap) each fill a 1 GiB footprint, run
// 4,000 requests and are closed; the last stays referenced. Memory must come
// back to where it started. Heap columns would fail this: every controller
// but the first is built over recycled heap memory that the runtime zeroes,
// and so touches, and the last one's stay live. Using the closed
// controller, its device or its FTL must panic with an index error.
func TestCloseReturnsColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight 16 GB controllers")
	}
	p := workload.Financial1()
	p.FootprintBytes = 1 << 30
	reqs, err := workload.Generate(p, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	before := vmRSS(t)
	var last *Controller
	for range 8 {
		c, err := Build(Config{CapacityGB: 16, FTL: SchemeDLOOP})
		if err != nil {
			t.Fatal(err)
		}
		last = c
		func() {
			defer c.Close()
			if err := c.PreconditionBytes(p.FootprintBytes); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(trace.NewSliceReader(reqs)); err != nil {
				t.Fatal(err)
			}
		}()
	}
	// A quarter of a page column. Per-block state (block rows, erase counts,
	// tracker, pool) is in columns too, so Close returns it with the pages;
	// what stays is per-plane and per-bus state and the heap's own slack,
	// about 2 MB.
	const slackMB = 8
	grew := float64(vmRSS(t)-before) / (1 << 20)
	t.Logf("resident memory grew by %.1f MB", grew)
	if grew > slackMB {
		t.Errorf("resident memory grew by %.1f MB over eight closed controllers, want at most %d MB", grew, slackMB)
	}
	last.Close() // a second Close does nothing
	sh := last.shards[0]
	mustPanic(t, "a request on a closed controller", func() { last.Serve(reqs[0]) })
	mustPanic(t, "a page read on a closed controller's device", func() { sh.dev.PageState(0) })
	mustPanic(t, "a block query on a closed controller's device", func() { sh.dev.Block(flash.PlaneBlock{}) })
	mustPanic(t, "a lookup on a closed controller's FTL", func() { lookup(t, sh.f, 0) })
}
