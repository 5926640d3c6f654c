package workload

import (
	"fmt"
	"io"
	"sync"

	"dloop/internal/trace"
)

// materializedCache memoizes MaterializeArena so each (profile, seed, n)
// stream is generated exactly once per process. Sweeps replay the same
// synthetic stream across many configurations; with the cache they share one
// generation pass and one packed arena instead of paying both per cell. The
// cache is never evicted — entries are 4.4–6 bytes per request (the
// arena's blocks and their headers; DESIGN §3.2 has the table per profile)
// and a sweep touches only a handful of
// (profile, seed) combinations — so a whole experiment suite stays within a
// few tens of megabytes.
var materializedCache sync.Map // string -> *materializedEntry

type materializedEntry struct {
	once sync.Once
	a    *trace.Arena
	err  error
}

// MaterializeArena generates the first n requests of the (p, seed) stream
// into an immutable packed trace.Arena. Equal (profile, seed, n) calls —
// including concurrent ones — return the same shared Arena; callers replay it
// read-only through their own cursors. The stream is identical to n calls of
// Generator.Next on a fresh generator. The generator feeds trace.BuildArena
// directly, so the arena is allocated once at its final size and no
// request slice is built on the way.
func MaterializeArena(p Profile, seed int64, n int) (*trace.Arena, error) {
	key := fmt.Sprintf("%+v|%d|%d", p, seed, n)
	v, _ := materializedCache.LoadOrStore(key, &materializedEntry{})
	e := v.(*materializedEntry)
	e.once.Do(func() {
		g, err := NewGenerator(p, seed)
		if err != nil {
			e.err = err
			return
		}
		e.a, e.err = trace.BuildArena(NewLimitReader(g, n))
	})
	return e.a, e.err
}

// LimitReader is a trace.Reader over the next n requests of a generator's
// stream, like io.LimitReader over bytes. Its SizeHint is exact, so
// trace.BuildArena sizes the arena once.
type LimitReader struct {
	g    *Generator
	left int
}

// NewLimitReader returns a reader that stops with io.EOF after the next n
// requests of g.
func NewLimitReader(g *Generator, n int) *LimitReader { return &LimitReader{g: g, left: n} }

// Next implements trace.Reader, returning io.EOF once n requests have been
// produced.
func (r *LimitReader) Next() (trace.Request, error) {
	if r.left <= 0 {
		return trace.Request{}, io.EOF
	}
	r.left--
	return r.g.Next()
}

// SizeHint reports how many requests remain.
func (r *LimitReader) SizeHint() int { return r.left }
