package gc

import "dloop/internal/ckpt"

// EncodeState appends the engine's reentrancy guards and counters to w. The
// tracker is scheme-owned state and is encoded by the scheme.
func (e *Engine) EncodeState(w *ckpt.Writer) {
	w.Int(e.depth)
	w.Bools(e.collecting)
	w.I64(e.stats.Runs)
}

// DecodeState overwrites the engine's guards and counters with what
// EncodeState wrote.
func (e *Engine) DecodeState(r *ckpt.Reader) {
	e.depth = r.Int()
	r.BoolsInto(e.collecting)
	e.stats = Stats{Runs: r.I64()}
}
