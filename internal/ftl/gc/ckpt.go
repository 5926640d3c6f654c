package gc

import "dloop/internal/ckpt"

// EncodeState appends the engine's run count to w. The reentrancy guards are
// not written: they are zero outside a collection, so at every checkpoint.
// The tracker is scheme-owned state and is encoded by the scheme.
func (e *Engine) EncodeState(w *ckpt.Writer) {
	w.I64(e.stats.Runs)
}

// DecodeState overwrites the engine's run count with what EncodeState wrote.
func (e *Engine) DecodeState(r *ckpt.Reader) {
	e.stats = Stats{Runs: r.I64()}
}
