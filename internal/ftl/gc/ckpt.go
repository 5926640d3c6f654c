package gc

import "dloop/internal/ckpt"

// EncodeState appends the engine's reentrancy guards and counters to w. The
// tracker is scheme-owned state and is encoded by the scheme.
func (e *Engine) EncodeState(w *ckpt.Writer) {
	w.Int(e.depth)
	w.Bools(e.collecting)
	w.I64(e.stats.Runs)
	w.I64(e.stats.Moves)
	w.I64(e.stats.CopyBacks)
	w.I64(e.stats.External)
	w.I64(e.stats.ParityWaste)
}

// DecodeState overwrites the engine's guards and counters with what
// EncodeState wrote.
func (e *Engine) DecodeState(r *ckpt.Reader) {
	e.depth = r.Int()
	r.BoolsInto(e.collecting)
	e.stats = Stats{
		Runs:        r.I64(),
		Moves:       r.I64(),
		CopyBacks:   r.I64(),
		External:    r.I64(),
		ParityWaste: r.I64(),
	}
}
