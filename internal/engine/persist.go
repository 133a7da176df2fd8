// Checkpointing: SaveState/LoadState serialise the engine's incremental
// store through incremental.Store.Save/Load, so a killed process restores
// the exact gathering state it had and resumes the stream from its WAL
// (see internal/recovery for the file-level protocol around these).

package engine

import (
	"fmt"
	"io"

	"repro/internal/incremental"
)

// SaveState writes the incremental store to w. Call it on a quiescent
// engine — Flush first, no concurrent appends — so the state matches a
// whole number of batches; concurrent queries are fine (the store is
// read-locked). A quarantined store has no trustworthy state to save:
// SaveState refuses rather than persist a poisoned store.
func (e *Engine) SaveState(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.quarantined {
		return fmt.Errorf("engine: store is quarantined; refusing to checkpoint a poisoned store")
	}
	if err := e.store.Save(w); err != nil {
		return fmt.Errorf("engine: saving store: %w", err)
	}
	return nil
}

// LoadState restores a store written by SaveState, replacing the engine's
// current store and clearing any quarantine. The pipeline thresholds must
// match the saving engine's — recall depends on identical thresholds, so
// a mismatch is an error, not a guess. Call it before ingestion starts
// (it is how a restarted server resumes); loading over a store that
// already took appends loses those appends. A checkpoint that fails to
// decode leaves the engine unchanged.
func (e *Engine) LoadState(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, err := incremental.Load(r, e.cfg.Pipeline.SearcherFactory())
	if err != nil {
		return fmt.Errorf("engine: loading store: %w", err)
	}
	cp, gp := e.store.Params()
	if scp, sgp := st.Params(); scp != cp || sgp != gp {
		return fmt.Errorf("engine: checkpoint was built with params %+v/%+v, engine wants %+v/%+v — restore with the same thresholds",
			scp, sgp, cp, gp)
	}
	e.store, e.quarantined = st, false
	e.ticks.Store(int64(st.Ticks()))
	return nil
}
