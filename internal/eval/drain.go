// The queued drain: how RunCellsStored executes a sweep through its
// Queue. The drain assumes other workers (processes, machines) may be
// consuming the same cell set concurrently, so every cell is leased
// before it runs and cells held by someone else are deferred rather
// than duplicated. A lone worker is simply the uncontended case: its
// finished cells persist, so an interrupted sweep resumes per cell.
package eval

import (
	"errors"
	"fmt"
	"time"
)

// CellCodec serializes one cell result for a Queue.
type CellCodec[R any] struct {
	Encode func(R) ([]byte, error)
	Decode func([]byte) (R, error)
}

// RunCellsStored is RunCells through a cell store: a cell whose key is
// already stored decodes instead of running, and a freshly-run cell is
// recorded before it is returned. A nil store degrades to plain
// RunCells.
//
// The drain runs in two phases. Phase 1 is one parallel pass over every
// cell: load-or-lease-and-run, with cells another worker holds marked
// deferred instead of waited on (blocking a pool worker on a busy cell
// would serialize the fleet behind its slowest member). Phase 2 polls
// the deferred cells — by then the only cells left are in other
// workers' hands, so waiting is all there is to do — until every result
// is in. Results come back in input order, and because cells are
// deterministic functions of their key, the returned slice is identical
// no matter how the fleet split the work.
func RunCellsStored[C, R any](workers int, q Queue, key func(int, C) string,
	codec CellCodec[R], cells []C, run func(C) (R, error)) ([]R, error) {
	if q == nil {
		return RunCells(workers, cells, run)
	}
	n := len(cells)
	results := make([]R, n)
	done := make([]bool, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if _, err := RunCells(workers, idx, func(i int) (struct{}, error) {
		r, ok, err := tryCell(q, key(i, cells[i]), codec, cells[i], run)
		if err != nil {
			return struct{}{}, err
		}
		if ok {
			results[i], done[i] = r, true
		}
		return struct{}{}, nil
	}); err != nil {
		return results, err
	}
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		k := key(i, cells[i])
		for {
			r, ok, err := tryCell(q, k, codec, cells[i], run)
			if err != nil {
				return results, fmt.Errorf("cell %d of %d: %w", i+1, n, err)
			}
			if ok {
				results[i] = r
				break
			}
			time.Sleep(q.PollInterval())
		}
	}
	return results, nil
}

// tryCell resolves one cell against the queue: a stored result decodes
// and returns; a corrupt stored result is quarantined and the cell
// retried; an unclaimed cell is leased, run, and completed (runLeased);
// a cell held by a live worker reports ok=false so the caller can defer
// it.
func tryCell[C, R any](q Queue, k string, codec CellCodec[R], c C,
	run func(C) (R, error)) (R, bool, error) {
	var zero R
	for {
		if data, ok, err := q.Load(k); err != nil {
			return zero, false, err
		} else if ok {
			r, derr := codec.Decode(data)
			if derr == nil {
				return r, true, nil
			}
			if qerr := q.Quarantine(k); qerr != nil {
				return zero, false, qerr
			}
			continue
		}
		l, err := q.TryLease(k)
		if err != nil {
			return zero, false, err
		}
		if l == nil {
			// Completed or busy; a re-load disambiguates. Completed loops
			// back to the decode above, busy defers to the caller.
			if _, ok, err := q.Load(k); err != nil {
				return zero, false, err
			} else if ok {
				continue
			}
			return zero, false, nil
		}
		r, err := runLeased(q, l, k, codec, c, run)
		return r, err == nil, err
	}
}

// runLeased runs a leased cell and records it. Whatever else happens — a
// failed run, encode or write, or a panic — the lease is released, so a
// failed drain never leaves a cell claimed until its lease TTL runs out.
// A completion that loses its lease (ErrLeaseLost) still returns this
// worker's result: the cell is recorded either way (see Complete).
func runLeased[C, R any](q Queue, l *Lease, k string, codec CellCodec[R], c C,
	run func(C) (R, error)) (r R, err error) {
	recorded := false
	defer func() {
		if !recorded {
			err = errors.Join(err, q.Release(l))
		}
	}()
	if r, err = run(c); err != nil {
		return r, err
	}
	data, err := codec.Encode(r)
	if err != nil {
		return r, fmt.Errorf("eval: encode cell %s: %w", k, err)
	}
	err = q.Complete(l, data)
	recorded = err == nil || errors.Is(err, ErrLeaseLost)
	if recorded {
		err = nil
	}
	return r, err
}
