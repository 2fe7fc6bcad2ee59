// Parallel sweep execution. Every experiment in this package is a sweep
// of independent, independently-seeded simulation rounds; RunCells fans
// them across a bounded worker pool while keeping results in cell order,
// so parallel sweeps are bit-identical to sequential ones.
package eval

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nwade/internal/sim"
)

// RunCells executes run over every cell with at most workers concurrent
// invocations (workers <= 0 means GOMAXPROCS) and returns the results in
// input order.
//
// Determinism contract: run must derive all randomness from its cell (the
// experiment generators seed each round as BaseSeed plus a per-cell
// offset), and shared state must be read-only or internally synchronized
// (the shared chain.Signer is safe: RSA-PKCS#1v1.5 signing is
// deterministic and the precomputed key is never mutated). Under that
// contract the result slice — and everything aggregated from it in order
// — is identical for any worker count.
//
// Errors and panics are captured per cell; the first failing cell in
// input order decides the returned error, independent of scheduling.
func RunCells[C, R any](workers int, cells []C, run func(C) (R, error)) ([]R, error) {
	n := len(cells)
	results := make([]R, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Goroutine-free fast path; also the reference ordering the
		// parallel path must reproduce.
		for i, c := range cells {
			results[i], errs[i] = runCell(run, c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = runCell(run, cells[i])
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("cell %d of %d: %w", i+1, n, err)
		}
	}
	return results, nil
}

// CellPanicError is a panic recovered inside one sweep cell. It carries
// the cell spec and the panicking goroutine's stack so a crashed cell in
// a multi-hour sweep is diagnosable from the error alone; RunCells
// prefixes it with the failing cell's position ("cell %d of %d").
type CellPanicError struct {
	// Spec is the cell value rendered with %+v — the sim.Scenario /
	// seed / label that was being run.
	Spec string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("eval: cell panicked: %v (spec %s)\n%s", e.Value, e.Spec, e.Stack)
}

// runCell invokes run, converting a panic into a *CellPanicError so one
// bad cell cannot take down a whole sweep (or the process, from a pool
// goroutine).
func runCell[C, R any](run func(C) (R, error), c C) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &CellPanicError{Spec: fmt.Sprintf("%+v", c), Value: p, Stack: debug.Stack()}
		}
	}()
	return run(c)
}

// simSpec is one simulation round of a sweep: a fully-specified engine
// configuration plus a label for error messages.
type simSpec struct {
	cfg   sim.Scenario
	label string
}

// applyHarness layers the harness-level fault profile and resilience
// switch onto one spec, so every generator inherits them uniformly,
// whether it went through runner.spec or built its sim.Scenario by hand.
func (r *runner) applyHarness(s simSpec) simSpec {
	if r.cfg.Faults.Enabled() && !s.cfg.Net.Faults.Enabled() {
		s.cfg.Net.Faults = r.cfg.Faults
	}
	if r.cfg.Resilience {
		s.cfg.Resilience = true
	}
	return s
}

// specProbe, when non-nil, intercepts every round configuration a sweep
// would run (after harness layering) and aborts the sweep with
// errProbeAbort instead of simulating. Tests use it to enumerate the
// exact sim.Scenarios each registered experiment produces without paying
// for the runs.
var specProbe func(sim.Scenario)

// errProbeAbort is returned by runSpecs when a specProbe is installed.
var errProbeAbort = errors.New("eval: sweep aborted by spec probe")

// runSpecs executes one engine per spec across the worker pool, sharing
// the runner's signing key, and returns the outcomes in spec order.
// When the runner's Config carries a Store, finished rounds persist
// and already-stored rounds load instead of re-running.
func (r *runner) runSpecs(specs []simSpec) ([]*outcome, error) {
	if specProbe != nil {
		for _, s := range specs {
			specProbe(r.applyHarness(s).cfg)
		}
		return nil, errProbeAbort
	}
	harness := ""
	if r.cfg.Store != nil {
		harness = r.harnessDigest()
	}
	key := func(i int, s simSpec) string { return r.cellKey(harness, i, s) }
	return RunCellsStored(r.cfg.Workers, r.cfg.Store, key, outcomeCodec, specs, func(s simSpec) (*outcome, error) {
		s = r.applyHarness(s)
		opts := []sim.Option{sim.WithSigner(r.signer)}
		if r.cfg.Obs != nil {
			opts = append(opts, sim.WithObs(r.cfg.Obs))
		}
		e, err := sim.New(s.cfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		res := e.Run()
		return &outcome{
			res:        res,
			scenario:   s.cfg.Attack,
			roles:      e.Roles(),
			onsets:     e.AttackOnsets(),
			violations: e.Violations(),
		}, nil
	})
}
