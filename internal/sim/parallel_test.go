package sim

import (
	"testing"
	"time"
)

// TestParallelDigestMatchesSequential pins that Scenario.Workers, which
// sizes roadnet's region pool, leaves a single engine's run unchanged:
// sim.New finishes on the golden digest for any worker count. perfbench's
// reference run sets Workers to the core count and relies on this.
func TestParallelDigestMatchesSequential(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := finish(t, e); got != zeroFaultGolden {
			t.Errorf("workers=%d: digest %s != golden %s", workers, got, zeroFaultGolden)
		}
	}
}

// TestParallelRaceShort is a short mid-attack window at workers 1 and 4,
// cheap enough for `go test -race -short`. The engine launches no
// goroutine of its own; the region pool's concurrency is raced by
// roadnet's TestWorkerCountInvariance.
func TestParallelRaceShort(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	cfg.Duration = 24 * time.Second

	run := func(workers int) string {
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runDigest(t, e.Run())
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Fatalf("workers=4 digest %s != workers=1 %s", par, seq)
	}
}

// TestParallelCheckpointRoundTrip asserts that a mid-attack snapshot
// restores under the other worker count and still finishes on the golden
// digest. Worker count is runtime configuration, not simulation state,
// so snapshots are interchangeable across it.
func TestParallelCheckpointRoundTrip(t *testing.T) {
	cfg := zeroFaultRefConfig(t)
	for _, tc := range []struct{ snapWorkers, resumeWorkers int }{{1, 4}, {4, 1}} {
		snapCfg := cfg
		snapCfg.Workers = tc.snapWorkers
		e, err := New(snapCfg, WithSigner(testSigner(t)))
		if err != nil {
			t.Fatal(err)
		}
		stepTo(e, 25*time.Second)
		st, err := e.Snapshot()
		if err != nil {
			t.Fatalf("snapshot (workers=%d): %v", tc.snapWorkers, err)
		}
		resumeCfg := cfg
		resumeCfg.Workers = tc.resumeWorkers
		r, err := Restore(resumeCfg, st)
		if err != nil {
			t.Fatalf("restore (workers=%d): %v", tc.resumeWorkers, err)
		}
		if got := finish(t, r); got != zeroFaultGolden {
			t.Errorf("snap workers=%d resume workers=%d: digest %s != golden %s",
				tc.snapWorkers, tc.resumeWorkers, got, zeroFaultGolden)
		}
	}
}
