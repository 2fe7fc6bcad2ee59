package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/cliconf"
	"nwade/internal/intersection"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

var (
	keyOnce sync.Once
	key     *chain.Signer
)

func testSigner(t *testing.T) *chain.Signer {
	t.Helper()
	keyOnce.Do(func() {
		s, err := chain.NewSigner(1024)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		key = s
	})
	return key
}

// writeCheckpoint runs a small reference scenario to the given tick and
// checkpoints it, returning the file path.
func writeCheckpoint(t *testing.T, at time.Duration) string {
	t.Helper()
	inter, err := intersection.Build(intersection.KindCross4, intersection.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := attack.ByName("V1", 4*time.Second)
	if !ok {
		t.Fatal("scenario V1 missing")
	}
	cfg := sim.Scenario{
		Inter: inter, Duration: 10 * time.Second, RatePerMin: 80,
		Seed: 7, Attack: sc, NWADE: true, KeyBits: 1024,
	}
	e, err := sim.New(cfg, sim.WithSigner(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < at {
		e.Step()
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := snap.WriteFile(path, spec, st); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResumeAndCheck(t *testing.T) {
	ckpt := writeCheckpoint(t, 6*time.Second)

	var buf bytes.Buffer
	if err := run([]string{"resume", "-in", ckpt}, &buf); err != nil {
		t.Fatalf("resume: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "resumed at 6s") || !strings.Contains(buf.String(), "digest=") {
		t.Errorf("resume output missing expected lines:\n%s", buf.String())
	}

	buf.Reset()
	if err := run([]string{"check", "-in", ckpt}, &buf); err != nil {
		t.Fatalf("check: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "check: digests match") {
		t.Errorf("check output:\n%s", buf.String())
	}
}

// TestResumeCountsLiveVehicles: the resume banner counts the vehicles
// still on the road, not every body the state holds (exited vehicles
// keep theirs).
func TestResumeCountsLiveVehicles(t *testing.T) {
	f := cliconf.Defaults()
	f.Seed, f.Duration, f.KeyBits = 3, 60*time.Second, 512
	cfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := cliconf.Open(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.Now() < 50*time.Second {
		r.Step()
	}
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := r.Checkpoint(path, spec); err != nil {
		t.Fatal(err)
	}
	st, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bodies := len(st.Single.Engine.Bodies); bodies != 78 {
		t.Fatalf("state holds %d bodies, want 78 (60 live + 18 exited)", bodies)
	}
	var buf bytes.Buffer
	if err := run([]string{"resume", "-in", path}, &buf); err != nil {
		t.Fatalf("resume: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "resumed at 50s of 1m0s (60 vehicles live)") {
		t.Errorf("resume banner miscounts live vehicles:\n%s", buf.String())
	}
}

func TestBisectCleanRun(t *testing.T) {
	ckpt := writeCheckpoint(t, 6*time.Second)
	var buf bytes.Buffer
	if err := run([]string{"bisect", "-in", ckpt}, &buf); err != nil {
		t.Fatalf("bisect: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no divergence") {
		t.Errorf("clean bisect should find no divergence:\n%s", buf.String())
	}
}

// TestBisectLocalizesPerturbation is the acceptance property: an
// injected divergence is localized to its exact tick and subsystem.
func TestBisectLocalizesPerturbation(t *testing.T) {
	ckpt := writeCheckpoint(t, 5*time.Second)
	for _, tc := range []struct{ perturb, tick, subsystem string }{
		{"7.5s:protocol", "7.5s", "protocol"},
		{"6s:traffic", "6s", "traffic"},
		{"8s:collector", "8s", "collector"},
	} {
		var buf bytes.Buffer
		if err := run([]string{"bisect", "-in", ckpt, "-perturb", tc.perturb}, &buf); err != nil {
			t.Fatalf("bisect -perturb %s: %v\n%s", tc.perturb, err, buf.String())
		}
		got := buf.String()
		if !strings.Contains(got, "divergence at tick "+tc.tick) {
			t.Errorf("perturb %s: wrong tick:\n%s", tc.perturb, got)
		}
		if !strings.Contains(got, tc.subsystem) {
			t.Errorf("perturb %s: subsystem not attributed:\n%s", tc.perturb, got)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"resume"},
		{"check", "-in", "/does/not/exist.snap"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	ckpt := writeCheckpoint(t, 6*time.Second)
	for _, p := range []string{"nonsense", "6s:frob", "1s:protocol", "99s:protocol"} {
		var buf bytes.Buffer
		if err := run([]string{"bisect", "-in", ckpt, "-perturb", p}, &buf); err == nil {
			t.Errorf("bisect -perturb %q succeeded, want error", p)
		}
	}
}
