package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwade/internal/obs"
)

func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30", "-keybits", "512"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"spawned", "collisions", "network packets by kind"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReplicas(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30",
		"-keybits", "512", "-rounds", "2", "-workers", "1"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "mean") {
		t.Fatalf("replica output missing aggregate row:\n%s", buf.String())
	}
}

func TestRunTraceAndObs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30",
		"-keybits", "512", "-trace", trace, "-obs"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "observability summary") {
		t.Fatalf("-obs output missing report:\n%s", buf.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Meta == nil || tr.Meta.Tool != "nwade-sim" || tr.Meta.Scenario != "benign" {
		t.Fatalf("trace meta = %+v", tr.Meta)
	}
	if tr.Summary == nil {
		t.Fatalf("trace missing sum record")
	}
}

// TestNetworkObs: -obs works on a network run, fresh or resumed, like
// on a single intersection — and observing does not move the digest.
func TestNetworkObs(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-network", "grid:2x2", "-scenario", "V3", "-attack-region", "1",
		"-duration", "6s", "-keybits", "512", "-seed", "7"}
	digest := func(out string) string { return digestLine(t, out) }
	var plain, observed, resumed bytes.Buffer
	if err := run(append(base, "-checkpoint-every", "3s", "-checkpoint-dir", dir), &plain); err != nil {
		t.Fatalf("run: %v\n%s", err, plain.String())
	}
	if err := run(append(base, "-obs"), &observed); err != nil {
		t.Fatalf("run -obs: %v\n%s", err, observed.String())
	}
	if err := run([]string{"-resume", filepath.Join(dir, "ckpt-3s.snap"), "-obs"}, &resumed); err != nil {
		t.Fatalf("resume -obs: %v\n%s", err, resumed.String())
	}
	for _, tc := range []struct{ name, out string }{
		{"fresh", observed.String()}, {"resumed", resumed.String()},
	} {
		name, out := tc.name, tc.out
		if !strings.Contains(out, "observability summary") {
			t.Errorf("%s network -obs printed no report:\n%s", name, out)
		}
		if digest(out) != digest(plain.String()) {
			t.Errorf("%s network -obs digest %q, want %q", name, digest(out), digest(plain.String()))
		}
	}
}

// digestLine returns the run's "digest : ..." line.
func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest") {
			return line
		}
	}
	t.Fatalf("no digest line:\n%s", out)
	return ""
}

// TestResumeKeepsTickWorkers: the region pool size is runtime
// configuration, not checkpoint state, so -resume keeps -tick-workers
// instead of the checkpoint's default, and the digest does not move.
func TestResumeKeepsTickWorkers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-network", "grid:2x2", "-duration", "6s", "-keybits", "512", "-seed", "7", "-tick-workers", "4"}
	var fresh, resumed bytes.Buffer
	if err := run(append(args, "-checkpoint-every", "3s", "-checkpoint-dir", dir), &fresh); err != nil {
		t.Fatalf("run: %v\n%s", err, fresh.String())
	}
	if err := run([]string{"-resume", filepath.Join(dir, "ckpt-3s.snap"), "-tick-workers", "4"}, &resumed); err != nil {
		t.Fatalf("resume: %v\n%s", err, resumed.String())
	}
	for name, out := range map[string]string{"fresh": fresh.String(), "resumed": resumed.String()} {
		if !strings.Contains(out, "workers 4") {
			t.Errorf("%s run does not report workers 4:\n%s", name, out)
		}
	}
	if got, want := digestLine(t, resumed.String()), digestLine(t, fresh.String()); got != want {
		t.Errorf("resumed digest %q, want %q", got, want)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "nope"},
		{"-intersection", "nope"},
		{"-faults", "nope"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}

func TestCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{"-scenario", "V1", "-attack-at", "2s", "-duration", "6s",
		"-density", "40", "-keybits", "1024", "-seed", "3",
		"-checkpoint-every", "2s", "-checkpoint-dir", dir}
	if err := run(args, &buf); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, buf.String())
	}
	full := digestLine(t, buf.String())
	for _, name := range []string{"ckpt-2s.snap", "ckpt-4s.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing checkpoint %s: %v\n%s", name, err, buf.String())
		}
	}

	buf.Reset()
	if err := run([]string{"-resume", filepath.Join(dir, "ckpt-4s.snap")}, &buf); err != nil {
		t.Fatalf("resume: %v\n%s", err, buf.String())
	}
	out := buf.String()
	// "seed 3" guards the banner against reporting flag defaults
	// instead of the checkpoint's spec on -resume.
	for _, want := range []string{"resumed", "at 4s", "spawned", "seed 3", "for 6s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("resume output missing %q:\n%s", want, out)
		}
	}
	if got := digestLine(t, out); got != full {
		t.Errorf("resumed digest %q, want the checkpointed run's %q", got, full)
	}
}

func TestCheckpointRejectsReplicas(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-rounds", "2", "-checkpoint-every", "1s"}, &buf); err == nil {
		t.Fatal("-checkpoint-every with -rounds should fail")
	}
	if err := run([]string{"-rounds", "2", "-resume", "x.snap"}, &buf); err == nil {
		t.Fatal("-resume with -rounds should fail")
	}
}
