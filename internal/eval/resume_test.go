package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"nwade/internal/attack"
	"nwade/internal/intersection"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/plan"
	"nwade/internal/sim"
)

func TestDirQueueRoundTrip(t *testing.T) {
	q, err := NewDirQueue(filepath.Join(t.TempDir(), "cells"), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := q.Load("missing"); err != nil || ok {
		t.Fatalf("Load(missing) = ok=%v err=%v, want miss", ok, err)
	}
	record(t, q, "k1", "hello")
	data, ok, err := q.Load("k1")
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("Load(k1) = %q ok=%v err=%v", data, ok, err)
	}
	// No temp or lease droppings after a successful completion.
	entries, err := os.ReadDir(filepath.Join(filepath.Dir(q.path("x")), "."))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("store dir has %d entries, want 1", len(entries))
	}
}

// record leases a cell and completes it with data.
func record(t *testing.T, q *DirQueue, key, data string) {
	t.Helper()
	l, err := q.TryLease(key)
	if err != nil || l == nil {
		t.Fatalf("TryLease(%s) = %v, %v; want a lease", key, l, err)
	}
	if err := q.Complete(l, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

// countingQueue wraps a DirQueue and counts completions, so tests can
// assert how many cells actually ran (every fresh run completes exactly
// once).
type countingQueue struct {
	*DirQueue
	completes atomic.Int64
}

func (c *countingQueue) Complete(l *Lease, data []byte) error {
	c.completes.Add(1)
	return c.DirQueue.Complete(l, data)
}

func TestRunCellsStored(t *testing.T) {
	dir, err := NewDirQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := &countingQueue{DirQueue: dir}
	codec := CellCodec[int]{
		Encode: func(v int) ([]byte, error) { return []byte(fmt.Sprintf("%d", v)), nil },
		Decode: func(b []byte) (int, error) { var v int; _, err := fmt.Sscanf(string(b), "%d", &v); return v, err },
	}
	key := func(i int, c int) string { return fmt.Sprintf("cell-%d", c) }
	var runs atomic.Int64
	double := func(c int) (int, error) { runs.Add(1); return 2 * c, nil }

	cells := []int{1, 2, 3, 4}
	got, err := RunCellsStored(2, store, key, codec, cells, double)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if got[i] != 2*c {
			t.Errorf("cell %d = %d, want %d", i, got[i], 2*c)
		}
	}
	if runs.Load() != 4 || store.completes.Load() != 4 {
		t.Fatalf("first pass: runs=%d completes=%d, want 4/4", runs.Load(), store.completes.Load())
	}

	// Second pass: everything loads, nothing runs.
	runs.Store(0)
	store.completes.Store(0)
	got, err = RunCellsStored(2, store, key, codec, cells, double)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if got[i] != 2*c {
			t.Errorf("resumed cell %d = %d, want %d", i, got[i], 2*c)
		}
	}
	if runs.Load() != 0 {
		t.Errorf("second pass ran %d cells, want 0", runs.Load())
	}

	// A corrupt entry falls back to running that one cell.
	if err := os.WriteFile(dir.path("cell-3"), []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs.Store(0)
	if _, err := RunCellsStored(1, store, key, codec, cells, double); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("corrupt-entry pass ran %d cells, want 1", runs.Load())
	}

	// A nil store degrades to plain RunCells.
	runs.Store(0)
	if _, err := RunCellsStored(1, nil, key, codec, cells, double); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Errorf("nil-store pass ran %d cells, want 4", runs.Load())
	}
}

func TestOutcomeCodecRoundTrip(t *testing.T) {
	col := metrics.NewCollector()
	sink := col.Sink()
	sink(nwade.Event{At: time.Second, Type: nwade.EvBlockBroadcast, Actor: 1, Info: "x"})
	sink(nwade.Event{At: 2 * time.Second, Type: nwade.EvIncidentConfirmed, Subject: 7})
	col.Spawned, col.Exited, col.Collisions = 5, 3, 1
	sc, _ := attack.ByName("V1", time.Second)
	o := &outcome{
		res: metrics.RunResult{
			Scenario: "V1", Seed: 9, Duration: 10 * time.Second,
			Spawned: 5, Exited: 3, Collisions: 1, Retransmits: 2,
			Collector: col,
		},
		scenario:   sc,
		roles:      attack.Roles{Violator: 7, All: map[plan.VehicleID]bool{7: true}},
		onsets:     map[plan.VehicleID]time.Duration{7: time.Second},
		violations: map[plan.VehicleID]time.Duration{7: 2 * time.Second},
	}
	data, err := encodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Digest(got.res) != metrics.Digest(o.res) {
		t.Error("run digest changed across the outcome codec")
	}
	if got.scenario != o.scenario || got.roles.Violator != 7 || !got.roles.All[7] ||
		got.onsets[7] != time.Second || got.violations[7] != 2*time.Second ||
		got.res.Retransmits != 2 {
		t.Errorf("decoded outcome differs: %+v", got)
	}
}

// TestSweepResumesPerCell is the end-to-end property: a sweep with a
// store, re-run by a fresh runner (fresh signing key, same store),
// loads every cell and produces bit-identical outcomes.
func TestSweepResumesPerCell(t *testing.T) {
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := attack.ByName("V1", 3*time.Second)
	mkSpecs := func() []simSpec {
		var specs []simSpec
		for i := 0; i < 3; i++ {
			specs = append(specs, simSpec{
				label: fmt.Sprintf("resume test round %d", i),
				cfg: sim.Scenario{
					Inter: inter, Duration: 6 * time.Second, RatePerMin: 60,
					Seed: int64(100 + i), Attack: sc, NWADE: true, KeyBits: 1024,
				},
			})
		}
		return specs
	}
	dir, err := NewDirQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := &countingQueue{DirQueue: dir}
	evalCfg := Config{Rounds: 1, Duration: 6 * time.Second, KeyBits: 1024, Store: store}

	r1, err := newRunner(evalCfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.runSpecs(mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if store.completes.Load() != 3 {
		t.Fatalf("first sweep completed %d cells, want 3", store.completes.Load())
	}

	store.completes.Store(0)
	r2, err := newRunner(evalCfg) // fresh signer: cells must still hit
	if err != nil {
		t.Fatal(err)
	}
	second, err := r2.runSpecs(mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if store.completes.Load() != 0 {
		t.Errorf("resumed sweep re-ran %d cells, want 0", store.completes.Load())
	}
	for i := range first {
		if metrics.Digest(first[i].res) != metrics.Digest(second[i].res) {
			t.Errorf("cell %d digest differs across resume", i)
		}
	}
}
