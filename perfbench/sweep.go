package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/eval"
	"nwade/internal/intersection"
	"nwade/internal/obs"
	"nwade/internal/sim"
)

// sweepFigures are the generators of the paper sweep, in order.
var sweepFigures = []string{"fig4", "fig5", "fig6", "fig7", "fig8"}

func sweepConfig(b *bench, seed int64) eval.Config {
	return eval.Config{
		Rounds:    b.size.sweepRounds,
		Duration:  b.size.sweepDuration,
		BaseSeed:  seed,
		Workers:   runtime.NumCPU(),
		Densities: b.size.sweepDensities,
		Settings:  b.size.sweepSettings,
	}
}

// tableDigest fingerprints a generator's table. Fig. 6 times real
// crypto, so only its deterministic columns (layout, density, plans per
// block) enter the digest.
func tableDigest(res eval.Result) string {
	text := res.String()
	if f6, ok := res.(*eval.Fig6Result); ok {
		var sb strings.Builder
		for _, r := range f6.Rows {
			fmt.Fprintf(&sb, "%v %g %d\n", r.Kind, r.Density, r.Batch)
		}
		text = sb.String()
	}
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:])
}

// runFigures runs every sweep generator under cfg, Fig. 8 at
// fig8Densities, and returns the table digests and per-figure wall
// times.
func runFigures(cfg eval.Config, fig8Densities []float64) ([]string, []time.Duration, error) {
	var digests []string
	var walls []time.Duration
	for _, name := range sweepFigures {
		g, ok := eval.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("no generator %s", name)
		}
		fc := cfg
		if name == "fig8" {
			fc.Densities = fig8Densities
		}
		t0 := time.Now()
		res, err := g.Run(fc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		walls = append(walls, time.Since(t0))
		digests = append(digests, tableDigest(res))
	}
	return digests, walls, nil
}

// cellSimTime sums the simulated length of every cell the queue holds.
func cellSimTime(dir string) (time.Duration, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, 0, err
		}
		var rec struct{ ResDuration time.Duration }
		if err := json.Unmarshal(data, &rec); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
		total += rec.ResDuration
	}
	return total, len(files), nil
}

// sampleCells samples the set-up a sweep cell pays: sim.New on a layout
// geometry its generator built once, signing with the generator's round
// key (eval makes one key per generator and shares it with every cell).
// The samples cycle through the layouts, densities and settings of the
// sweep at its round length. The first cell on each layout then runs to
// its end, and its live heap, read with the engine held, gives the
// memory figure: the mean over the layouts. The sweep itself runs its
// cells inside the generators, out of reach of a read at a fixed point.
func sampleCells(b *bench, n int) error {
	signer, err := chain.NewSigner(eval.Config{}.Normalize().KeyBits)
	if err != nil {
		return err
	}
	var inters []*intersection.Intersection
	for _, k := range intersection.Kinds() {
		inter, err := intersection.Build(k, intersection.Config{})
		if err != nil {
			return err
		}
		inters = append(inters, inter)
	}
	seed := b.scenarioSeed()
	var heaps []float64
	for i := range n {
		setting := b.size.sweepSettings[i%len(b.size.sweepSettings)]
		sc, ok := attack.ByName(setting, paperAttackAt)
		if !ok {
			return fmt.Errorf("unknown setting %s", setting)
		}
		cfg := sim.Scenario{
			Inter:      inters[i%len(inters)],
			Duration:   b.size.sweepDuration,
			RatePerMin: b.size.sweepDensities[i%len(b.size.sweepDensities)],
			Seed:       seed + int64(i),
			Attack:     sc,
			NWADE:      true,
		}
		t0 := time.Now()
		eng, err := sim.New(cfg, sim.WithSigner(signer))
		if err != nil {
			return err
		}
		b.setupSample(time.Since(t0))
		if i < len(inters) {
			eng.Run()
			heaps = append(heaps, heldHeapMB())
			runtime.KeepAlive(eng)
		}
	}
	b.setE2E("peak_heap_mb", mean(heaps), "MB")
	return nil
}

func runSweep(b *bench) error {
	seed := b.scenarioSeed()
	if err := sampleCells(b, 35); err != nil {
		return err
	}
	qdir := filepath.Join(b.dir, "cells")
	dq, err := eval.NewDirQueue(qdir, eval.QueueOptions{Owner: "perfbench"})
	if err != nil {
		return err
	}
	q := &timedQueue{DirQueue: dq}
	cfg := sweepConfig(b, seed)
	cfg.Store = q
	var sink *obs.Sink
	if b.trace {
		sink = obs.New(obs.Options{})
		cfg.Obs = sink
	}
	start := time.Now()
	digests, walls, err := runFigures(cfg, b.size.sweepFig8Densities)
	if err != nil {
		return err
	}
	batch := time.Since(start)
	simTime, cells, err := cellSimTime(qdir)
	if err != nil {
		return err
	}
	b.setE2E("sim_rate", simTime.Seconds()/batch.Seconds(), "sim-s/s")
	// The job is the sweep itself: what a researcher submits and waits on.
	b.jobMetrics([]time.Duration{batch}, batch)
	b.facts["cells"] = cells
	figS := map[string]float64{}
	for i, name := range sweepFigures {
		figS[name] = walls[i].Seconds()
	}
	b.facts["figure_s"] = figS
	b.facts["sweep_config"] = map[string]any{
		"rounds": cfg.Rounds, "duration_s": cfg.Duration.Seconds(), "densities": cfg.Densities,
		"fig8_densities": b.size.sweepFig8Densities, "settings": cfg.Settings, "base_seed": seed, "workers": cfg.Workers,
		"key_bits": eval.Config{}.Normalize().KeyBits, "fig6_key_bits": chain.DefaultKeyBits,
	}

	// Reference: the same sweep through the plain in-memory cell path,
	// with no store; tables must be byte-identical.
	ref := sweepConfig(b, seed)
	want, _, err := runFigures(ref, b.size.sweepFig8Densities)
	if err != nil {
		return err
	}
	for i, name := range sweepFigures {
		b.checkDigest(name+" table", digests[i], want[i])
	}
	if !b.trace {
		return nil
	}
	b.obsLayers(sink)
	b.setLayer("eval.cells", float64(cells), "count")
	for i, name := range sweepFigures {
		b.setLayer("eval."+name+"_s", walls[i].Seconds(), "s")
	}
	st := dq.Stats()
	b.setLayer("eval.queue.try_lease_us", us(median(q.lease)), "us")
	b.setLayer("eval.queue.complete_us", us(median(q.complete)), "us")
	b.setLayer("eval.queue.busy_s", q.busy.Seconds(), "s")
	b.setLayer("eval.queue.executed", float64(st.Executed), "count")
	b.setLayer("eval.queue.loaded", float64(st.Loaded), "count")
	b.setLayer("eval.queue.conflicts", float64(st.Conflicts), "count")
	b.facts["queue_samples"] = map[string]int{"try_lease": len(q.lease), "complete": len(q.complete)}
	return nil
}
