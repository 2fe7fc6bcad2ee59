package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nwade/internal/chain"
	"nwade/internal/cliconf"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/sim"
)

// paperAttackAt is when the compromise activates in every attacked run.
const paperAttackAt = 25 * time.Second

// scenario resolves a workload's inputs through the same flag defaults
// and cliconf.Flags.Build that the CLIs and the serve API use.
func scenario(f cliconf.Flags) (sim.Scenario, error) {
	f.Density = 80
	f.AttackAt = paperAttackAt
	f.KeyBits = chain.DefaultKeyBits
	return f.Build()
}

// --- cross4-paper ---------------------------------------------------------

// cross4Scenarios draws one seed per pair and returns the IM_V1 and
// benign scenarios of every pair, in run order.
func cross4Scenarios(b *bench) ([]sim.Scenario, error) {
	var out []sim.Scenario
	for range b.size.cross4Pairs {
		seed := b.scenarioSeed()
		for _, attack := range []string{"IM_V1", "benign"} {
			f := cliconf.Defaults()
			f.Intersection = "cross4"
			f.Duration = b.size.cross4Sim
			f.Seed = seed
			f.AttackName = attack
			f.TickWorkers = 1
			cfg, err := scenario(f)
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}

// stepEngine builds an engine and drives Step to the scenario's end,
// timing each Step when ticks is non-nil. It returns the engine, its
// set-up time (scenario to first Step) and the wall time spent stepping.
func stepEngine(cfg sim.Scenario, ticks *[]time.Duration, opts ...sim.Option) (*sim.Engine, time.Duration, time.Duration, error) {
	t0 := time.Now()
	eng, err := sim.New(cfg, opts...)
	if err != nil {
		return nil, 0, 0, err
	}
	setup := time.Since(t0)
	s0 := time.Now()
	for eng.Now() < cfg.Duration {
		if ticks == nil {
			eng.Step()
			continue
		}
		t := time.Now()
		eng.Step()
		*ticks = append(*ticks, time.Since(t))
	}
	return eng, setup, time.Since(s0), nil
}

func runCross4(b *bench) error {
	scens, err := cross4Scenarios(b)
	if err != nil {
		return err
	}
	// Memory is read after each run with the engine held, off every
	// clock: forced GC cycles would otherwise put collection work the
	// program does not do into the timed figures. The heap follows each
	// seed's traffic, so the figure is the mean over the runs.
	steps := make([]time.Duration, len(scens))
	pairs := make([]time.Duration, len(scens)/2)
	digests := make([]string, len(scens))
	var heaps []float64
	var batch time.Duration
	for i, cfg := range scens {
		t0 := time.Now()
		eng, setup, wall, err := stepEngine(cfg, nil)
		if err != nil {
			return err
		}
		run := time.Since(t0)
		b.setupSample(setup)
		steps[i] = wall
		// A job is one pair: IM_V1 then benign on the same seed.
		pairs[i/2] += run
		batch += run
		heaps = append(heaps, heldHeapMB())
		digests[i] = metrics.Digest(eng.Result())
	}
	rate := b.size.cross4Sim.Seconds() * float64(len(scens)) / sum(steps).Seconds()
	b.setE2E("sim_rate", rate, "sim-s/s")
	b.setE2E("job_p50_s", median(pairs).Seconds(), "s")
	b.setE2E("jobs_per_s", float64(len(pairs))/batch.Seconds(), "1/s")
	b.setE2E("sweep_s", batch.Seconds(), "s")
	b.setE2E("peak_heap_mb", mean(heaps), "MB")
	b.facts["job_samples"] = len(pairs)
	stepS := make([]float64, len(steps))
	for i, d := range steps {
		stepS[i] = d.Seconds()
	}
	b.facts["step_s"] = stepS

	// Reference: the engine's own Run loop with a parallel tick, whose
	// digest is bit-identical to the sequential one by contract. The
	// references are not timed, so nproc of them run at once.
	refs := make([]string, len(scens))
	errs := make([]error, len(scens))
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, cfg := range scens {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			cfg.Workers = max(2, runtime.NumCPU())
			eng, err := sim.New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			refs[i] = metrics.Digest(eng.Run())
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, cfg := range scens {
		b.checkDigest(fmt.Sprintf("%s seed %d", cfg.Attack.Name, cfg.Seed), digests[i], refs[i])
	}
	b.facts["sim_seconds_per_run"] = b.size.cross4Sim.Seconds()
	b.facts["runs"] = len(scens)
	b.facts["key_bits"] = chain.DefaultKeyBits
	if !b.trace {
		return nil
	}
	// The traced rerun covers the first pair, and its overhead is taken
	// against the untraced rate of that same pair.
	untraced := 2 * b.size.cross4Sim.Seconds() / sum(steps[:2]).Seconds()
	return traceCross4(b, scens[:2], refs[:2], untraced)
}

// traceCross4 reruns the pair with a profiling obs sink and a timed
// scheduler, times every Step, and replays the chain and plan calls on
// each run's packaged blocks.
func traceCross4(b *bench, scens []sim.Scenario, refs []string, untraced float64) error {
	sink := obs.New(obs.Options{Profile: true})
	var ticks, calls []time.Duration
	var stepWall, simTime time.Duration
	var replay chainReplay
	for i, cfg := range scens {
		inner, err := cfg.BuildScheduler(nil)
		if err != nil {
			return err
		}
		ts := &timedScheduler{inner: inner}
		cfg.Scheduler = ts
		eng, _, wall, err := stepEngine(cfg, &ticks, sim.WithObs(sink))
		if err != nil {
			return err
		}
		stepWall += wall
		simTime += cfg.Duration
		calls = append(calls, ts.calls...)
		b.checkDigest("traced "+cfg.Attack.Name, metrics.Digest(eng.Result()), refs[i])
		inter, err := cfg.BuildInter()
		if err != nil {
			return err
		}
		if err := replay.run(b.signer, inter, nwade.DefaultVehicleConfig().ChainMax, eng.IM().Blocks()); err != nil {
			return fmt.Errorf("chain replay: %w", err)
		}
	}
	b.obsLayers(sink)
	b.schedLayers(calls)
	b.chainLayers(&replay)
	b.setLayer("sim.tick_p50_ms", ms(median(ticks)), "ms")
	b.setLayer("sim.tick_p99_ms", ms(percentile(ticks, 99)), "ms")
	b.facts["tick_samples"] = len(ticks)
	b.facts["sched_samples"] = len(calls)
	b.traceOverhead(untraced, simTime.Seconds()/stepWall.Seconds())
	return nil
}
