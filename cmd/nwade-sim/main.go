// Command nwade-sim runs one NWADE simulation round from the command
// line and reports what happened: traffic counts, protocol events, and
// network load.
//
// Examples:
//
//	nwade-sim -intersection cross4 -density 80 -duration 60s -scenario V3
//	nwade-sim -intersection roundabout3 -scenario IM -events
//	nwade-sim -scenario benign -nwade=false   # plain AIM baseline
//	nwade-sim -scenario V5 -rounds 8 -workers 4   # multi-seed replicas
//	nwade-sim -scenario IM -faults partition -retrans   # degraded network
//	nwade-sim -scenario V1 -trace run.jsonl   # protocol-event trace
//	nwade-sim -scenario V1 -obs -pprof cpu.pb # counters + CPU profile
//	nwade-sim -network grid:3x3 -scenario V3 -attack-region 4   # city grid
//	nwade-sim -network corridor:4 -intersection mix -tick-workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/eval"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwade-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	cf := cliconf.Register(fs)
	var (
		events    = fs.Bool("events", false, "print the protocol event log")
		rounds    = fs.Int("rounds", 1, "replicas with consecutive seeds (seed, seed+1, ...)")
		workers   = fs.Int("workers", 0, "concurrent replicas when rounds > 1 (0 = GOMAXPROCS)")
		traceOut  = fs.String("trace", "", "write a JSONL protocol-event trace to this file (inspect with nwade-inspect trace)")
		obsRep    = fs.Bool("obs", false, "print the observability report (counters, histograms, spans) after the run")
		pprofOut  = fs.String("pprof", "", "write a CPU profile to this file (enables wall-clock span timing)")
		ckptEvery = fs.Duration("checkpoint-every", 0, "write a checkpoint every interval of simulated time (single run only; resume with -resume or nwade-replay)")
		ckptDir   = fs.String("checkpoint-dir", ".", "directory for -checkpoint-every files (ckpt-<time>.snap)")
		resume    = fs.String("resume", "", "resume from a checkpoint file; the checkpoint's spec replaces the configuration flags")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*ckptEvery > 0 || *resume != "") && *rounds > 1 {
		return fmt.Errorf("-checkpoint-every/-resume apply to single runs, not -rounds %d", *rounds)
	}
	cfg, err := cf.Build()
	if err != nil {
		return err
	}
	var ckpt *cliconf.Checkpoint
	if *resume != "" {
		if ckpt, err = cliconf.Load(*resume); err != nil {
			return err
		}
		cfg = ckpt.Cfg
	}
	if *rounds > 1 {
		if cfg.IsNetwork() {
			return fmt.Errorf("-rounds applies to single-intersection runs, not -network %s", cfg.Network)
		}
		return runRounds(out, cfg, cf, *rounds, *workers, *traceOut, *obsRep)
	}
	return runOne(out, cfg, ckpt, oneRun{
		Events: *events, TraceOut: *traceOut, ObsRep: *obsRep, PprofOut: *pprofOut,
		CkptEvery: *ckptEvery, CkptDir: *ckptDir, ResumePath: *resume,
	})
}

// oneRun bundles the tool-specific knobs of one run; the scenario itself
// comes from cliconf (or a checkpoint spec).
type oneRun struct {
	Events     bool
	TraceOut   string
	ObsRep     bool
	PprofOut   string
	CkptEvery  time.Duration
	CkptDir    string
	ResumePath string
}

// newSink builds the observability sink when any of -trace/-obs/-pprof
// asks for one (nil otherwise, so the default run pays only nil checks).
func newSink(cfg sim.Scenario, or oneRun) (*obs.Sink, func(), error) {
	if or.TraceOut == "" && !or.ObsRep && or.PprofOut == "" {
		return nil, func() {}, nil
	}
	o := obs.Options{Profile: or.PprofOut != ""}
	closers := []func(){}
	if or.TraceOut != "" {
		tf, err := os.Create(or.TraceOut)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { tf.Close() })
		o.Trace = tf
	}
	sink := obs.New(o)
	sink.WriteMeta(obs.Meta{
		Tool:         "nwade-sim",
		Scenario:     cfg.Attack.Name,
		Seed:         cfg.Seed,
		Intersection: cfg.Intersection,
		DurationNS:   int64(cfg.Duration),
	})
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	return sink, cleanup, nil
}

// runOne executes one run, single-intersection or network, fresh or
// resumed, writing a checkpoint (ckpt-<time>.snap) at every multiple of
// -checkpoint-every. Checkpointing observes state at tick boundaries
// without perturbing it, so the result equals an uncheckpointed run's.
func runOne(out io.Writer, cfg sim.Scenario, ckpt *cliconf.Checkpoint, or oneRun) error {
	cfg = cfg.Normalize()
	sink, cleanup, err := newSink(cfg, or)
	if err != nil {
		return err
	}
	defer cleanup()
	if or.PprofOut != "" {
		pf, err := os.Create(or.PprofOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	r, err := cliconf.Open(cfg, ckpt, sink, nil)
	if err != nil {
		return err
	}
	if ckpt != nil {
		fmt.Fprintf(out, "resumed      : %s at %v\n", or.ResumePath, ckpt.Now())
	}
	if or.CkptEvery > 0 {
		spec, err := snap.SpecFromScenario(cfg)
		if err != nil {
			return err
		}
		for next := r.Now() + or.CkptEvery; next < cfg.Duration; next += or.CkptEvery {
			for r.Now() < next {
				r.Step()
			}
			path := filepath.Join(or.CkptDir, fmt.Sprintf("ckpt-%s.snap", r.Now()))
			if err := r.Checkpoint(path, spec); err != nil {
				return err
			}
			fmt.Fprintf(out, "checkpoint   : %s\n", path)
		}
	}
	res := r.Finish()
	if n := r.Network(); n != nil {
		printNetwork(out, cfg, n, res, or.Events)
	} else {
		printSingle(out, cfg, r.Engine(), res.PerRegion[0], or.Events)
	}
	return finishObs(out, sink, or.ObsRep, or.TraceOut)
}

// printSingle reports a single-intersection run.
func printSingle(out io.Writer, cfg sim.Scenario, engine *sim.Engine, res metrics.RunResult, events bool) {
	fmt.Fprintf(out, "intersection : %s\n", cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s (attack at %v)\n", cfg.Attack.Name, cfg.Attack.AttackAt)
	fmt.Fprintf(out, "density      : %g veh/min for %v (seed %d, NWADE %v)\n", cfg.RatePerMin, cfg.Duration, cfg.Seed, cfg.NWADE)
	if cfg.Net.Faults.Enabled() || cfg.Resilience {
		fmt.Fprintf(out, "faults       : enabled=%v (retrans %v): dropped %d, duplicated %d, retransmits %d\n",
			cfg.Net.Faults.Enabled(), cfg.Resilience, res.Net.FaultDropped, res.Net.Duplicated, res.Retransmits)
	}
	fmt.Fprintf(out, "spawned      : %d\n", res.Spawned)
	fmt.Fprintf(out, "exited       : %d (%.1f veh/min)\n", res.Exited, res.Throughput())
	fmt.Fprintf(out, "collisions   : %d\n", res.Collisions)
	if roles := engine.Roles(); len(roles.All) > 0 {
		fmt.Fprintf(out, "coalition    : violator=%v falseReporters=%v\n", roles.Violator, roles.FalseReporters)
	}
	printPackets(out, res.Net.Packets, res.Net.Bytes, res.Net.TotalPackets())
	if events {
		fmt.Fprintln(out, "\nprotocol events:")
		printEvents(out, "  ", res.Collector.Events())
	}
}

// printNetwork reports a road-network run region by region.
func printNetwork(out io.Writer, cfg sim.Scenario, n *roadnet.Network, res cliconf.Result, events bool) {
	topo := n.Topology()
	fmt.Fprintf(out, "network      : %s (%dx%d, %d regions, layout %s)\n",
		cfg.Network, topo.Rows, topo.Cols, len(topo.Regions), cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s (attack at %v in region %d)\n", cfg.Attack.Name, cfg.Attack.AttackAt, cfg.AttackRegion)
	fmt.Fprintf(out, "density      : %g veh/min for %v (seed %d, NWADE %v, workers %d)\n",
		cfg.RatePerMin, cfg.Duration, cfg.Seed, cfg.NWADE, cfg.Workers)
	fmt.Fprintf(out, "\n  %-7s %-12s %8s %8s %11s\n", "region", "layout", "spawned", "exited", "collisions")
	for i, rr := range res.PerRegion {
		fmt.Fprintf(out, "  %-7d %-12s %8d %8d %11d\n",
			i, topo.Regions[i].Inter.Name, rr.Spawned, rr.Exited, rr.Collisions)
	}
	fmt.Fprintf(out, "  %-7s %-12s %8d %8d %11d\n", "TOTAL", "", res.Spawned, res.Exited, res.Collisions)
	st := n.Stats()
	fmt.Fprintf(out, "\nhandoffs     : %d (boundary exits %d)\n", st.Handoffs, st.BoundaryExits)
	fmt.Fprintf(out, "watch        : %d reports, %d relays, %d advisories\n", st.Reports, st.ReportRelays, st.Advisories)
	fmt.Fprintf(out, "head exchange: %d beacons, %d mismatches\n", st.HeadBeacons, st.HeadMismatches)
	bb := n.BackboneStats()
	printPackets(out, bb.Packets, bb.Bytes, bb.TotalPackets())
	fmt.Fprintf(out, "digest       : %s\n", res.Digest)
	if events {
		for i, rr := range res.PerRegion {
			evs := rr.Collector.Events()
			if len(evs) == 0 {
				continue
			}
			fmt.Fprintf(out, "\nregion %d protocol events:\n", i)
			printEvents(out, "  ", evs)
		}
	}
}

// printPackets renders a packets-by-kind table.
func printPackets(out io.Writer, packets map[string]int, bytes map[string]int, total int) {
	fmt.Fprintln(out, "\nnetwork packets by kind:")
	kinds := make([]string, 0, len(packets))
	for k := range packets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-12s %6d (%d bytes)\n", k, packets[k], bytes[k])
	}
	fmt.Fprintf(out, "  %-12s %6d\n", "TOTAL", total)
}

// printEvents renders a protocol event log.
func printEvents(out io.Writer, indent string, evs []nwade.Event) {
	for _, e := range evs {
		actor := "IM"
		if e.Actor != 0 {
			actor = e.Actor.String()
		}
		fmt.Fprintf(out, "%s%-10v %-22v %-5s", indent, e.At.Round(time.Millisecond), e.Type, actor)
		if e.Subject != 0 {
			fmt.Fprintf(out, " subject=%v", e.Subject)
		}
		if e.Info != "" {
			fmt.Fprintf(out, "  %s", e.Info)
		}
		fmt.Fprintln(out)
	}
}

// finishObs seals the sink (writing the trace's sum record) and prints
// the report when -obs asked for it. Safe on a nil sink.
func finishObs(out io.Writer, sink *obs.Sink, report bool, tracePath string) error {
	if sink == nil {
		return nil
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if report {
		fmt.Fprintln(out)
		sink.WriteReport(out)
	}
	if tracePath != "" {
		fmt.Fprintf(out, "wrote trace %s\n", tracePath)
	}
	return nil
}

// runRounds executes a multi-seed replica sweep across the eval worker
// pool and prints per-round and aggregate traffic summaries.
func runRounds(out io.Writer, cfg sim.Scenario, cf *cliconf.Flags, rounds, workers int, traceOut string, obsRep bool) error {
	var sink *obs.Sink
	if traceOut != "" || obsRep {
		if traceOut != "" && workers != 1 {
			// Concurrent replicas would interleave their trace records.
			fmt.Fprintln(out, "note: -trace forces -workers 1")
			workers = 1
		}
		var cleanup func()
		var err error
		sink, cleanup, err = newSink(cfg, oneRun{TraceOut: traceOut, ObsRep: obsRep})
		if err != nil {
			return err
		}
		defer cleanup()
	}
	seeds := make([]int64, rounds)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	start := time.Now()
	results, err := eval.RunCells(workers, seeds, func(seed int64) (metrics.RunResult, error) {
		rc := cfg
		rc.Seed = seed
		opts := []sim.Option{}
		if sink != nil {
			opts = append(opts, sim.WithObs(sink))
		}
		engine, err := sim.New(rc, opts...)
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		return engine.Run(), nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(out, "intersection : %s\n", cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s\n", cfg.Attack.Name)
	fmt.Fprintf(out, "density      : %g veh/min for %v (NWADE %v)\n", cfg.RatePerMin, cfg.Duration, cfg.NWADE)
	if cf.Faults != "" || cfg.Resilience {
		faults := cf.Faults
		if faults == "" {
			faults = "none"
		}
		fmt.Fprintf(out, "faults       : %s (retrans %v)\n", faults, cfg.Resilience)
	}
	fmt.Fprintf(out, "replicas     : %d (seeds %d..%d, workers=%d, %v wall)\n\n",
		rounds, cfg.Seed, seeds[rounds-1], workers, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "  %-6s %8s %8s %12s %11s\n", "seed", "spawned", "exited", "veh/min", "collisions")
	var spawned, exited, collisions int
	var dropped, duplicated, retransmits int
	var thr float64
	for i, res := range results {
		fmt.Fprintf(out, "  %-6d %8d %8d %12.1f %11d\n", seeds[i], res.Spawned, res.Exited, res.Throughput(), res.Collisions)
		spawned += res.Spawned
		exited += res.Exited
		collisions += res.Collisions
		thr += res.Throughput()
		dropped += res.Net.FaultDropped
		duplicated += res.Net.Duplicated
		retransmits += res.Retransmits
	}
	n := float64(rounds)
	fmt.Fprintf(out, "  %-6s %8.1f %8.1f %12.1f %11.1f\n", "mean",
		float64(spawned)/n, float64(exited)/n, thr/n, float64(collisions)/n)
	if cf.Faults != "" || cfg.Resilience {
		fmt.Fprintf(out, "\n  fault-dropped %d, duplicated %d, retransmits %d (totals)\n",
			dropped, duplicated, retransmits)
	}
	return finishObs(out, sink, obsRep, traceOut)
}
