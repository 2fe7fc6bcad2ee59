// nwade-replay resumes checkpointed simulation runs and localizes
// replay divergence.
//
//	nwade-replay resume -in run.snap          # continue a run to the end
//	nwade-replay check  -in run.snap          # resumed digest == continuous digest?
//	nwade-replay bisect -in run.snap          # first divergent tick + subsystem
//
// A checkpoint (written by nwade-sim -checkpoint-every, or by this
// tool) carries the run's Spec and its complete state at one tick —
// either a single intersection or a whole road network; every
// subcommand handles both. `check` replays the run both ways —
// continuously from t=0 and resumed from the checkpoint — and compares
// the final run digests; on a deterministic build they are
// bit-identical. `bisect` steps both runs tick by tick and
// binary-searches the first tick whose per-subsystem state digests
// differ, attributing the divergence to the engine (physical world),
// traffic generator, network, protocol cores, or metrics collector —
// and, for a road network, to the region (r0/engine, r3/protocol, ...)
// or the backbone. The -perturb flag injects a deliberate state
// mutation at a chosen tick, which exercises the bisector and
// demonstrates the attribution (the CI replay job uses it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwade-replay:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: nwade-replay <resume|check|bisect> [flags] (-h for help)")
	}
	switch args[0] {
	case "resume":
		return runResume(args[1:], out)
	case "check":
		return runCheck(args[1:], out)
	case "bisect":
		return runBisect(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want resume, check or bisect)", args[0])
	}
}

// summarize prints a run's final totals and digest (plus handoffs for a
// road network).
func summarize(out io.Writer, label string, r *cliconf.Run) {
	res := r.Result()
	fmt.Fprintf(out, "%-10s spawned=%d exited=%d collisions=%d", label, res.Spawned, res.Exited, res.Collisions)
	if n := r.Network(); n != nil {
		fmt.Fprintf(out, " handoffs=%d", n.Stats().Handoffs)
	}
	fmt.Fprintf(out, " digest=%s\n", res.Digest)
}

// runResume continues a checkpointed run to its configured duration.
func runResume(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-replay resume", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "", "checkpoint file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("resume: -in is required")
	}
	c, err := cliconf.Load(*in)
	if err != nil {
		return err
	}
	r, err := cliconf.Open(c.Cfg, c, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "resumed at %v of %v (%d vehicles live)\n", c.Now(), c.Cfg.Duration, liveVehicles(c.State))
	r.Finish()
	summarize(out, "resumed", r)
	return nil
}

// liveVehicles counts the bodies still on the road in every region;
// the state keeps exited vehicles' bodies too.
func liveVehicles(st cliconf.State) int {
	n := 0
	for _, rs := range st.Regions() {
		for _, b := range rs.Engine.Bodies {
			if !b.Exited {
				n++
			}
		}
	}
	return n
}

// runCheck replays the run continuously and resumed, and compares the
// final digests. Exit status is the CI contract: non-zero on mismatch.
func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-replay check", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "", "checkpoint file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("check: -in is required")
	}
	c, err := cliconf.Load(*in)
	if err != nil {
		return err
	}
	signers, err := c.Signers()
	if err != nil {
		return err
	}
	cont, err := cliconf.Open(c.Cfg, nil, nil, signers)
	if err != nil {
		return err
	}
	resumed, err := cliconf.Open(c.Cfg, c, nil, nil)
	if err != nil {
		return err
	}
	contDigest, resDigest := cont.Finish().Digest, resumed.Finish().Digest
	summarize(out, "continuous", cont)
	summarize(out, "resumed", resumed)
	if contDigest != resDigest {
		return fmt.Errorf("check: resumed run diverged from continuous run (bisect to localize)")
	}
	fmt.Fprintln(out, "check: digests match")
	return nil
}

// lane is one run the bisector replays: a memo of per-tick snapshots,
// seeded with the base state, so probing tick t restores from the
// nearest snapshot at or before t instead of stepping from the start
// each time. An optional perturbation is applied the moment the lane
// reaches its tick; snapshots at or past it always derive from the
// perturbed state.
type lane struct {
	cfg       sim.Scenario
	perturbAt time.Duration
	perturb   func(cliconf.State) error
	cache     map[time.Duration]cliconf.State
}

func newLane(cfg sim.Scenario, base cliconf.State) *lane {
	return &lane{cfg: cfg, cache: map[time.Duration]cliconf.State{base.Now(): base}}
}

// stateAt returns the lane's state at tick boundary t (a multiple of the
// step, at or after the base tick). Callers must not mutate the result.
func (l *lane) stateAt(t time.Duration) (cliconf.State, error) {
	if l.perturb != nil && t >= l.perturbAt {
		if err := l.ensurePerturbed(); err != nil {
			return cliconf.State{}, err
		}
	}
	if st, ok := l.cache[t]; ok {
		return st, nil
	}
	// Nearest snapshot at or before t; probes past the perturbation
	// must not restart from before it (the mutation is baked into the
	// cached perturbed state, not into the step function).
	var fromTick time.Duration = -1
	for tick := range l.cache {
		if tick <= t && tick > fromTick {
			if l.perturb != nil && t >= l.perturbAt && tick < l.perturbAt {
				continue
			}
			fromTick = tick
		}
	}
	if fromTick < 0 {
		return cliconf.State{}, fmt.Errorf("bisect: no snapshot at or before %v", t)
	}
	st, err := l.advance(l.cache[fromTick], t)
	if err != nil {
		return cliconf.State{}, err
	}
	l.cache[t] = st
	return st, nil
}

// advance restores st, steps to tick t, and snapshots.
func (l *lane) advance(st cliconf.State, t time.Duration) (cliconf.State, error) {
	r, err := cliconf.Open(l.cfg, &cliconf.Checkpoint{State: st}, nil, nil)
	if err != nil {
		return cliconf.State{}, err
	}
	for r.Now() < t {
		r.Step()
	}
	return r.Snapshot()
}

// ensurePerturbed computes the state at the perturbation tick, applies
// the mutation to a deep copy, and caches the result under that tick.
func (l *lane) ensurePerturbed() error {
	if _, ok := l.cache[l.perturbAt]; ok {
		return nil
	}
	fn := l.perturb
	l.perturb = nil // compute the pre-perturbation state without recursing
	st, err := l.stateAt(l.perturbAt)
	l.perturb = fn
	if err != nil {
		return err
	}
	mutated, err := st.Clone()
	if err != nil {
		return fmt.Errorf("bisect: %w", err)
	}
	if err := fn(mutated); err != nil {
		return err
	}
	l.cache[l.perturbAt] = mutated
	return nil
}

// perturbFn returns the state mutation that injects a divergence into a
// single-intersection subsystem.
func perturbFn(sub string) (func(*sim.State) error, error) {
	switch sub {
	case "engine":
		return func(st *sim.State) error {
			for i := range st.Engine.Bodies {
				if !st.Engine.Bodies[i].Exited {
					st.Engine.Bodies[i].S += 0.5
					return nil
				}
			}
			return fmt.Errorf("bisect: no live body to perturb at %v", st.Engine.Now)
		}, nil
	case "traffic":
		return func(st *sim.State) error {
			st.Traffic.NextAt += 100 * time.Millisecond
			return nil
		}, nil
	case "net":
		return func(st *sim.State) error {
			if len(st.Net.Queue) == 0 {
				return fmt.Errorf("bisect: no queued delivery to perturb at %v", st.Engine.Now)
			}
			st.Net.Queue[0].Deliver += 100 * time.Millisecond
			return nil
		}, nil
	case "protocol":
		return func(st *sim.State) error {
			st.Protocol.IM.Nonce++
			return nil
		}, nil
	case "collector":
		return func(st *sim.State) error {
			st.Collector.Events = append(st.Collector.Events,
				nwade.Event{At: st.Engine.Now, Type: nwade.EvBlockBroadcast, Info: "perturbed"})
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("bisect: unknown subsystem %q (want one of %s)",
			sub, strings.Join(snap.Subsystems, ", "))
	}
}

// parsePerturb parses "<duration>:<subsystem>" — the subsystem may
// carry a region prefix ("12s:r3/engine", default r0) or, for a road
// network, name the backbone ("12s:backbone") — and returns the tick and
// the mutation of a state shaped like base.
func parsePerturb(s string, base cliconf.State) (time.Duration, func(cliconf.State) error, error) {
	at, sub, ok := strings.Cut(s, ":")
	if !ok {
		return 0, nil, fmt.Errorf("bisect: -perturb wants <duration>:<subsystem>, got %q", s)
	}
	tick, err := time.ParseDuration(at)
	if err != nil {
		return 0, nil, fmt.Errorf("bisect: -perturb time: %w", err)
	}
	if sub == "backbone" && base.Net != nil {
		return tick, func(st cliconf.State) error {
			if len(st.Net.Backbone.Queue) == 0 {
				return fmt.Errorf("bisect: no queued backbone delivery to perturb at %v", st.Now())
			}
			st.Net.Backbone.Queue[0].Deliver += 100 * time.Millisecond
			return nil
		}, nil
	}
	region, regions := 0, len(base.Regions())
	if rest, ok := strings.CutPrefix(sub, "r"); ok {
		if rs, subsys, ok := strings.Cut(rest, "/"); ok {
			region, err = strconv.Atoi(rs)
			if err != nil {
				return 0, nil, fmt.Errorf("bisect: -perturb region in %q: %w", sub, err)
			}
			sub = subsys
		}
	}
	if region < 0 || region >= regions {
		return 0, nil, fmt.Errorf("bisect: -perturb region %d out of range [0,%d)", region, regions)
	}
	fn, err := perturbFn(sub)
	if err != nil {
		return 0, nil, err
	}
	return tick, func(st cliconf.State) error { return fn(st.Regions()[region]) }, nil
}

// runBisect binary-searches the first tick at which the resumed run's
// state digest diverges from the continuous run's, and reports which
// subsystems differ there. Divergence is assumed persistent once it
// appears (state feeds forward), which is what makes the search valid.
func runBisect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-replay bisect", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "", "checkpoint file (required)")
	perturb := fs.String("perturb", "", "inject a divergence: <duration>:<subsystem> (subsystems: "+
		strings.Join(snap.Subsystems, ", ")+"; network runs accept rK/<subsystem> and backbone)")
	tracePath := fs.String("trace", "", "obs trace (JSONL) of the original run, for event context around the divergence")
	window := fs.Duration("window", 2*time.Second, "context window around the divergent tick for -trace events")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("bisect: -in is required")
	}
	c, err := cliconf.Load(*in)
	if err != nil {
		return err
	}
	cfg := c.Cfg
	base := c.Now()
	signers, err := c.Signers()
	if err != nil {
		return err
	}

	// Reference lane: the continuous run (checkpointed keys, so state
	// digests are comparable), snapshotted at the checkpoint tick.
	// Candidate lane: the checkpointed state itself, optionally
	// perturbed.
	cont, err := cliconf.Open(cfg, nil, nil, signers)
	if err != nil {
		return err
	}
	for cont.Now() < base {
		cont.Step()
	}
	refBase, err := cont.Snapshot()
	if err != nil {
		return err
	}
	ref := newLane(cfg, refBase)
	cand := newLane(cfg, c.State)
	if *perturb != "" {
		tick, fn, err := parsePerturb(*perturb, c.State)
		if err != nil {
			return err
		}
		if tick < base || tick > cfg.Duration {
			return fmt.Errorf("bisect: -perturb tick %v outside [%v, %v]", tick, base, cfg.Duration)
		}
		cand.perturbAt = tick.Truncate(cfg.Step)
		cand.perturb = fn
	}

	diverged := func(t time.Duration) ([]string, error) {
		rs, err := ref.stateAt(t)
		if err != nil {
			return nil, err
		}
		cs, err := cand.stateAt(t)
		if err != nil {
			return nil, err
		}
		rd, err := rs.Digests()
		if err != nil {
			return nil, err
		}
		cd, err := cs.Digests()
		if err != nil {
			return nil, err
		}
		var diff []string
		for i := range rd {
			if rd[i] != cd[i] {
				diff = append(diff, rd[i].Name)
			}
		}
		return diff, nil
	}

	n := int((cfg.Duration - base) / cfg.Step)
	tickAt := func(i int) time.Duration { return base + time.Duration(i)*cfg.Step }
	lastDiff, err := diverged(tickAt(n))
	if err != nil {
		return err
	}
	if len(lastDiff) == 0 {
		fmt.Fprintf(out, "no divergence: states identical from %v through %v (%d ticks)\n",
			base, tickAt(n), n+1)
		return nil
	}
	// Invariant: diverged(hi) is true; find the smallest such tick.
	lo, hi := 0, n
	firstDiff := lastDiff
	for lo < hi {
		mid := (lo + hi) / 2
		diff, err := diverged(tickAt(mid))
		if err != nil {
			return err
		}
		if len(diff) > 0 {
			hi, firstDiff = mid, diff
		} else {
			lo = mid + 1
		}
	}
	at := tickAt(hi)
	fmt.Fprintf(out, "divergence at tick %v (first differing state)\n", at)
	fmt.Fprintf(out, "subsystems   : %s\n", strings.Join(firstDiff, ", "))
	if *tracePath != "" {
		if err := printTraceContext(out, *tracePath, at, *window); err != nil {
			return err
		}
	}
	return nil
}

// printTraceContext prints the original run's observed events near the
// divergent tick, so the operator sees what the run was doing there.
func printTraceContext(out io.Writer, path string, at, window time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	var near []obs.Ev
	for _, ev := range tr.Events {
		t := time.Duration(ev.T)
		if t >= at-window && t <= at+window {
			near = append(near, ev)
		}
	}
	sort.SliceStable(near, func(i, j int) bool { return near[i].T < near[j].T })
	fmt.Fprintf(out, "trace events within %v of the divergence (%d):\n", window, len(near))
	const maxShown = 24
	for i, ev := range near {
		if i == maxShown {
			fmt.Fprintf(out, "  ... %d more\n", len(near)-maxShown)
			break
		}
		fmt.Fprintf(out, "  %-10v %-22s actor=%d subject=%d %s\n",
			time.Duration(ev.T).Round(time.Millisecond), ev.Type, ev.Actor, ev.Subject, ev.Info)
	}
	return nil
}
