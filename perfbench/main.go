// Command perfbench is the repository benchmark. One process runs one
// workload against the simulator, the road-network engine, the
// nwade-serve job API or the paper sweep; checks every output digest
// against a reference computed by a different path; and prints, as the
// last line of standard output, one JSON object holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload cross4-paper --seed 1 --seconds 10 --trace 0
//
// Layers are measured only from outside: by timing calls into each
// package's public functions, by timing decorators installed through the
// program's own extension points (sim.Scenario.Scheduler,
// eval.Config.Store), and by reading the obs counters and profile-mode
// phase spans. METRICS.md maps each per-layer metric to the end-to-end
// metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nwade/internal/chain"
)

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*bench) error
}

var workloads = []workload{
	{"cross4-paper", "the north-star operating point (cross4, 80 veh/min, 2048-bit keys, IM_V1 then benign): chain, plan, sched, vnet and nwade on the blocking path", runCross4},
	{"serve-jobs", "nwade-serve under a closed loop of 2 clients submitting cross4 and grid:2x2 jobs: dispatch, 5 s checkpoints (snap), roadnet and status reads on the blocking path of job latency", runServe},
	{"paper-sweep", "the reduced Fig. 4-8 sweep through a fresh cell queue: many short rounds, per-cell set-up, high-density scheduling and cell-store writes", runSweep},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one run's state: inputs, the digest gate's tallies, and the
// metrics and facts collected so far.
type bench struct {
	trace bool
	size  sizes
	dir   string
	rng   *rand.Rand
	log   io.Writer

	attempted int
	failed    int

	e2e    map[string]metric
	layer  map[string]metric
	facts  map[string]any
	setups []time.Duration
	// signer is a paper-size key made by the traced run's set-up layer
	// timing, reused for the chain replay.
	signer *chain.Signer
	// corruptRef makes the digest gate compare against a deliberately
	// wrong reference (self-test of the gate).
	corruptRef bool
}

func newBench(o runOpts, dir string, log io.Writer) *bench {
	return &bench{
		trace:      o.trace,
		size:       o.size,
		dir:        dir,
		rng:        rand.New(rand.NewSource(o.seed)),
		log:        log,
		e2e:        map[string]metric{},
		layer:      map[string]metric{},
		facts:      map[string]any{},
		corruptRef: o.corruptRef,
	}
}

// scenarioSeed draws the next program-visible seed from the benchmark
// seed, so the program only ever sees generated inputs.
func (b *bench) scenarioSeed() int64 { return b.rng.Int63n(1<<31-1) + 1 }

// op counts one attempted operation; a non-nil err counts it failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
	}
}

// checkDigest is the correctness gate: one attempted operation that
// fails when the run's digest differs from the reference.
func (b *bench) checkDigest(what, got, want string) {
	if b.corruptRef {
		want = "corrupt-" + want
	}
	var err error
	if got != want {
		err = fmt.Errorf("digest %s, reference %s", short(got), short(want))
	}
	b.op(what, err)
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

func (b *bench) setE2E(name string, v float64, unit string)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// setupSample records one set-up: the wall time from scenario to the
// first Step.
func (b *bench) setupSample(d time.Duration) { b.setups = append(b.setups, d) }

// jobMetrics fills the job-level end-to-end metrics from the per-job
// wall times of a fixed batch that took batch to finish.
func (b *bench) jobMetrics(jobs []time.Duration, batch time.Duration) {
	b.setE2E("job_p50_s", median(jobs).Seconds(), "s")
	b.setE2E("jobs_per_s", float64(len(jobs))/batch.Seconds(), "1/s")
	b.setE2E("sweep_s", batch.Seconds(), "s")
	b.facts["job_samples"] = len(jobs)
}

// errorRate is failed operations over attempted.
func (b *bench) errorRate() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "workload seed: scenarios, job bodies and sweep configs derive from it")
		seconds = fs.Int("seconds", 10, "target measured wall time of the run")
		trace   = fs.Int("trace", 0, "1 = traced run printing per-layer metrics instead of end-to-end ones")
		workdir = fs.String("workdir", ".bench_build/work", "scratch directory for state dirs and cell stores (emptied per run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := runOpts{seed: *seed, trace: *trace == 1, size: sizesFor(*seconds), workdir: *workdir}
	b, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOpts are the inputs of one run.
type runOpts struct {
	seed    int64
	trace   bool
	size    sizes
	workdir string
	// corruptRef makes the digest gate compare against a deliberately
	// wrong reference (self-test of the gate).
	corruptRef bool
}

// runWorkload runs one workload in a fresh scratch directory and prints
// its human-readable report to log.
func runWorkload(w workload, o runOpts, log io.Writer) (*bench, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := newBench(o, dir, log)
	fmt.Fprintf(log, "workload %s: %s\n", w.name, w.why)
	if o.trace {
		if err := b.setupLayers(3); err != nil {
			return nil, err
		}
	}
	if err := w.run(b); err != nil {
		return nil, err
	}
	b.setE2E("setup_s", median(b.setups).Seconds(), "s")
	b.facts["setup_samples"] = len(b.setups)
	b.facts["workload"] = w.name
	b.facts["why"] = w.why
	b.facts["seed"] = o.seed
	b.facts["trace"] = o.trace
	b.facts["nproc"] = runtime.NumCPU()
	b.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.facts["go_version"] = runtime.Version()
	b.facts["error_rate"] = b.errorRate()
	if o.trace {
		b.fillLayers()
	}
	b.report(log)
	return b, nil
}

// result is the object printed last: the end-to-end metrics, or the
// per-layer ones of a traced run.
func (b *bench) result() *result {
	metrics := b.e2e
	if b.trace {
		metrics = b.layer
	}
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
}

// report prints the facts, every end-to-end metric (error_rate
// included, which the result object carries as failed/attempted) and,
// in a traced run, every per-layer metric.
func (b *bench) report(w io.Writer) {
	facts, err := json.Marshal(b.facts)
	if err == nil {
		fmt.Fprintf(w, "facts %s\n", facts)
	}
	fmt.Fprintf(w, "end-to-end:\n")
	printMetrics(w, b.e2e)
	fmt.Fprintf(w, "  %-34s %14.6g %s\n", "error_rate", b.errorRate(), "ratio")
	if b.trace {
		fmt.Fprintf(w, "per-layer:\n")
		printMetrics(w, b.layer)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
