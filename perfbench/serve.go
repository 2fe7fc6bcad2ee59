package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nwade/internal/chain"
	"nwade/internal/metrics"
	"nwade/internal/roadnet"
	"nwade/internal/serve"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// Serve workload shape: a closed loop of serveClients clients, each
// keeping serveOutstanding jobs in flight against a daemon with
// serveWorkers workers and the default 5 s checkpoint interval.
// servePasses is how many times the batch runs; serveSetups is how many
// times each cross4 job spec is built directly for the set-up figure.
const (
	servePasses      = 2
	serveSetups      = 4
	serveClients     = 2
	serveOutstanding = 2
	serveWorkers     = 2
	servePoll        = 20 * time.Millisecond
	serveCkpt        = 5 * time.Second
)

// jobBody is a POST /jobs submission.
type jobBody struct {
	Network      string  `json:"network,omitempty"`
	Intersection string  `json:"intersection,omitempty"`
	Density      float64 `json:"density"`
	Duration     string  `json:"duration"`
	Seed         int64   `json:"seed"`
	Scenario     string  `json:"scenario"`
	AttackAt     string  `json:"attack_at,omitempty"`
	KeyBits      int     `json:"keybits"`
	Client       string  `json:"client"`
}

// jobStatus is the part of GET /jobs/{id} the clients read.
type jobStatus struct {
	ID    string         `json:"id"`
	State serve.JobState `json:"state"`
	Spec  snap.Spec      `json:"spec"`
}

// jobRecord is what one client observed of one job.
type jobRecord struct {
	id      string
	spec    snap.Spec
	submit  time.Time
	running time.Time // first status poll that saw it running (or later)
	done    time.Time
	digest  string
	failed  bool
	simTime time.Duration
}

// serveBodies draws the job mix from the seed: a pool of two cross4
// IM_V1 jobs and two grid:2x2 network jobs that the clients cycle
// through, alternating kinds.
func serveBodies(b *bench) [2][2]jobBody {
	dur := b.size.serveSim.String()
	var pool [2][2]jobBody
	for k := range 2 {
		pool[0][k] = jobBody{
			Intersection: "cross4", Density: 80, Duration: dur, Seed: b.scenarioSeed(),
			Scenario: "IM_V1", AttackAt: paperAttackAt.String(), KeyBits: chain.DefaultKeyBits,
		}
		pool[1][k] = jobBody{
			Network: "grid:2x2", Intersection: "cross4", Density: 80, Duration: dur,
			Seed: b.scenarioSeed(), Scenario: "benign", KeyBits: chain.DefaultKeyBits,
		}
	}
	return pool
}

// serveClient is one closed-loop client with its own single connection.
type serveClient struct {
	name string
	base string
	hc   *http.Client

	submitT, statusT, resultT []time.Duration
	refused, failed           int
	jobs                      []*jobRecord
}

func (c *serveClient) do(method, path string, body []byte, into any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return resp.StatusCode, d, err
	}
	if into != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, into); err != nil {
			return resp.StatusCode, d, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, d, nil
}

// loop submits n jobs, keeping serveOutstanding in flight, and polls
// their status until every one has ended.
func (c *serveClient) loop(n int, next func(k int) jobBody) error {
	var live []*jobRecord
	submitted := 0
	for submitted < n || len(live) > 0 {
		for len(live) < serveOutstanding && submitted < n {
			body := next(submitted)
			body.Client = c.name
			submitted++
			data, err := json.Marshal(body)
			if err != nil {
				return err
			}
			var st jobStatus
			at := time.Now()
			code, d, err := c.do("POST", "/jobs", data, &st)
			if err != nil {
				return err
			}
			c.submitT = append(c.submitT, d)
			j := &jobRecord{submit: at}
			c.jobs = append(c.jobs, j)
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				c.refused++
				j.failed = true
				continue
			}
			if code/100 != 2 {
				return fmt.Errorf("submit: HTTP %d", code)
			}
			j.id = st.ID
			live = append(live, j)
		}
		time.Sleep(servePoll)
		kept := live[:0]
		for _, j := range live {
			var st jobStatus
			code, d, err := c.do("GET", "/jobs/"+j.id, nil, &st)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("status %s: HTTP %d", j.id, code)
			}
			c.statusT = append(c.statusT, d)
			now := time.Now()
			if st.State != serve.JobQueued && j.running.IsZero() {
				j.running = now
			}
			switch st.State {
			case serve.JobDone:
				j.done = now
				j.spec = st.Spec
				var res serve.JobResult
				code, d, err := c.do("GET", "/jobs/"+j.id+"/result", nil, &res)
				if err != nil {
					return err
				}
				if code != http.StatusOK {
					return fmt.Errorf("result %s: HTTP %d", j.id, code)
				}
				c.resultT = append(c.resultT, d)
				j.digest = res.Digest
				j.simTime = st.Spec.Duration
			case serve.JobFailed, serve.JobCanceled:
				j.done = now
				j.failed = true
				c.failed++
			default:
				kept = append(kept, j)
			}
		}
		live = kept
	}
	return nil
}

// metricsz reads one counter from the daemon's /metricsz page.
func metricsz(c *serveClient, name string) (float64, error) {
	req, err := http.NewRequest("GET", c.base+"/metricsz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metricsz: no %s", name)
}

// fastest keeps the smaller of the best so far and d; pass 0 has no
// best yet.
func fastest(pass int, best, d time.Duration) time.Duration {
	if pass == 0 {
		return d
	}
	return min(best, d)
}

// servePass runs one closed-loop batch, n jobs per client, against the
// daemon at addr and returns its clients and wall time.
func servePass(addr string, n int, pool [2][2]jobBody) ([]*serveClient, time.Duration, error) {
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{
			name: fmt.Sprintf("c%d", i),
			base: "http://" + addr,
			hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.loop(n, func(k int) jobBody {
				return pool[k%2][(k/2+i)%2]
			})
		}()
	}
	wg.Wait()
	return clients, time.Since(start), errors.Join(errs...)
}

func runServe(b *bench) error {
	pool := serveBodies(b)
	srv, err := serve.New(serve.Options{Dir: filepath.Join(b.dir, "serve"), Workers: serveWorkers, CheckpointEvery: serveCkpt})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var clients []*serveClient
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		hs.Shutdown(context.Background())
		<-served
		srv.Close()
	}
	defer stop()

	// The batch runs servePasses times against the same daemon. Host
	// contention only ever slows a pass, so the throughput figures are
	// the fastest pass's.
	addr := ln.Addr().String()
	var bestBatch time.Duration
	var bestRate float64
	var lat []time.Duration
	for pass := range servePasses {
		pc, batch, err := servePass(addr, b.size.serveJobs, pool)
		clients = append(clients, pc...)
		if err != nil {
			return err
		}
		var simTime time.Duration
		for _, c := range pc {
			for _, j := range c.jobs {
				if !j.failed {
					lat = append(lat, j.done.Sub(j.submit))
					simTime += j.simTime
				}
			}
		}
		bestBatch = fastest(pass, bestBatch, batch)
		bestRate = max(bestRate, simTime.Seconds()/batch.Seconds())
	}
	var reqs float64
	if b.trace {
		if reqs, err = metricsz(clients[0], "nwade_http_requests_total"); err != nil {
			return err
		}
	}
	stop()

	var submitT, statusT, resultT, wait, runT []time.Duration
	var refused, failed int
	var jobs []*jobRecord
	for _, c := range clients {
		jobs = append(jobs, c.jobs...)
		submitT = append(submitT, c.submitT...)
		statusT = append(statusT, c.statusT...)
		resultT = append(resultT, c.resultT...)
		refused += c.refused
		failed += c.failed
		for _, j := range c.jobs {
			if !j.failed {
				wait = append(wait, j.running.Sub(j.submit))
				runT = append(runT, j.done.Sub(j.running))
			}
		}
	}
	for _, j := range jobs {
		if j.failed {
			b.op("job "+j.id, fmt.Errorf("refused or failed"))
		}
	}
	perPass := serveClients * b.size.serveJobs
	b.setE2E("sim_rate", bestRate, "sim-s/s")
	// A pass holds too few jobs for a steady median, so the latency
	// median pools both passes.
	b.setE2E("job_p50_s", median(lat).Seconds(), "s")
	b.setE2E("jobs_per_s", float64(perPass)/bestBatch.Seconds(), "1/s")
	b.setE2E("sweep_s", bestBatch.Seconds(), "s")
	b.facts["job_samples"] = len(lat)
	b.facts["passes"] = servePasses
	b.facts["jobs_submitted"] = len(jobs)
	b.facts["sim_seconds_per_job"] = b.size.serveSim.Seconds()
	b.facts["key_bits"] = chain.DefaultKeyBits
	b.facts["clients"] = serveClients
	b.facts["serve_workers"] = serveWorkers

	// Reference: a direct sim.New / roadnet.New run of each distinct
	// spec, with the daemon shut down. It checkpoints as the daemon does
	// and gives the memory figure (see replayJob), the mean over the
	// specs. The construction of a
	// cross4 spec is the set-up each of those jobs pays. In a traced run
	// the first network replay feeds the roadnet layer and the first
	// cross4 replay the snap layer.
	refs := map[string]string{}
	var heaps []float64
	var netDone, engDone bool
	for _, j := range jobs {
		if j.failed {
			continue
		}
		key := fmt.Sprintf("%+v", j.spec)
		want, ok := refs[key]
		if !ok {
			if !j.spec.IsNetwork() {
				if err := serveSetupSamples(b, j.spec); err != nil {
					return err
				}
			}
			r, err := replayJob(j.spec, b.trace)
			if err != nil {
				return err
			}
			want = r.digest
			refs[key] = want
			heaps = append(heaps, r.heapMB)
			switch {
			case !b.trace:
			case r.net != nil && !netDone:
				netDone = true
				b.roadnetLayers(r.net, r.steps)
			case r.net == nil && !engDone:
				engDone = true
				b.snapLayers(r)
			}
		}
		b.checkDigest("job "+j.id, j.digest, want)
	}
	b.setE2E("peak_heap_mb", mean(heaps), "MB")
	if !b.trace {
		return nil
	}
	b.setLayer("serve.submit_ms", ms(median(submitT)), "ms")
	b.setLayer("serve.status_ms", ms(median(statusT)), "ms")
	b.setLayer("serve.result_ms", ms(median(resultT)), "ms")
	b.setLayer("serve.queue_wait_s", median(wait).Seconds(), "s")
	b.setLayer("serve.run_s", median(runT).Seconds(), "s")
	b.setLayer("serve.refused", float64(refused), "count")
	b.setLayer("serve.failed", float64(failed), "count")
	b.setLayer("serve.http_requests", reqs, "count")
	b.facts["http_samples"] = map[string]int{"submit": len(submitT), "status": len(statusT), "result": len(resultT)}
	return nil
}

// serveSetupSamples times serveSetups direct builds of a cross4 job
// spec: the key and geometry each such job pays.
func serveSetupSamples(b *bench, spec snap.Spec) error {
	cfg, err := spec.Scenario()
	if err != nil {
		return err
	}
	for range serveSetups {
		t0 := time.Now()
		if _, err := sim.New(cfg); err != nil {
			return err
		}
		b.setupSample(time.Since(t0))
	}
	return nil
}

// jobReplay is a direct run of a serve job's spec.
type jobReplay struct {
	digest string
	// heapMB is the largest live heap at a checkpoint.
	heapMB float64
	// net is the network of a network spec; steps are its Step wall
	// times (traced runs only).
	net   *roadnet.Network
	steps []time.Duration
	// Per-checkpoint snapshot, encode and decode times and encoded
	// sizes of a cross4 spec (traced runs only; decode runs only then).
	shot, enc, dec []time.Duration
	size           []float64
}

// replayJob runs a job's spec through sim.New or roadnet.New and Step,
// snapshotting it at each serveCkpt boundary as the daemon does. With
// the engine and the snapshot held it forces GC cycles and reads the
// live heap; the largest reading is what a daemon worker holds at a
// checkpoint, before encoding. It is read here, not in the timed passes,
// because the daemon's heap runs to hundreds of MB: the runtime's own
// cycles are seconds apart there, and the few live-heap readings they
// give land at chance moments. Traced runs also encode and decode each
// checkpoint of a cross4 spec.
func replayJob(spec snap.Spec, trace bool) (*jobReplay, error) {
	cfg, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	r := &jobReplay{}
	var s stepper
	var snapshot func() (any, error)
	if spec.IsNetwork() {
		n, err := roadnet.New(cfg)
		if err != nil {
			return nil, err
		}
		r.net, s = n, n
		snapshot = func() (any, error) { return n.Snapshot() }
	} else {
		eng, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		s = eng
		snapshot = func() (any, error) { return eng.Snapshot() }
	}
	next := serveCkpt
	for s.Now() < cfg.Duration {
		t := time.Now()
		s.Step()
		if trace && r.net != nil {
			r.steps = append(r.steps, time.Since(t))
		}
		if s.Now() < next {
			continue
		}
		next += serveCkpt
		t0 := time.Now()
		st, err := snapshot()
		if err != nil {
			return nil, err
		}
		shot := time.Since(t0)
		r.heapMB = max(r.heapMB, heldHeapMB())
		runtime.KeepAlive(st)
		if !trace || r.net != nil {
			continue
		}
		var buf bytes.Buffer
		t1 := time.Now()
		if err := snap.Encode(&buf, spec, st.(*sim.State)); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, _, err := snap.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
		r.dec = append(r.dec, time.Since(t2))
		r.shot = append(r.shot, shot)
		r.enc = append(r.enc, t2.Sub(t1))
		r.size = append(r.size, float64(buf.Len()))
	}
	if r.net != nil {
		r.digest = r.net.Digest()
	} else {
		r.digest = metrics.Digest(s.(*sim.Engine).Result())
	}
	return r, nil
}

// stepper is a sim.Engine or a roadnet.Network.
type stepper interface {
	Now() time.Duration
	Step()
}

// snapLayers reports the checkpoint timings of a cross4 job replay.
func (b *bench) snapLayers(r *jobReplay) {
	b.setLayer("snap.snapshot_ms", ms(median(r.shot)), "ms")
	b.setLayer("snap.encode_ms", ms(median(r.enc)), "ms")
	b.setLayer("snap.decode_ms", ms(median(r.dec)), "ms")
	b.setLayer("snap.bytes", median(r.size), "B")
	b.facts["checkpoint_samples"] = len(r.shot)
}
