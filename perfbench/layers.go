package main

import (
	"sync"
	"time"

	"nwade/internal/chain"
	"nwade/internal/eval"
	"nwade/internal/intersection"
	"nwade/internal/obs"
	"nwade/internal/plan"
	"nwade/internal/roadnet"
	"nwade/internal/sched"
)

// layerMetrics is every per-layer metric a traced run prints, with its
// unit. A layer the workload does not exercise reports 0: it did no
// work there.
var layerMetrics = []struct{ name, unit string }{
	{"sim.tick_p50_ms", "ms"},
	{"sim.tick_p99_ms", "ms"},
	{"sim.spawn_s", "s"},
	{"sim.deliver_s", "s"},
	{"sim.physics_s", "s"},
	{"sim.regrid_s", "s"},
	{"sim.im_s", "s"},
	{"sim.vehicles_s", "s"},
	{"sim.collisions_s", "s"},
	{"sim.deliver_items", "count"},
	{"sim.im_items", "count"},
	{"sim.vehicles_items", "count"},
	{"chain.blocks_packaged", "count"},
	{"chain.blocks_verified", "count"},
	{"chain.verify_per_block", "ratio"},
	{"chain.sig_checks", "count"},
	{"chain.merkle_checks", "count"},
	{"chain.package_us", "us"},
	{"chain.verify_us", "us"},
	{"chain.merkle_us", "us"},
	{"chain.keygen_ms", "ms"},
	{"plan.conflict_checks", "count"},
	{"plan.checkall_us", "us"},
	{"sched.calls", "count"},
	{"sched.busy_s", "s"},
	{"sched.schedule_us_p50", "us"},
	{"sched.admitted", "count"},
	{"sched.rejected", "count"},
	{"vnet.packets", "count"},
	{"vnet.bytes", "B"},
	{"vnet.delivered", "count"},
	{"vnet.dropped", "count"},
	{"nwade.local_reports", "count"},
	{"nwade.global_reports", "count"},
	{"nwade.votes_cast", "count"},
	{"nwade.direct_checks", "count"},
	{"nwade.self_evacuations", "count"},
	{"roadnet.step_p50_ms", "ms"},
	{"roadnet.step_p99_ms", "ms"},
	{"roadnet.region_wall_max_s", "s"},
	{"roadnet.region_wall_mean_s", "s"},
	{"roadnet.imbalance", "ratio"},
	{"roadnet.handoffs", "count"},
	{"roadnet.backbone_packets", "count"},
	{"intersection.build_ms.roundabout3", "ms"},
	{"intersection.build_ms.cross4", "ms"},
	{"intersection.build_ms.irregular5", "ms"},
	{"intersection.build_ms.cfi4", "ms"},
	{"intersection.build_ms.ddi4", "ms"},
	{"snap.snapshot_ms", "ms"},
	{"snap.encode_ms", "ms"},
	{"snap.bytes", "B"},
	{"snap.decode_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.refused", "count"},
	{"serve.failed", "count"},
	{"serve.http_requests", "count"},
	{"eval.cells", "count"},
	{"eval.fig4_s", "s"},
	{"eval.fig5_s", "s"},
	{"eval.fig6_s", "s"},
	{"eval.fig7_s", "s"},
	{"eval.fig8_s", "s"},
	{"eval.queue.try_lease_us", "us"},
	{"eval.queue.complete_us", "us"},
	{"eval.queue.busy_s", "s"},
	{"eval.queue.executed", "count"},
	{"eval.queue.loaded", "count"},
	{"eval.queue.conflicts", "count"},
	{"trace.sim_rate_untraced", "sim-s/s"},
	{"trace.sim_rate_traced", "sim-s/s"},
	{"trace.overhead", "ratio"},
}

// fillLayers gives every per-layer metric the workload left unset its
// zero value, so a traced run always prints the full list.
func (b *bench) fillLayers() {
	for _, m := range layerMetrics {
		if _, ok := b.layer[m.name]; !ok {
			b.setLayer(m.name, 0, m.unit)
		}
	}
}

// traceOverhead reports the traced sim_rate against the untraced one.
func (b *bench) traceOverhead(untraced, traced float64) {
	b.setLayer("trace.sim_rate_untraced", untraced, "sim-s/s")
	b.setLayer("trace.sim_rate_traced", traced, "sim-s/s")
	if traced > 0 {
		b.setLayer("trace.overhead", untraced/traced-1, "ratio")
	}
}

// obsLayers copies the obs counters of a traced run into the per-layer
// metrics, plus the tick phase spans when the sink was profiling.
func (b *bench) obsLayers(s *obs.Sink) {
	c := func(name string, id obs.Counter) { b.setLayer(name, float64(s.Counter(id)), "count") }
	c("chain.blocks_packaged", obs.CntBlocksPackaged)
	c("chain.blocks_verified", obs.CntBlocksVerified)
	c("chain.sig_checks", obs.CntSigChecks)
	c("chain.merkle_checks", obs.CntMerkleChecks)
	c("plan.conflict_checks", obs.CntConflictChecks)
	c("sched.admitted", obs.CntSchedAdmitted)
	c("sched.rejected", obs.CntSchedRejected)
	c("vnet.packets", obs.CntNetPackets)
	b.setLayer("vnet.bytes", float64(s.Counter(obs.CntNetBytes)), "B")
	c("vnet.delivered", obs.CntNetDelivered)
	c("vnet.dropped", obs.CntNetDropped)
	c("nwade.local_reports", obs.CntLocalReports)
	c("nwade.global_reports", obs.CntGlobalReports)
	c("nwade.votes_cast", obs.CntVotesCast)
	c("nwade.direct_checks", obs.CntDirectChecks)
	c("nwade.self_evacuations", obs.CntSelfEvacuations)
	if pk := s.Counter(obs.CntBlocksPackaged); pk > 0 {
		b.setLayer("chain.verify_per_block", float64(s.Counter(obs.CntBlocksVerified))/float64(pk), "ratio")
	}
	if !s.Profiling() {
		return
	}
	for _, sp := range s.Summary().Spans {
		switch sp.Path {
		case "tick/spawn", "tick/deliver", "tick/physics", "tick/regrid", "tick/im", "tick/vehicles", "tick/collisions":
			phase := sp.Path[len("tick/"):]
			b.setLayer("sim."+phase+"_s", float64(sp.WallNS)/1e9, "s")
			if phase == "deliver" || phase == "im" || phase == "vehicles" {
				b.setLayer("sim."+phase+"_items", float64(sp.Items), "count")
			}
		}
	}
}

// setupLayers times the two set-up layers every run pays: RSA key
// generation at the paper's key size and the geometry of each layout.
// The last key is kept in b.signer for the chain replay.
func (b *bench) setupLayers(keygens int) error {
	var kg []time.Duration
	for range keygens {
		t0 := time.Now()
		s, err := chain.NewSigner(chain.DefaultKeyBits)
		if err != nil {
			return err
		}
		kg = append(kg, time.Since(t0))
		b.signer = s
	}
	b.setLayer("chain.keygen_ms", ms(median(kg)), "ms")
	b.facts["keygen_samples"] = len(kg)
	for _, k := range intersection.Kinds() {
		var bs []time.Duration
		for range 3 {
			t0 := time.Now()
			if _, err := intersection.Build(k, intersection.Config{}); err != nil {
				return err
			}
			bs = append(bs, time.Since(t0))
		}
		b.setLayer("intersection.build_ms."+intersection.KindName(k), ms(median(bs)), "ms")
	}
	return nil
}

// roadnetLayers reads a finished network run: its per-Step wall times,
// the per-region Step wall (the slowest region sets the parallel tick),
// handoffs and backbone load.
func (b *bench) roadnetLayers(n *roadnet.Network, steps []time.Duration) {
	b.setLayer("roadnet.step_p50_ms", ms(median(steps)), "ms")
	b.setLayer("roadnet.step_p99_ms", ms(percentile(steps, 99)), "ms")
	walls := n.RegionWall()
	top := percentile(walls, 100)
	mean := sum(walls) / time.Duration(len(walls))
	b.setLayer("roadnet.region_wall_max_s", top.Seconds(), "s")
	b.setLayer("roadnet.region_wall_mean_s", mean.Seconds(), "s")
	b.setLayer("roadnet.imbalance", float64(top)/float64(mean), "ratio")
	b.setLayer("roadnet.handoffs", float64(n.Stats().Handoffs), "count")
	b.setLayer("roadnet.backbone_packets", float64(n.BackboneStats().TotalPackets()), "count")
	b.facts["step_samples"] = len(steps)
	b.facts["regions"] = n.Regions()
}

// chainReplay re-runs the public chain and plan calls of Algorithm 1 on
// a finished run's packaged blocks: package each block's plans again,
// verify signature, Merkle root and link, and check the plans against
// the cached window the way a vehicle does.
type chainReplay struct {
	pkg, verify, merkle, checkAll []time.Duration
}

func (r *chainReplay) run(signer *chain.Signer, inter *intersection.Intersection, window int, blocks []*chain.Block) error {
	checker := &plan.ConflictChecker{Inter: inter}
	cache := chain.NewChain(signer.Public(), window)
	var prev *chain.Block
	for _, ob := range blocks {
		t0 := time.Now()
		nb, err := chain.Package(signer, prev, ob.Timestamp, ob.Plans)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := chain.VerifySignature(signer.Public(), nb); err != nil {
			return err
		}
		t2 := time.Now()
		if err := chain.VerifyRoot(nb); err != nil {
			return err
		}
		t3 := time.Now()
		if err := chain.VerifyLink(prev, nb); err != nil {
			return err
		}
		t4 := time.Now()
		replanned := make(map[plan.VehicleID]bool, len(nb.Plans))
		for _, p := range nb.Plans {
			replanned[p.Vehicle] = true
		}
		var prior []*plan.TravelPlan
		for _, p := range cache.AllPlans() {
			if !replanned[p.Vehicle] {
				prior = append(prior, p)
			}
		}
		t5 := time.Now()
		checker.CheckAll(nb.Plans, nil)
		checker.CheckAll(nb.Plans, prior)
		t6 := time.Now()
		if err := cache.AppendVerified(nb); err != nil {
			return err
		}
		r.pkg = append(r.pkg, t1.Sub(t0))
		r.verify = append(r.verify, t4.Sub(t1))
		r.merkle = append(r.merkle, t3.Sub(t2))
		r.checkAll = append(r.checkAll, t6.Sub(t5))
		prev = nb
	}
	return nil
}

func (b *bench) chainLayers(r *chainReplay) {
	b.setLayer("chain.package_us", us(median(r.pkg)), "us")
	b.setLayer("chain.verify_us", us(median(r.verify)), "us")
	b.setLayer("chain.merkle_us", us(median(r.merkle)), "us")
	b.setLayer("plan.checkall_us", us(median(r.checkAll)), "us")
	b.facts["chain_replay_blocks"] = len(r.pkg)
}

// timedScheduler is a sched.Scheduler decorator timing every Schedule
// call. It forwards Name and the obs hook so the run's digests do not
// move.
type timedScheduler struct {
	inner sched.Scheduler
	calls []time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) SetObs(s *obs.Sink) {
	if oa, ok := t.inner.(sched.ObsAware); ok {
		oa.SetObs(s)
	}
}

func (t *timedScheduler) Schedule(reqs []sched.Request, now time.Duration, ledger *sched.Ledger) ([]*plan.TravelPlan, error) {
	t0 := time.Now()
	plans, err := t.inner.Schedule(reqs, now, ledger)
	t.calls = append(t.calls, time.Since(t0))
	return plans, err
}

func (b *bench) schedLayers(calls []time.Duration) {
	b.setLayer("sched.calls", float64(len(calls)), "count")
	b.setLayer("sched.busy_s", sum(calls).Seconds(), "s")
	b.setLayer("sched.schedule_us_p50", us(median(calls)), "us")
}

// timedQueue is an eval.Queue decorator timing the lease protocol.
type timedQueue struct {
	*eval.DirQueue
	mu       sync.Mutex
	lease    []time.Duration
	complete []time.Duration
	busy     time.Duration
}

func (q *timedQueue) TryLease(key string) (*eval.Lease, error) {
	t0 := time.Now()
	l, err := q.DirQueue.TryLease(key)
	d := time.Since(t0)
	q.mu.Lock()
	q.lease = append(q.lease, d)
	q.busy += d
	q.mu.Unlock()
	return l, err
}

func (q *timedQueue) Complete(l *eval.Lease, data []byte) error {
	t0 := time.Now()
	err := q.DirQueue.Complete(l, data)
	d := time.Since(t0)
	q.mu.Lock()
	q.complete = append(q.complete, d)
	q.busy += d
	q.mu.Unlock()
	return err
}
