// Per-cell sweep resume: finished simulation rounds persist to a cell
// store (Queue) so an interrupted multi-hour sweep restarts where it
// stopped instead of from zero. A cell's key digests everything that
// determines its outcome — the harness configuration and the full round
// configuration — so a stale store entry (different code knobs, seeds,
// or sweeps) simply misses and the cell re-runs.
//
// The shared signing key is deliberately NOT part of the key: protocol
// outcomes are key-independent (signature sizes are fixed by KeyBits and
// verification always succeeds), so cells stored by a previous process
// with a different key remain valid.
package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nwade/internal/attack"
	"nwade/internal/metrics"
	"nwade/internal/plan"
	"nwade/internal/vnet"
)

// --- outcome serialization --------------------------------------------

// outcomeRecord is the stored form of an outcome. metrics.RunResult
// carries a live *Collector, so the record flattens it to its state.
type outcomeRecord struct {
	Scenario    attack.Scenario
	Roles       attack.Roles
	Onsets      map[plan.VehicleID]time.Duration
	Violations  map[plan.VehicleID]time.Duration
	ResScenario string
	ResSeed     int64
	ResDuration time.Duration
	Retransmits int
	Net         vnet.Stats
	Collector   metrics.CollectorState
}

func encodeOutcome(o *outcome) ([]byte, error) {
	return json.Marshal(outcomeRecord{
		Scenario:    o.scenario,
		Roles:       o.roles,
		Onsets:      o.onsets,
		Violations:  o.violations,
		ResScenario: o.res.Scenario,
		ResSeed:     o.res.Seed,
		ResDuration: o.res.Duration,
		Retransmits: o.res.Retransmits,
		Net:         o.res.Net,
		Collector:   o.res.Collector.Snapshot(),
	})
}

func decodeOutcome(data []byte) (*outcome, error) {
	var rec outcomeRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	col := metrics.NewCollector()
	col.RestoreState(rec.Collector)
	return &outcome{
		res: metrics.RunResult{
			Scenario:    rec.ResScenario,
			Seed:        rec.ResSeed,
			Duration:    rec.ResDuration,
			Spawned:     rec.Collector.Spawned,
			Exited:      rec.Collector.Exited,
			Collisions:  rec.Collector.Collisions,
			Retransmits: rec.Retransmits,
			Net:         rec.Net,
			Collector:   col,
		},
		scenario:   rec.Scenario,
		roles:      rec.Roles,
		onsets:     rec.Onsets,
		violations: rec.Violations,
	}, nil
}

var outcomeCodec = CellCodec[*outcome]{Encode: encodeOutcome, Decode: decodeOutcome}

// harnessDigest identifies the harness knobs a stored cell depends on.
// Workers and Obs are excluded: neither changes results.
func (r *runner) harnessDigest() string {
	c := r.cfg
	h := sha256.New()
	fmt.Fprintf(h, "rounds=%d density=%g duration=%v attackAt=%v keybits=%d seed=%d faults=%+v resilience=%v settings=%q densities=%v",
		c.Rounds, c.Density, c.Duration, c.AttackAt, c.KeyBits, c.BaseSeed,
		c.Faults, c.Resilience, c.Settings, c.Densities)
	return hex.EncodeToString(h.Sum(nil))
}

// cellKey digests one round's full configuration (after harness knobs
// are applied) plus its position in the sweep.
func (r *runner) cellKey(harness string, i int, s simSpec) string {
	c := s.cfg
	schedName := c.Sched
	if c.Scheduler != nil {
		schedName = c.Scheduler.Name()
	}
	interName := ""
	if c.Inter != nil {
		interName = fmt.Sprintf("%v/%s", c.Inter.Kind, c.Inter.Name)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s|", harness, i, s.label)
	fmt.Fprintf(h, "inter=%s sched=%s dur=%v step=%v rate=%g seed=%d scen=%+v nwade=%v legacy=%g im=%+v veh=%+v net=%+v resilience=%v keybits=%d",
		interName, schedName, c.Duration, c.Step, c.RatePerMin, c.Seed, c.Attack,
		c.NWADE, c.LegacyFraction, c.IMConfig, c.VehicleConfig, c.Net, c.Resilience, c.KeyBits)
	return hex.EncodeToString(h.Sum(nil))
}
