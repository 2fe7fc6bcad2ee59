package cliconf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"nwade/internal/chain"
	"nwade/internal/metrics"
	"nwade/internal/obs"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// Run is one simulation, whichever engine it needs: a sim.Engine for a
// single intersection or a roadnet.Network for a road network. It is
// the only place that tells the two apart; nwade-sim, nwade-replay and
// nwade-serve step, checkpoint, snapshot and digest both kinds through
// it. Exactly one of eng and net is set.
type Run struct {
	cfg sim.Scenario
	eng *sim.Engine
	net *roadnet.Network
}

// Open builds a fresh run of cfg, or restores the checkpointed one when
// ckpt is non-nil (ckpt's state decides the kind; cfg must be the
// scenario it was taken from). sink, when non-nil, observes every
// engine — each region of a network. signers, when non-nil, supplies a
// fresh run's keys (one per region); a restore takes its keys from the
// checkpoint.
func Open(cfg sim.Scenario, ckpt *Checkpoint, sink *obs.Sink, signers []*chain.Signer) (*Run, error) {
	r := &Run{cfg: cfg.Normalize()}
	var err error
	switch {
	case ckpt != nil && ckpt.Net != nil:
		r.net, err = roadnet.Restore(cfg, ckpt.Net, roadnet.WithObs(sink))
	case ckpt != nil:
		r.eng, err = sim.Restore(cfg, ckpt.Single, sim.WithObs(sink))
	case cfg.IsNetwork():
		r.net, err = roadnet.New(cfg, roadnet.WithObs(sink), roadnet.WithSigners(signers))
	default:
		var signer *chain.Signer
		if len(signers) > 0 {
			signer = signers[0]
		}
		r.eng, err = sim.New(cfg, sim.WithObs(sink), sim.WithSigner(signer))
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Engine is the single-intersection engine (nil for a network).
func (r *Run) Engine() *sim.Engine { return r.eng }

// Network is the road network (nil for a single intersection).
func (r *Run) Network() *roadnet.Network { return r.net }

// Step advances one tick.
func (r *Run) Step() {
	if r.net != nil {
		r.net.Step()
		return
	}
	r.eng.Step()
}

// Now is the simulated clock.
func (r *Run) Now() time.Duration {
	if r.net != nil {
		return r.net.Now()
	}
	return r.eng.Now()
}

// Finish steps to the scenario's duration and returns the result.
func (r *Run) Finish() Result {
	for r.Now() < r.cfg.Duration {
		r.Step()
	}
	return r.Result()
}

// Result summarizes a run so far.
type Result struct {
	// Spawned, Exited, Collisions and Retransmits sum over every region.
	Spawned, Exited, Collisions, Retransmits int
	// Regions is a network's region count (0 for a single intersection).
	Regions int
	// PerRegion is each region's result; a single intersection is one.
	PerRegion []metrics.RunResult
	// Digest is the run's identity: metrics.Digest for a single
	// intersection, roadnet.Network.Digest for a network.
	Digest string
}

// Result summarizes the run so far, digest included.
func (r *Run) Result() Result {
	var out Result
	if r.net != nil {
		out.Regions = r.net.Regions()
		out.PerRegion = r.net.Results()
		out.Digest = r.net.Digest()
	} else {
		res := r.eng.Result()
		out.PerRegion = []metrics.RunResult{res}
		out.Digest = metrics.Digest(res)
	}
	for _, res := range out.PerRegion {
		out.Spawned += res.Spawned
		out.Exited += res.Exited
		out.Collisions += res.Collisions
		out.Retransmits += res.Retransmits
	}
	return out
}

// Snapshot captures the complete run state at the current tick.
func (r *Run) Snapshot() (State, error) {
	if r.net != nil {
		st, err := r.net.Snapshot()
		return State{Net: st}, err
	}
	st, err := r.eng.Snapshot()
	return State{Single: st}, err
}

// Checkpoint writes the current state and spec to path, in the file
// form Load reads back.
func (r *Run) Checkpoint(path string, spec snap.Spec) error {
	st, err := r.Snapshot()
	if err != nil {
		return err
	}
	return st.WriteFile(path, spec)
}

// State is a snapshot of a run of either kind: exactly one of Single
// and Net is set.
type State struct {
	// Single is set for single-intersection runs.
	Single *sim.State
	// Net is set for network runs.
	Net *roadnet.State
}

// IsNetwork reports which form the state holds.
func (s State) IsNetwork() bool { return s.Net != nil }

// Now is the simulated time the state was taken at.
func (s State) Now() time.Duration {
	if s.Net != nil {
		return s.Net.Now
	}
	return s.Single.Engine.Now
}

// Regions lists the per-intersection engine states: one per region, a
// single intersection being one region.
func (s State) Regions() []*sim.State {
	if s.Net != nil {
		return s.Net.Regions
	}
	return []*sim.State{s.Single}
}

// WriteFile writes the state under spec as a checkpoint file.
func (s State) WriteFile(path string, spec snap.Spec) error {
	if s.Net == nil {
		return snap.WriteFile(path, spec, s.Single)
	}
	raw, err := s.Net.Encode()
	if err != nil {
		return err
	}
	return snap.WriteNetFile(path, spec, raw)
}

// Clone deep-copies the state.
func (s State) Clone() (State, error) {
	if s.Net != nil {
		b, err := s.Net.Encode()
		if err != nil {
			return State{}, fmt.Errorf("clone: %w", err)
		}
		st, err := roadnet.DecodeState(b)
		return State{Net: st}, err
	}
	b, err := json.Marshal(s.Single)
	if err != nil {
		return State{}, fmt.Errorf("clone: %w", err)
	}
	out := &sim.State{}
	if err := json.Unmarshal(b, out); err != nil {
		return State{}, fmt.Errorf("clone: %w", err)
	}
	return State{Single: out}, nil
}

// SubsystemDigest fingerprints one subsystem's slice of a state.
type SubsystemDigest struct {
	Name, Sum string
}

// Digests fingerprints every subsystem of the state, in report order.
// A single intersection reports snap.Subsystems (engine … collector).
// A network reports them per region, qualified as rK/<subsystem>, then
// "backbone" for the cross-region state: inter-IM messages in flight,
// the suspect and head tables, and the handoff counters.
func (s State) Digests() ([]SubsystemDigest, error) {
	regions := s.Regions()
	out := make([]SubsystemDigest, 0, len(regions)*len(snap.Subsystems)+1)
	for i, rs := range regions {
		per, _, err := snap.Digests(rs)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		for _, sub := range snap.Subsystems {
			name := sub
			if s.Net != nil {
				name = fmt.Sprintf("r%d/%s", i, sub)
			}
			out = append(out, SubsystemDigest{Name: name, Sum: per[sub]})
		}
	}
	if s.Net == nil {
		return out, nil
	}
	cross := struct {
		Backbone any
		Tables   any
		Stats    roadnet.Stats
	}{s.Net.Backbone, s.Net.Tables, s.Net.Stats}
	b, err := json.Marshal(cross)
	if err != nil {
		return nil, fmt.Errorf("backbone digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return append(out, SubsystemDigest{Name: "backbone", Sum: hex.EncodeToString(sum[:])}), nil
}
