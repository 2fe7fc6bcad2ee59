// Package cliconf is the shared scenario surface of the NWADE command
// line tools: one set of flags that resolves to a sim.Scenario, one
// checkpoint loader that handles both single-intersection and network
// files, and one runner (Run) that drives either kind. nwade-sim,
// nwade-replay and nwade-serve build their runs exclusively through this
// package, so a scenario means the same thing everywhere.
package cliconf

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/intersection"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
	"nwade/internal/vnet"
)

// Flags holds the parsed values of the shared scenario flags. Resolve
// them into a sim.Scenario with Build after flag parsing.
type Flags struct {
	Network      string
	Intersection string
	Density      float64
	Duration     time.Duration
	Seed         int64
	AttackName   string
	AttackAt     time.Duration
	AttackRegion int
	NWADE        bool
	KeyBits      int
	Faults       string
	Retrans      bool
	TickWorkers  int
}

// Defaults returns the flag values every tool starts from. Register
// installs exactly these as flag defaults; non-flag front ends (the
// nwade-serve JSON API) overlay submissions onto the same struct, so a
// field a client omits means what an unset flag means.
func Defaults() Flags {
	return Flags{
		Intersection: "cross4",
		Density:      80,
		Duration:     60 * time.Second,
		Seed:         1,
		AttackName:   "benign",
		AttackAt:     25 * time.Second,
		NWADE:        true,
		KeyBits:      1024,
		TickWorkers:  1,
	}
}

// Register installs the shared scenario flags on a flag set and returns
// the struct they parse into.
func Register(fs *flag.FlagSet) *Flags {
	d := Defaults()
	f := &Flags{}
	fs.StringVar(&f.Network, "network", d.Network, `road network: "grid:RxC" or "corridor:N" (empty = single intersection)`)
	fs.StringVar(&f.Intersection, "intersection", d.Intersection,
		"layout: "+strings.Join(intersection.KindNameList(), ", ")+"; with -network also \"mix\"")
	fs.Float64Var(&f.Density, "density", d.Density, "arrival rate in vehicles per minute (paper: 20-120)")
	fs.DurationVar(&f.Duration, "duration", d.Duration, "simulated time span")
	fs.Int64Var(&f.Seed, "seed", d.Seed, "random seed (runs are deterministic per seed)")
	fs.StringVar(&f.AttackName, "scenario", d.AttackName, "attack setting: benign, V1, V2, V3, V5, V10, IM, IM_V1..IM_V10")
	fs.DurationVar(&f.AttackAt, "attack-at", d.AttackAt, "when the compromise activates")
	fs.IntVar(&f.AttackRegion, "attack-region", d.AttackRegion, "region index mounting the attack (network runs only)")
	fs.BoolVar(&f.NWADE, "nwade", d.NWADE, "enable the NWADE mechanism (false = plain AIM baseline)")
	fs.IntVar(&f.KeyBits, "keybits", d.KeyBits, "IM signing key size (paper: 2048)")
	fs.StringVar(&f.Faults, "faults", d.Faults, "network fault profile ("+strings.Join(vnet.FaultProfileNames(), ", ")+")")
	fs.BoolVar(&f.Retrans, "retrans", d.Retrans, "enable the protocol retransmission layer (pair with -faults)")
	fs.IntVar(&f.TickWorkers, "tick-workers", d.TickWorkers,
		"region worker pool for -network runs (results are bit-identical for any value)")
	return f
}

// Build resolves the parsed flags into a scenario. The result carries
// names, not instances: sim.New or roadnet.New instantiate the layout
// and scheduler, so the same value round-trips through checkpoint specs.
func (f *Flags) Build() (sim.Scenario, error) {
	sc, ok := attack.ByName(f.AttackName, f.AttackAt)
	if !ok {
		return sim.Scenario{}, fmt.Errorf("unknown scenario %q", f.AttackName)
	}
	fc, err := vnet.ParseFaultProfile(f.Faults)
	if err != nil {
		return sim.Scenario{}, err
	}
	cfg := sim.Scenario{
		Network:      f.Network,
		Intersection: f.Intersection,
		Duration:     f.Duration,
		RatePerMin:   f.Density,
		Seed:         f.Seed,
		Attack:       sc,
		AttackRegion: f.AttackRegion,
		NWADE:        f.NWADE,
		KeyBits:      f.KeyBits,
		Resilience:   f.Retrans,
		Workers:      f.TickWorkers,
	}
	cfg.Net.Faults = fc
	if cfg.IsNetwork() {
		if _, _, err := cfg.NetworkDims(); err != nil {
			return sim.Scenario{}, err
		}
	} else {
		if f.AttackRegion != 0 {
			return sim.Scenario{}, fmt.Errorf("-attack-region needs -network")
		}
		if f.Intersection == "mix" {
			return sim.Scenario{}, fmt.Errorf(`layout "mix" needs -network`)
		}
		if _, err := cfg.BuildInter(); err != nil {
			return sim.Scenario{}, err
		}
	}
	return cfg, nil
}

// Checkpoint is a loaded checkpoint file: the spec, the scenario it
// rebuilds, and the run state it holds.
type Checkpoint struct {
	Spec snap.Spec
	Cfg  sim.Scenario
	State
}

// Signers restores the checkpoint's signing keys: one per region, a
// single intersection being one region.
func (c *Checkpoint) Signers() ([]*chain.Signer, error) {
	states := c.Regions()
	out := make([]*chain.Signer, len(states))
	for i, st := range states {
		s, err := chain.RestoreSigner(st.Protocol.Signer)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Load reads a checkpoint of either kind and rebuilds its scenario.
func Load(path string) (*Checkpoint, error) {
	spec, st, raw, err := snap.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Spec: spec, State: State{Single: st}}
	if raw != nil {
		if c.Net, err = roadnet.DecodeState(raw); err != nil {
			return nil, err
		}
	}
	c.Cfg, err = c.Spec.Scenario()
	if err != nil {
		return nil, err
	}
	return c, nil
}
