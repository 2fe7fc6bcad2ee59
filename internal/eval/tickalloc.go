package eval

import (
	"fmt"
	"runtime"
	"time"

	"nwade/internal/intersection"
	"nwade/internal/sim"
)

// TickAllocResult measures the engine's steady-state heap traffic: how
// many allocations and bytes one tick costs once the reference scenario
// has warmed up and the arrival stream is closed. The numbers are heap
// counters, not wall-clock, so they are stable across machines; the CI
// gate pins them through nwade-benchdiff (allocs_per_tick /
// bytes_per_tick in the bench JSON).
type TickAllocResult struct {
	// WarmupTicks ran before measurement started (spawning stops at
	// SpawnCutoff; the rest of the warm-up drains in-flight crossings
	// and block traffic).
	WarmupTicks int
	// Ticks is the measured window.
	Ticks int
	// AllocsPerTick and BytesPerTick are the mallocs / bytes-allocated
	// deltas averaged over the window.
	AllocsPerTick float64
	BytesPerTick  float64
}

func init() {
	Register("tickalloc", Meta{
		Desc:  "Steady-state heap allocations per engine tick (closed system)",
		Group: "perf",
		Order: 111,
	}, func(cfg Config) (Result, error) { return TickAlloc(cfg) })
}

// tickAllocSpec pins the measurement scenario: the golden-digest
// reference intersection and density, arrivals cut off at 20s, warmed
// until every spawned vehicle has crossed or settled and block issuance
// has drained.
const (
	tickAllocCutoff = 20 * time.Second
	tickAllocWarm   = 45 * time.Second
	tickAllocTicks  = 1000
)

// TickAlloc builds the reference closed-system scenario, warms it to
// steady state, and measures runtime.MemStats deltas over a fixed tick
// window.
func TickAlloc(cfg Config) (*TickAllocResult, error) {
	cfg = cfg.Normalize()
	inter, err := intersection.Cross4(intersection.Config{}, 2)
	if err != nil {
		return nil, err
	}
	e, err := sim.New(sim.Scenario{
		Inter:       inter,
		Duration:    time.Hour,
		RatePerMin:  cfg.Density,
		Seed:        cfg.BaseSeed,
		NWADE:       true,
		KeyBits:     cfg.KeyBits,
		SpawnCutoff: tickAllocCutoff,
	})
	if err != nil {
		return nil, err
	}
	warm := 0
	for e.Now() < tickAllocWarm {
		e.Step()
		warm++
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tickAllocTicks; i++ {
		e.Step()
	}
	runtime.ReadMemStats(&after)
	return &TickAllocResult{
		WarmupTicks:   warm,
		Ticks:         tickAllocTicks,
		AllocsPerTick: float64(after.Mallocs-before.Mallocs) / tickAllocTicks,
		BytesPerTick:  float64(after.TotalAlloc-before.TotalAlloc) / tickAllocTicks,
	}, nil
}

// String renders the measurement.
func (r *TickAllocResult) String() string {
	return fmt.Sprintf(
		"Tick allocations — closed system, steady state\n"+
			"  warm-up: %d ticks (spawn cutoff %v, measured from %v)\n"+
			"  window:  %d ticks\n"+
			"  allocs/tick: %.3f\n"+
			"  bytes/tick:  %.1f",
		r.WarmupTicks, tickAllocCutoff, tickAllocWarm,
		r.Ticks, r.AllocsPerTick, r.BytesPerTick)
}
