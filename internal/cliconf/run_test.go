package cliconf

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nwade/internal/metrics"
	"nwade/internal/snap"
)

// TestRunCheckpointRoundTrip drives both run kinds through the shared
// runner: fresh, checkpointed at T, reopened from the file and
// finished. The reopened run must end on the uninterrupted run's digest,
// a cloned state must digest like its source, and the subsystem keys
// must be the ones nwade-replay bisect reports.
func TestRunCheckpointRoundTrip(t *testing.T) {
	var gridKeys []string
	for i := 0; i < 4; i++ {
		for _, sub := range []string{"engine", "traffic", "net", "protocol", "collector"} {
			gridKeys = append(gridKeys, fmt.Sprintf("r%d/%s", i, sub))
		}
	}
	gridKeys = append(gridKeys, "backbone")
	for _, tc := range []struct {
		name    string
		network string
		regions int
		keys    []string
	}{
		{"cross4", "", 0, []string{"engine", "traffic", "net", "protocol", "collector"}},
		{"grid:2x2", "grid:2x2", 4, gridKeys},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := Defaults()
			f.Network = tc.network
			f.AttackName, f.AttackAt = "V1", 2*time.Second
			f.Duration = 6 * time.Second
			f.KeyBits = 512
			cfg, err := f.Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Open(cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Finish()
			if want.Regions != tc.regions || len(want.PerRegion) != max(tc.regions, 1) {
				t.Fatalf("Result regions = %d/%d, want %d", want.Regions, len(want.PerRegion), tc.regions)
			}
			if n := ref.Network(); n != nil {
				if want.Digest != n.Digest() {
					t.Error("network Result digest is not Network.Digest")
				}
			} else if want.Digest != metrics.Digest(ref.Engine().Result()) {
				t.Error("single Result digest is not metrics.Digest")
			}

			run, err := Open(cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			const at = 3 * time.Second
			for run.Now() < at {
				run.Step()
			}
			spec, err := snap.SpecFromScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ckpt.snap")
			if err := run.Checkpoint(path, spec); err != nil {
				t.Fatal(err)
			}
			st, err := run.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			digests, err := st.Digests()
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, d := range digests {
				keys = append(keys, d.Name)
			}
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Errorf("subsystem keys = %v, want %v", keys, tc.keys)
			}
			clone, err := st.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if cd, err := clone.Digests(); err != nil || !reflect.DeepEqual(cd, digests) {
				t.Errorf("Clone changed the digests (err %v)", err)
			}
			clone.Regions()[0].Protocol.IM.Nonce++
			if again, err := st.Digests(); err != nil || !reflect.DeepEqual(again, digests) {
				t.Errorf("mutating a clone changed its source (err %v)", err)
			}

			c, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.Now() != at || c.IsNetwork() != (tc.network != "") {
				t.Fatalf("loaded checkpoint at %v (network %v)", c.Now(), c.IsNetwork())
			}
			if ld, err := c.Digests(); err != nil || !reflect.DeepEqual(ld, digests) {
				t.Errorf("checkpoint file does not hold the snapshot (err %v)", err)
			}
			resumed, err := Open(c.Cfg, c, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := resumed.Finish(); got.Digest != want.Digest {
				t.Errorf("resumed digest %s, want the uninterrupted %s", got.Digest, want.Digest)
			}
			if got := run.Finish(); got.Digest != want.Digest {
				t.Errorf("checkpointed run's digest %s, want the uninterrupted %s", got.Digest, want.Digest)
			}
		})
	}
}
