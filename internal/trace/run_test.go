package trace_test

// fleet.Run over a checkpoint journal whose append fails: the error must
// come back from Run, and the journal must still load with every segment
// appended before the failure.

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunReportsFailedAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-cluster fleet per case")
	}
	members := make([]fleet.Member, 2)
	for c := range members {
		cfg := workload.DefaultConfig(workload.ClusterSeed(7, c))
		cfg.Days = 1
		members[c] = fleet.Member{Config: cfg, Mix: workload.DefaultMix(trace.Standard())}
	}
	// One shard appends cluster 0, then cluster 1, whose append fails.
	for _, tc := range []struct {
		name string
		n    int // bytes of cluster 1's record written; -1 fails its fsync
		done int // segments the journal keeps
	}{
		{"write fails on byte 100", 100, 1},
		{"fsync fails", -1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt.gz")
			injected := trace.FailAfterSync(t, tc.n)
			if _, err := fleet.Run(members, fleet.Options{Checkpoint: path}); !errors.Is(err, injected) {
				t.Fatalf("Run: got %v, want the injected error", err)
			}
			cp, err := trace.ReadFleetCheckpointFile(path)
			if err != nil {
				t.Fatalf("journal unreadable after the failed append: %v", err)
			}
			if len(cp.Done) != tc.done || cp.Done[0].Cluster != 0 {
				t.Fatalf("journal kept %d segments, want %d starting with cluster 0", len(cp.Done), tc.done)
			}
		})
	}
}
