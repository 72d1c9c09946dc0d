package spec

// Fleet resolution: expanding a spec's fleet block into one campaign
// config per cluster. Like Resolve, this is pure wiring — every cluster
// starts as the resolved campaign block, overrides specialize
// individual members, and Seed stays zero for the caller
// (internal/core derives per-cluster seeds with workload.ClusterSeed).

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/workload"
)

// ResolveFleet compiles the spec into the per-cluster campaign configs of
// its fleet plus the fleet-wide Mix. A spec without a fleet block is a
// fleet of one — so callers can treat every scenario uniformly.
//
//hpmlint:pure a spec must resolve identically on every shard of a fleet
func ResolveFleet(s *Spec, std profile.Standard) ([]workload.Config, workload.Mix, error) {
	base, mix, err := Resolve(s, std)
	if err != nil {
		return nil, mix, err
	}
	n := 1
	if s.Fleet != nil {
		n = s.Fleet.Clusters
	}
	if n < 1 {
		return nil, mix, fmt.Errorf("spec %s: fleet.clusters must be >= 1 (got %d)", s.Name, n)
	}
	cfgs := make([]workload.Config, n)
	for i := range cfgs {
		cfgs[i] = base
	}
	if s.Fleet != nil {
		for _, ov := range s.Fleet.Overrides {
			if ov.Cluster < 0 || ov.Cluster >= n {
				return nil, mix, fmt.Errorf("spec %s: fleet override for cluster %d outside [0, %d)", s.Name, ov.Cluster, n)
			}
			c := &cfgs[ov.Cluster]
			if ov.Days > 0 {
				c.Days = ov.Days
			}
			if ov.Nodes > 0 {
				c.Nodes = ov.Nodes
			}
			if ov.MeanUtil > 0 {
				c.MeanUtil = ov.MeanUtil
			}
			if ov.UtilSigma > 0 {
				c.UtilSigma = ov.UtilSigma
			}
			if ov.PagingDayProb != nil {
				c.PagingDayProb = *ov.PagingDayProb
			}
		}
	}
	return cfgs, mix, nil
}
