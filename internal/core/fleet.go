package core

// The fleet definition: the members internal/fleet runs, from the spec's
// fleet block, an explicit cluster count, or a fleet of one.

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

// FleetMembers builds the fleet definition the system runs through
// fleet.Run: per-cluster campaign configs with substream-derived seeds
// and the shared mix. clusters > 0 forces that many homogeneous copies
// of the base campaign; 0 defers to the spec's fleet block (a fleet of
// one without a spec, or when the spec has no fleet block). Non-zero
// Config.Days/Nodes override every cluster; zero values inherit the
// campaign block and the spec's per-cluster overrides. A cluster with
// fewer days than one, or fewer nodes than the largest job its mix can
// draw, is an error: its campaign could not run to the end.
func (s *System) FleetMembers(clusters int) ([]fleet.Member, error) {
	cfgs := []workload.Config{s.base}
	switch {
	case clusters > 0:
		cfgs = make([]workload.Config, clusters)
		for i := range cfgs {
			cfgs[i] = s.base
		}
	case s.sp != nil && s.sp.Fleet != nil:
		var err error
		if cfgs, _, err = spec.ResolveFleet(s.sp, s.std); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	maxJob := s.mix.MaxJobNodes()
	members := make([]fleet.Member, len(cfgs))
	for i, c := range cfgs {
		if s.cfg.Days != 0 {
			c.Days = s.cfg.Days
		}
		if s.cfg.Nodes != 0 {
			c.Nodes = s.cfg.Nodes
		}
		c.Seed = workload.ClusterSeed(s.cfg.Seed, i)
		switch {
		case c.Days < 1:
			return nil, fmt.Errorf("core: cluster %d has %d days, want at least 1", i, c.Days)
		case c.Nodes < maxJob:
			return nil, fmt.Errorf("core: cluster %d has %d nodes, but its mix can draw a %d-node job", i, c.Nodes, maxJob)
		}
		members[i] = fleet.Member{Config: c, Mix: s.mix}
	}
	return members, nil
}
