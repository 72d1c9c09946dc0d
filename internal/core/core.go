// Package core is the library facade: one type that wires together
// kernel profile measurement on the POWER2 CPU model and the definition of
// the nine-month PBS workload campaign (run through internal/fleet, one
// cluster or many). internal/analysis regenerates every table and figure
// of Bergeron's SC'98 measurement study from the campaign's Result.
//
// Typical use:
//
//	sys := core.New(core.Config{Seed: 1})
//	members, err := sys.FleetMembers(0) // one 270-day, 144-node cluster
//	res, err := fleet.Run(members, fleet.Options{})
//	fmt.Print(analysis.ComputeTable2(res).Render())
//
// Lower layers remain importable for finer control: power2 (the CPU),
// hpm (the counter architecture), rs2hpm (the daemon/collector), mpi/hps
// (message passing), pbs (the batch system) and workload (the campaign).
package core

import (
	"fmt"
	"runtime"

	"repro/internal/profile"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Config selects the campaign scale. Zero Days and Nodes inherit the
// campaign definition: the spec's campaign block, or the paper's 270
// days on 144 nodes without a spec.
type Config struct {
	Days  int
	Nodes int
	Seed  uint64
	// Workers is the profile-measurement width: at most this many kernel
	// micro-simulations in flight; zero picks GOMAXPROCS. Campaigns run
	// serially per cluster whatever its value, and results are
	// bit-identical for every value.
	Workers int
}

// System is a configured reproduction: measured kernel profiles plus the
// campaign and analysis plumbing.
type System struct {
	cfg Config
	std profile.Standard
	mix workload.Mix
	// base is the campaign block every cluster starts from: the spec's
	// when the system was built with NewWithSpec, else DefaultConfig.
	base workload.Config
	// sp is the source spec when built with NewWithSpec; FleetMembers
	// resolves its fleet block, whose per-cluster overrides base cannot
	// carry.
	sp *spec.Spec
}

// New measures the standard kernel profiles (a few hundred thousand
// simulated instructions each) and returns a ready System running the
// built-in paper-1996 workload.
func New(cfg Config) *System {
	s := measure(cfg)
	s.mix = workload.DefaultMix(s.std)
	s.base = workload.DefaultConfig(cfg.Seed)
	return s
}

// NewWithSpec measures the standard kernel profiles and resolves the
// given workload spec against them: the declarative path into the same
// facade. Seed and Workers are always the caller's.
func NewWithSpec(cfg Config, sp *spec.Spec) (*System, error) {
	s := measure(cfg)
	var err error
	if s.base, s.mix, err = spec.Resolve(sp, s.std); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.sp = sp
	return s, nil
}

// Profiles exposes the measured kernel signatures.
func (s *System) Profiles() profile.Standard { return s.std }

// measure resolves the worker count and measures the standard profiles.
func measure(cfg Config) *System {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &System{cfg: cfg, std: profile.MeasureStandardWorkers(cfg.Seed, cfg.Workers)}
}
