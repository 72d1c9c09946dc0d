package spec

// Resolution: compiling a declarative spec into the concrete
// (workload.Config, workload.Mix) pair the campaign engine runs. The
// measured kernel profiles come in as a profile.Standard, so resolution
// itself simulates nothing — it is pure wiring, and is registered as a
// //hpmlint:pure root: the same spec and the same profile set must
// resolve identically on every worker of a parallel campaign.
//
// Resolve assumes a validated spec (LoadFile, Load and Preset all
// validate before returning); it re-checks only the cross-references it
// must dereference — kernel and client names — and reports those as
// errors rather than panicking, so a caller that skipped validation
// still fails cleanly.

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/workload"
)

// Resolve compiles the spec against a measured profile set. The returned
// Config carries the spec's campaign block with Seed left zero — it is
// an execution parameter, owned by the caller, not the scenario — and
// Scenario set to the spec name. The returned Mix is
// ready for workload.NewGenerator.
//
//hpmlint:pure a spec must resolve identically on every worker of a campaign
func Resolve(s *Spec, std profile.Standard) (workload.Config, workload.Mix, error) {
	cfg := workload.Config{
		Days:                s.Campaign.Days,
		Nodes:               s.Campaign.Nodes,
		Scenario:            s.Name,
		SamplePeriodSeconds: s.Campaign.SamplePeriodSeconds,
		MeanUtil:            s.Campaign.MeanUtil,
		UtilSigma:           s.Campaign.UtilSigma,
		PagingDayProb:       s.Campaign.PagingDayProb,
		MinRecordWall:       s.Campaign.MinRecordWallSeconds,
	}
	if cfg.SamplePeriodSeconds <= 0 {
		cfg.SamplePeriodSeconds = 900
	}
	if cfg.MinRecordWall <= 0 {
		cfg.MinRecordWall = 600
	}

	mix := workload.Mix{
		JobSize:       workload.PaperJobSize(),
		Runtime:       workload.PaperRuntime(),
		Quality:       workload.PaperQuality(),
		WeekendFactor: s.Campaign.WeekendFactor,
		Users:         s.Campaign.Users,
	}
	if mix.WeekendFactor <= 0 {
		mix.WeekendFactor = 1
	}
	if mix.Users <= 0 {
		mix.Users = workload.PaperUsers
	}
	if s.JobSize != nil {
		mix.JobSize = resolveSizeDist(s.JobSize)
	}
	if s.Runtime != nil {
		d, err := resolveDist(s.Runtime)
		if err != nil {
			return cfg, mix, fmt.Errorf("spec %s: runtime: %w", s.Name, err)
		}
		mix.Runtime = d
	}
	if s.Quality != nil {
		d, err := resolveDist(s.Quality)
		if err != nil {
			return cfg, mix, fmt.Errorf("spec %s: quality: %w", s.Name, err)
		}
		mix.Quality = d
	}

	mix.Clients = make([]workload.Client, len(s.Clients))
	for i := range s.Clients {
		cl, err := resolveClient(&s.Clients[i], std)
		if err != nil {
			return cfg, mix, fmt.Errorf("spec %s: clients[%d]: %w", s.Name, i, err)
		}
		mix.Clients[i] = cl
	}

	if lj := s.LargeJobs; lj != nil && lj.ThresholdNodes > 0 {
		pol := workload.LargeJobPolicy{ThresholdNodes: lj.ThresholdNodes}
		for _, ov := range lj.Overrides {
			ci, err := clientIndex(s.Clients, ov.Client)
			if err != nil {
				return cfg, mix, fmt.Errorf("spec %s: large_jobs: %w", s.Name, err)
			}
			pol.Overrides = append(pol.Overrides, workload.LargeJobOverride{Client: ci, Prob: ov.Prob})
		}
		fb, err := clientIndex(s.Clients, lj.Fallback)
		if err != nil {
			return cfg, mix, fmt.Errorf("spec %s: large_jobs: %w", s.Name, err)
		}
		pol.Fallback = fb
		mix.LargeJobs = pol
	}

	if f := s.Faults; f != nil {
		fc := faults.Config{
			CrashProbPerNodeDay:      f.CrashProbPerNodeDay,
			MeanOutageTicks:          f.MeanOutageTicks,
			DropProbPerSample:        f.DropProbPerSample,
			DupProbPerSample:         f.DupProbPerSample,
			RestartProbPerNodeDay:    f.RestartProbPerNodeDay,
			EpilogueDelayProb:        f.EpilogueDelayProb,
			EpilogueDelayMeanSeconds: f.EpilogueDelayMeanSeconds,
		}
		// An all-zero block resolves to no fault layer at all, keeping the
		// reduction bit-identical to a spec without the block.
		if fc.Enabled() {
			cfg.Faults = &fc
		}
	}
	return cfg, mix, nil
}

// resolveClient compiles one client entry into a workload.Client.
func resolveClient(c *Client, std profile.Standard) (workload.Client, error) {
	class, err := resolveClass(c, std)
	if err != nil {
		return workload.Client{}, err
	}
	out := workload.Client{
		Class:     class,
		Share:     fval(c.Share),
		Remainder: c.Remainder,
		Arrival:   resolveArrival(c.Arrival),
		Lifecycle: resolveLifecycle(c.Lifecycle),
	}
	// Paging-day share defaults to the everyday share: only classes whose
	// prevalence actually shifts on oversubscribed days declare it.
	out.PagingDayShare = out.Share
	if c.PagingDayShare != nil {
		out.PagingDayShare = *c.PagingDayShare
	}
	if c.JobSize != nil {
		sd := resolveSizeDist(c.JobSize)
		out.JobSize = &sd
	}
	if c.Runtime != nil {
		d, err := resolveDist(c.Runtime)
		if err != nil {
			return workload.Client{}, fmt.Errorf("runtime: %w", err)
		}
		out.Runtime = &d
	}
	return out, nil
}

// resolveClass builds the client's counter-signature class from its
// profile recipe: one kernel or a normalized weighted kernel sum,
// scaled, with the communication signature alongside.
func resolveClass(c *Client, std profile.Standard) (workload.Class, error) {
	p := &c.Profile
	var crunch profile.Profile
	if p.Kernel != "" {
		k, err := kernelProfile(std, p.Kernel)
		if err != nil {
			return workload.Class{}, err
		}
		crunch = k
	} else {
		wsum := 0.0
		for _, kw := range p.KernelMix {
			wsum += kw.Weight
		}
		if wsum <= 0 {
			return workload.Class{}, fmt.Errorf("profile: kernel_mix weights must sum to > 0")
		}
		for i, kw := range p.KernelMix {
			k, err := kernelProfile(std, kw.Kernel)
			if err != nil {
				return workload.Class{}, err
			}
			k = k.Scale(kw.Weight / wsum)
			if i == 0 {
				crunch = k
			} else {
				crunch = crunch.Plus(k)
			}
		}
	}
	scale := p.Scale
	if scale <= 0 {
		scale = 1
	}
	// Scale unconditionally: multiplying by exactly 1.0 is a bitwise
	// identity on every rate, so the default costs nothing and the code
	// avoids a float equality test.
	crunch = crunch.Scale(scale)

	ck := p.CommKernel
	if ck == "" {
		ck = "comm"
	}
	comm, err := kernelProfile(std, ck)
	if err != nil {
		return workload.Class{}, err
	}
	return workload.Class{
		Name:               c.Name,
		Crunch:             crunch,
		ComputeDuty:        p.ComputeDuty,
		CommActive:         p.CommActive,
		Comm:               comm,
		PerfSigma:          p.PerfSigma,
		MemoryPerNode:      p.MemoryPerNodeBytes,
		MsgBytesPerFlop:    p.MsgBytesPerFlop,
		DiskOutBytesPerSec: p.DiskOutBytesPerSec,
	}, nil
}

// kernelProfile maps a kernel name to its measured profile. The cases
// mirror the knownKernels registry in validate.go.
func kernelProfile(std profile.Standard, name string) (profile.Profile, error) {
	switch name {
	case "cfd":
		return std.CFD, nil
	case "bt":
		return std.BT, nil
	case "matmul":
		return std.MatMul, nil
	case "sequential":
		return std.Sequential, nil
	case "comm":
		return std.Comm, nil
	case "paging":
		return std.Paging, nil
	}
	return profile.Profile{}, fmt.Errorf("unknown kernel %q", name)
}

// resolveDist maps a distribution spec to the workload sampler form.
func resolveDist(d *Dist) (workload.Dist, error) {
	out := workload.Dist{Min: fval(d.Min), Max: fval(d.Max)}
	switch d.Dist {
	case "lognormal":
		out.Kind, out.A, out.B = workload.DistLogNormal, fval(d.Mu), fval(d.Sigma)
	case "normal":
		out.Kind, out.A, out.B = workload.DistNormal, fval(d.Mean), fval(d.Stddev)
	case "exponential":
		out.Kind, out.A = workload.DistExponential, fval(d.Mean)
	case "uniform":
		out.Kind, out.A, out.B = workload.DistUniform, fval(d.Lo), fval(d.Hi)
	case "constant":
		out.Kind, out.A = workload.DistConstant, fval(d.Value)
	default:
		return out, fmt.Errorf("unknown dist %q", d.Dist)
	}
	return out, nil
}

func resolveSizeDist(sd *SizeDist) workload.SizeDist {
	out := workload.SizeDist{
		Counts:  make([]int, len(sd.Nodes)),
		Weights: make([]float64, len(sd.Weights)),
	}
	copy(out.Counts, sd.Nodes)
	copy(out.Weights, sd.Weights)
	return out
}

func resolveArrival(a *Arrival) workload.Arrival {
	if a == nil {
		return workload.Arrival{}
	}
	switch a.Process {
	case "gamma":
		return workload.Arrival{Process: workload.ArrivalGammaBurst, CV: a.CV}
	case "weibull":
		return workload.Arrival{Process: workload.ArrivalWeibull, Shape: a.Shape}
	default:
		return workload.Arrival{} // poisson
	}
}

func resolveLifecycle(l *Lifecycle) workload.Lifecycle {
	if l == nil {
		return workload.Lifecycle{}
	}
	switch l.Pattern {
	case "diurnal":
		return workload.Lifecycle{Pattern: workload.LifeDiurnal, Amplitude: l.Amplitude, Peak: l.Peak}
	case "spike":
		return workload.Lifecycle{Pattern: workload.LifeSpike, StartDay: l.StartDay, Days: l.Days, Factor: l.Factor}
	case "drain":
		return workload.Lifecycle{Pattern: workload.LifeDrain, StartDay: l.StartDay, Days: l.Days}
	default:
		return workload.Lifecycle{} // steady
	}
}

// clientIndex resolves a client name to its Mix index — a linear walk,
// not a map, so resolution stays provably order-deterministic.
func clientIndex(clients []Client, name string) (int, error) {
	for i := range clients {
		if clients[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown client %q", name)
}

// fval dereferences an optional number, zero when absent.
func fval(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}
