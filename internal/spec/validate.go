package spec

// Validation. Validate walks the whole document and collects every
// problem it finds — not just the first — each carrying the JSON field
// path it was found at (clients[2].arrival.cv: must be >= 1), so a
// malformed spec is fixed in one edit cycle rather than one error per
// run. Validation is purely structural: it needs no measured profiles
// and no cluster state, which is what lets `spsim -validate` gate specs
// in CI without running anything.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/workload"
)

// FieldError is one validation problem, anchored to the JSON path of the
// offending field.
type FieldError struct {
	Path string
	Msg  string
}

func (e FieldError) Error() string { return e.Path + ": " + e.Msg }

// ValidationError is the full set of problems found in one document.
type ValidationError struct {
	Errors []FieldError
}

func (e *ValidationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invalid spec (%d problem", len(e.Errors))
	if len(e.Errors) != 1 {
		b.WriteByte('s')
	}
	b.WriteByte(')')
	for _, fe := range e.Errors {
		b.WriteString("\n  ")
		b.WriteString(fe.Error())
	}
	return b.String()
}

// validator accumulates field errors during the walk.
type validator struct {
	errs []FieldError
}

func (v *validator) errorf(path, format string, args ...any) {
	v.errs = append(v.errs, FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// knownKernels is the registry of kernel names a profile may reference,
// matching the switch in resolve.go. Sorted-slice form (not a map) so
// error messages list candidates in a stable order without sorting at
// the call site.
var knownKernels = []string{"bt", "cfd", "comm", "matmul", "paging", "sequential"}

func kernelKnown(name string) bool {
	i := sort.SearchStrings(knownKernels, name)
	return i < len(knownKernels) && knownKernels[i] == name
}

// Validate checks the spec structurally and returns either nil or a
// *ValidationError carrying every problem found.
func (s *Spec) Validate() error {
	v := &validator{}
	if s.Version != Version {
		v.errorf("version", "must be %d (got %d)", Version, s.Version)
	}
	if s.Name == "" {
		v.errorf("name", "must be set")
	}
	v.campaign(&s.Campaign)
	if s.JobSize != nil {
		v.sizeDist("job_size", s.JobSize)
	}
	if s.Runtime != nil {
		v.dist("runtime", s.Runtime)
	}
	if s.Quality != nil {
		v.dist("quality", s.Quality)
	}
	v.clients(s.Clients)
	if s.LargeJobs != nil {
		v.largeJobs(s.LargeJobs, s.Clients)
	}
	if s.Faults != nil {
		v.faults(s.Faults)
	}
	if s.Fleet != nil {
		v.fleet(s.Fleet)
	}
	if len(v.errs) == 0 {
		return nil
	}
	return &ValidationError{Errors: v.errs}
}

func (v *validator) campaign(c *Campaign) {
	if c.Days <= 0 {
		v.errorf("campaign.days", "must be > 0")
	}
	if c.Nodes <= 0 {
		v.errorf("campaign.nodes", "must be > 0")
	}
	if p := c.SamplePeriodSeconds; p != 0 && !workload.ValidSamplePeriod(p) {
		v.errorf("campaign.sample_period_seconds", "must be 0 or a whole number of seconds dividing 86400")
	}
	if c.MeanUtil <= 0 || c.MeanUtil > 1 {
		v.errorf("campaign.mean_util", "must be in (0, 1]")
	}
	if c.UtilSigma < 0 {
		v.errorf("campaign.util_sigma", "must be >= 0")
	}
	if c.PagingDayProb < 0 || c.PagingDayProb > 1 {
		v.errorf("campaign.paging_day_prob", "must be in [0, 1]")
	}
	if c.MinRecordWallSeconds < 0 {
		v.errorf("campaign.min_record_wall_seconds", "must be >= 0")
	}
	if c.WeekendFactor < 0 {
		v.errorf("campaign.weekend_factor", "must be >= 0")
	}
	if c.Users < 0 {
		v.errorf("campaign.users", "must be >= 0")
	}
}

// dist checks family-specific parameter presence: each family requires
// exactly its own parameters, and stray ones from another family are
// rejected so a half-edited distribution cannot validate.
func (v *validator) dist(path string, d *Dist) {
	need := func(p *float64, name string) *float64 {
		if p == nil {
			v.errorf(path+"."+name, "required for dist %q", d.Dist)
		}
		return p
	}
	forbid := func(p *float64, name string) {
		if p != nil {
			v.errorf(path+"."+name, "not a parameter of dist %q", d.Dist)
		}
	}
	switch d.Dist {
	case "lognormal":
		need(d.Mu, "mu")
		if s := need(d.Sigma, "sigma"); s != nil && *s < 0 {
			v.errorf(path+".sigma", "must be >= 0")
		}
		forbid(d.Mean, "mean")
		forbid(d.Stddev, "stddev")
		forbid(d.Lo, "lo")
		forbid(d.Hi, "hi")
		forbid(d.Value, "value")
	case "normal":
		need(d.Mean, "mean")
		if s := need(d.Stddev, "stddev"); s != nil && *s < 0 {
			v.errorf(path+".stddev", "must be >= 0")
		}
		forbid(d.Mu, "mu")
		forbid(d.Sigma, "sigma")
		forbid(d.Lo, "lo")
		forbid(d.Hi, "hi")
		forbid(d.Value, "value")
	case "exponential":
		if m := need(d.Mean, "mean"); m != nil && *m <= 0 {
			v.errorf(path+".mean", "must be > 0")
		}
		forbid(d.Mu, "mu")
		forbid(d.Sigma, "sigma")
		forbid(d.Stddev, "stddev")
		forbid(d.Lo, "lo")
		forbid(d.Hi, "hi")
		forbid(d.Value, "value")
	case "uniform":
		lo, hi := need(d.Lo, "lo"), need(d.Hi, "hi")
		if lo != nil && hi != nil && !(*lo < *hi) {
			v.errorf(path+".lo", "must be < hi")
		}
		forbid(d.Mu, "mu")
		forbid(d.Sigma, "sigma")
		forbid(d.Mean, "mean")
		forbid(d.Stddev, "stddev")
		forbid(d.Value, "value")
	case "constant":
		need(d.Value, "value")
		forbid(d.Mu, "mu")
		forbid(d.Sigma, "sigma")
		forbid(d.Mean, "mean")
		forbid(d.Stddev, "stddev")
		forbid(d.Lo, "lo")
		forbid(d.Hi, "hi")
	case "":
		v.errorf(path+".dist", "must be one of lognormal, normal, exponential, uniform, constant")
	default:
		v.errorf(path+".dist", "unknown dist %q (want lognormal, normal, exponential, uniform or constant)", d.Dist)
	}
	if d.Min != nil && *d.Min < 0 {
		v.errorf(path+".min", "must be >= 0")
	}
	if d.Max != nil && *d.Max < 0 {
		v.errorf(path+".max", "must be >= 0")
	}
	if d.Min != nil && d.Max != nil && *d.Min > *d.Max {
		v.errorf(path+".min", "must be <= max")
	}
}

func (v *validator) sizeDist(path string, sd *SizeDist) {
	if len(sd.Nodes) == 0 {
		v.errorf(path+".nodes", "must have at least one entry")
		return
	}
	if len(sd.Weights) != len(sd.Nodes) {
		v.errorf(path+".weights", "must have the same length as nodes (%d vs %d)", len(sd.Weights), len(sd.Nodes))
		return
	}
	sum := 0.0
	for i, n := range sd.Nodes {
		if n <= 0 {
			v.errorf(fmt.Sprintf("%s.nodes[%d]", path, i), "must be > 0")
		}
		if sd.Weights[i] < 0 {
			v.errorf(fmt.Sprintf("%s.weights[%d]", path, i), "must be >= 0")
		}
		sum += sd.Weights[i]
	}
	if sum <= 0 {
		v.errorf(path+".weights", "must sum to > 0")
	}
}

func (v *validator) clients(clients []Client) {
	if len(clients) == 0 {
		v.errorf("clients", "must have at least one client")
		return
	}
	seen := make(map[string]bool, len(clients))
	remainders := 0
	shareSum, pagingSum := 0.0, 0.0
	for i := range clients {
		c := &clients[i]
		path := fmt.Sprintf("clients[%d]", i)
		if c.Name == "" {
			v.errorf(path+".name", "must be set")
		} else if seen[c.Name] {
			v.errorf(path+".name", "duplicate client name %q", c.Name)
		} else {
			seen[c.Name] = true
		}
		if c.Remainder {
			remainders++
			if c.Share != nil {
				v.errorf(path+".share", "remainder client must not set share")
			}
			if c.PagingDayShare != nil {
				v.errorf(path+".paging_day_share", "remainder client must not set paging_day_share")
			}
		} else {
			if c.Share == nil {
				v.errorf(path+".share", "required for non-remainder client")
			} else {
				if *c.Share < 0 || *c.Share > 1 {
					v.errorf(path+".share", "must be in [0, 1]")
				} else {
					shareSum += *c.Share
					if c.PagingDayShare == nil {
						pagingSum += *c.Share
					}
				}
			}
			if p := c.PagingDayShare; p != nil {
				if *p < 0 || *p > 1 {
					v.errorf(path+".paging_day_share", "must be in [0, 1]")
				} else {
					pagingSum += *p
				}
			}
		}
		v.profile(path+".profile", &c.Profile)
		if c.Arrival != nil {
			v.arrival(path+".arrival", c.Arrival)
		}
		if c.Lifecycle != nil {
			v.lifecycle(path+".lifecycle", c.Lifecycle)
		}
		if c.JobSize != nil {
			v.sizeDist(path+".job_size", c.JobSize)
		}
		if c.Runtime != nil {
			v.dist(path+".runtime", c.Runtime)
		}
	}
	if remainders == 0 {
		v.errorf("clients", "exactly one client must set remainder (none do)")
	} else if remainders > 1 {
		v.errorf("clients", "exactly one client must set remainder (%d do)", remainders)
	}
	if shareSum > 1.0000001 {
		v.errorf("clients", "shares sum to %.4f; must not exceed 1", shareSum)
	}
	if pagingSum > 1.0000001 {
		v.errorf("clients", "paging-day shares sum to %.4f; must not exceed 1", pagingSum)
	}
}

func (v *validator) profile(path string, p *Profile) {
	switch {
	case p.Kernel == "" && len(p.KernelMix) == 0:
		v.errorf(path+".kernel", "exactly one of kernel and kernel_mix must be set (neither is)")
	case p.Kernel != "" && len(p.KernelMix) > 0:
		v.errorf(path+".kernel", "exactly one of kernel and kernel_mix must be set (both are)")
	case p.Kernel != "":
		if !kernelKnown(p.Kernel) {
			v.errorf(path+".kernel", "unknown kernel %q (want one of %s)", p.Kernel, strings.Join(knownKernels, ", "))
		}
	default:
		wsum := 0.0
		for i, kw := range p.KernelMix {
			kp := fmt.Sprintf("%s.kernel_mix[%d]", path, i)
			if !kernelKnown(kw.Kernel) {
				v.errorf(kp+".kernel", "unknown kernel %q (want one of %s)", kw.Kernel, strings.Join(knownKernels, ", "))
			}
			if kw.Weight <= 0 {
				v.errorf(kp+".weight", "must be > 0")
			}
			wsum += kw.Weight
		}
		if wsum <= 0 {
			v.errorf(path+".kernel_mix", "weights must sum to > 0")
		}
	}
	if p.Scale < 0 {
		v.errorf(path+".scale", "must be >= 0")
	}
	if p.ComputeDuty < 0 || p.ComputeDuty > 1 {
		v.errorf(path+".compute_duty", "must be in [0, 1]")
	}
	if p.CommActive < 0 || p.CommActive > 1 {
		v.errorf(path+".comm_active", "must be in [0, 1]")
	}
	if p.CommKernel != "" && !kernelKnown(p.CommKernel) {
		v.errorf(path+".comm_kernel", "unknown kernel %q (want one of %s)", p.CommKernel, strings.Join(knownKernels, ", "))
	}
	if p.PerfSigma < 0 {
		v.errorf(path+".perf_sigma", "must be >= 0")
	}
	if p.MsgBytesPerFlop < 0 {
		v.errorf(path+".msg_bytes_per_flop", "must be >= 0")
	}
	if p.DiskOutBytesPerSec < 0 {
		v.errorf(path+".disk_out_bytes_per_sec", "must be >= 0")
	}
}

func (v *validator) arrival(path string, a *Arrival) {
	switch a.Process {
	case "poisson":
		if a.CV != 0 {
			v.errorf(path+".cv", "not a parameter of the poisson process")
		}
		if a.Shape != 0 {
			v.errorf(path+".shape", "not a parameter of the poisson process")
		}
	case "gamma":
		if a.CV < 1 {
			v.errorf(path+".cv", "must be >= 1")
		}
		if a.Shape != 0 {
			v.errorf(path+".shape", "not a parameter of the gamma process")
		}
	case "weibull":
		if a.Shape <= 0 {
			v.errorf(path+".shape", "must be > 0")
		}
		if a.CV != 0 {
			v.errorf(path+".cv", "not a parameter of the weibull process")
		}
	case "":
		v.errorf(path+".process", "must be one of poisson, gamma, weibull")
	default:
		v.errorf(path+".process", "unknown process %q (want poisson, gamma or weibull)", a.Process)
	}
}

func (v *validator) lifecycle(path string, l *Lifecycle) {
	switch l.Pattern {
	case "steady":
	case "diurnal":
		if l.Amplitude < 0 || l.Amplitude > 1 {
			v.errorf(path+".amplitude", "must be in [0, 1]")
		}
		if l.Peak < 0 || l.Peak >= 1 {
			v.errorf(path+".peak", "must be in [0, 1)")
		}
	case "spike":
		if l.StartDay < 0 {
			v.errorf(path+".start_day", "must be >= 0")
		}
		if l.Days <= 0 {
			v.errorf(path+".days", "must be > 0")
		}
		if l.Factor <= 0 {
			v.errorf(path+".factor", "must be > 0")
		}
	case "drain":
		if l.StartDay < 0 {
			v.errorf(path+".start_day", "must be >= 0")
		}
		if l.Days < 0 {
			v.errorf(path+".days", "must be >= 0")
		}
	case "":
		v.errorf(path+".pattern", "must be one of steady, diurnal, spike, drain")
	default:
		v.errorf(path+".pattern", "unknown pattern %q (want steady, diurnal, spike or drain)", l.Pattern)
	}
}

func (v *validator) largeJobs(lj *LargeJobs, clients []Client) {
	if lj.ThresholdNodes < 0 {
		v.errorf("large_jobs.threshold_nodes", "must be >= 0")
	}
	byName := make(map[string]bool, len(clients))
	for i := range clients {
		byName[clients[i].Name] = true
	}
	for i, ov := range lj.Overrides {
		path := fmt.Sprintf("large_jobs.overrides[%d]", i)
		if !byName[ov.Client] {
			v.errorf(path+".client", "unknown client %q", ov.Client)
		}
		if ov.Prob < 0 || ov.Prob > 1 {
			v.errorf(path+".prob", "must be in [0, 1]")
		}
	}
	if lj.Fallback == "" {
		v.errorf("large_jobs.fallback", "must name a client")
	} else if !byName[lj.Fallback] {
		v.errorf("large_jobs.fallback", "unknown client %q", lj.Fallback)
	}
}

func (v *validator) faults(f *Faults) {
	prob := func(val float64, name string) {
		if val < 0 || val > 1 {
			v.errorf("faults."+name, "must be in [0, 1]")
		}
	}
	prob(f.CrashProbPerNodeDay, "crash_prob_per_node_day")
	prob(f.DropProbPerSample, "drop_prob_per_sample")
	prob(f.DupProbPerSample, "dup_prob_per_sample")
	prob(f.RestartProbPerNodeDay, "restart_prob_per_node_day")
	prob(f.EpilogueDelayProb, "epilogue_delay_prob")
	if f.MeanOutageTicks < 0 {
		v.errorf("faults.mean_outage_ticks", "must be >= 0")
	}
	if f.EpilogueDelayMeanSeconds < 0 {
		v.errorf("faults.epilogue_delay_mean_seconds", "must be >= 0")
	}
}

func (v *validator) fleet(f *FleetBlock) {
	if f.Clusters < 1 {
		v.errorf("fleet.clusters", "must be >= 1")
	}
	seen := make(map[int]bool, len(f.Overrides))
	for i, ov := range f.Overrides {
		path := fmt.Sprintf("fleet.overrides[%d]", i)
		if ov.Cluster < 0 || (f.Clusters >= 1 && ov.Cluster >= f.Clusters) {
			v.errorf(path+".cluster", "must be in [0, %d)", f.Clusters)
		} else if seen[ov.Cluster] {
			v.errorf(path+".cluster", "duplicate override for cluster %d", ov.Cluster)
		} else {
			seen[ov.Cluster] = true
		}
		if ov.Days < 0 {
			v.errorf(path+".days", "must be >= 0 (0 inherits)")
		}
		if ov.Nodes < 0 {
			v.errorf(path+".nodes", "must be >= 0 (0 inherits)")
		}
		if ov.MeanUtil < 0 || ov.MeanUtil > 1 {
			v.errorf(path+".mean_util", "must be in [0, 1] (0 inherits)")
		}
		if ov.UtilSigma < 0 {
			v.errorf(path+".util_sigma", "must be >= 0 (0 inherits)")
		}
		if p := ov.PagingDayProb; p != nil && (*p < 0 || *p > 1) {
			v.errorf(path+".paging_day_prob", "must be in [0, 1]")
		}
	}
}
