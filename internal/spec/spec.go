// Package spec is the declarative workload-specification layer: the
// scenario a campaign runs — named client classes with rate fractions,
// job-size and runtime distributions, kernel-mix profiles, arrival
// processes, cohort lifecycle patterns and an optional fault block — as a
// JSON document instead of Go code. The paper characterized exactly one
// workload, the 1996 NAS SP2 production mix; specs make that mix one
// preset among many (see presets/), so every later scaling or policy
// experiment is a data file, not a code edit.
//
// The pipeline is Load -> Validate -> Resolve: Load decodes strictly
// (unknown fields are errors), Validate reports every problem with a
// field path (clients[2].arrival.cv: must be > 0), and Resolve compiles
// the spec against a measured profile.Standard into the
// (workload.Config, workload.Mix) pair the campaign engine runs.
// Resolution is a pure function of its inputs — no clocks, no maps
// ranged, no ambient state — so a spec names a reproducible scenario:
// same spec, same seed, same result, at any worker count.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Spec is one declarative workload scenario.
type Spec struct {
	// Version pins the schema; it must equal Version.
	Version int `json:"version"`
	// Name labels the scenario; campaign output carries it so results
	// from different specs cannot be confused.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Campaign sets the window, the cluster and the demand model.
	Campaign Campaign `json:"campaign"`
	// JobSize is the campaign-wide node-count distribution; omitted, it
	// defaults to the paper's Figure 2 marginal.
	JobSize *SizeDist `json:"job_size,omitempty"`
	// Runtime is the campaign-wide wall-time distribution; omitted, it
	// defaults to the paper's lognormal.
	Runtime *Dist `json:"runtime,omitempty"`
	// Quality is the day-level tuning-quality distribution; omitted, it
	// defaults to the paper's.
	Quality *Dist `json:"quality,omitempty"`
	// Clients is the named traffic population; at least one entry, and
	// exactly one marked remainder.
	Clients []Client `json:"clients"`
	// LargeJobs optionally reroutes jobs above a node-count threshold.
	LargeJobs *LargeJobs `json:"large_jobs,omitempty"`
	// Faults optionally threads the collection-path chaos layer through
	// the campaign (see internal/faults). An all-zero block is treated
	// as absent.
	Faults *Faults `json:"faults,omitempty"`
	// Fleet optionally scales the scenario out to a multi-cluster fleet
	// (internal/fleet): Clusters copies of the campaign, each seeded from
	// its own substream, merged through the canonical-order fleet
	// reduction. Absent means a single-cluster campaign (a fleet of one).
	Fleet *FleetBlock `json:"fleet,omitempty"`
}

// FleetBlock declares a multi-cluster fleet built from this scenario.
type FleetBlock struct {
	// Clusters is the fleet size; every cluster starts as a copy of the
	// campaign block.
	Clusters int `json:"clusters"`
	// Overrides specialize individual clusters — a fleet is rarely
	// perfectly homogeneous. Zero-valued fields inherit the campaign
	// block.
	Overrides []ClusterOverride `json:"overrides,omitempty"`
}

// ClusterOverride respecifies parts of one cluster's campaign. Only the
// knobs that vary across real fleet members are overridable; the mix
// (the user population) is shared fleet-wide by construction.
type ClusterOverride struct {
	// Cluster indexes the fleet member, 0-based.
	Cluster int `json:"cluster"`
	// Days, when > 0, replaces the measurement-window length.
	Days int `json:"days,omitempty"`
	// Nodes, when > 0, replaces the cluster size.
	Nodes int `json:"nodes,omitempty"`
	// MeanUtil / UtilSigma, when > 0, reshape the demand distribution.
	MeanUtil  float64 `json:"mean_util,omitempty"`
	UtilSigma float64 `json:"util_sigma,omitempty"`
	// PagingDayProb, when >= 0, replaces the oversubscribed-day
	// probability; negative (the zero value as far as inheritance goes)
	// inherits. Use 0 to turn paging days off for a cluster.
	PagingDayProb *float64 `json:"paging_day_prob,omitempty"`
}

// Campaign is the window, cluster and demand model of a scenario.
type Campaign struct {
	// Days is the measurement-window length (270 for the paper).
	Days int `json:"days"`
	// Nodes is the cluster size (144 for the paper).
	Nodes int `json:"nodes"`
	// SamplePeriodSeconds is the counter sampling cadence, a whole number
	// of seconds dividing a day; 0 defaults to the 15-minute cron period
	// (900).
	SamplePeriodSeconds float64 `json:"sample_period_seconds,omitempty"`
	// MeanUtil and UtilSigma shape the daily demand distribution.
	MeanUtil  float64 `json:"mean_util"`
	UtilSigma float64 `json:"util_sigma"`
	// PagingDayProb is the probability a day's mix leans oversubscribed.
	PagingDayProb float64 `json:"paging_day_prob"`
	// MinRecordWallSeconds filters batch records; 0 defaults to the
	// paper's 600 s.
	MinRecordWallSeconds float64 `json:"min_record_wall_seconds,omitempty"`
	// WeekendFactor multiplies demand on days 5 and 6 of each week;
	// 0 defaults to 1 (no dip).
	WeekendFactor float64 `json:"weekend_factor,omitempty"`
	// Users is the synthetic submitting-user population; 0 defaults to
	// the paper's 40.
	Users int `json:"users,omitempty"`
}

// Dist is a scalar distribution. Exactly the parameters its family needs
// must be present: lognormal takes mu/sigma, normal takes mean/stddev,
// exponential takes mean, uniform takes lo/hi, constant takes value.
// Min/max clamp the draw and are optional for every family.
type Dist struct {
	Dist   string   `json:"dist"`
	Mu     *float64 `json:"mu,omitempty"`
	Sigma  *float64 `json:"sigma,omitempty"`
	Mean   *float64 `json:"mean,omitempty"`
	Stddev *float64 `json:"stddev,omitempty"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	Value  *float64 `json:"value,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// SizeDist is a discrete node-count distribution: nodes[i] is requested
// with probability weights[i]/sum(weights).
type SizeDist struct {
	Nodes   []int     `json:"nodes"`
	Weights []float64 `json:"weights"`
}

// Client is one named traffic source.
type Client struct {
	Name string `json:"name"`
	// Share is the client's rate fraction of the job stream; required
	// unless the client is the remainder. Shares may sum to less than 1
	// only if a remainder client absorbs the rest.
	Share *float64 `json:"share,omitempty"`
	// PagingDayShare replaces Share on memory-oversubscribed days.
	PagingDayShare *float64 `json:"paging_day_share,omitempty"`
	// Remainder marks the client that absorbs the unassigned share;
	// exactly one client must set it.
	Remainder bool `json:"remainder,omitempty"`
	// Profile is the class's counter signature recipe.
	Profile Profile `json:"profile"`
	// Arrival shapes within-day placement; omitted = poisson.
	Arrival *Arrival `json:"arrival,omitempty"`
	// Lifecycle is the cohort's population dynamics; omitted = steady.
	Lifecycle *Lifecycle `json:"lifecycle,omitempty"`
	// JobSize / Runtime override the campaign-wide distributions for
	// this client's jobs.
	JobSize *SizeDist `json:"job_size,omitempty"`
	Runtime *Dist     `json:"runtime,omitempty"`
}

// Profile is the recipe for a class's measured counter signature:
// either one kernel or a weighted kernel mix, duty-cycled against the
// message-passing signature.
type Profile struct {
	// Kernel names a registered kernel (cfd, bt, matmul, sequential,
	// comm, paging); exactly one of Kernel and KernelMix must be set.
	Kernel string `json:"kernel,omitempty"`
	// KernelMix blends several kernels by weight into the crunch
	// signature.
	KernelMix []KernelWeight `json:"kernel_mix,omitempty"`
	// Scale multiplies the crunch signature (0 defaults to 1) — how
	// "debug grade" variants of a kernel are declared.
	Scale float64 `json:"scale,omitempty"`
	// ComputeDuty is the fraction of wall time spent crunching.
	ComputeDuty float64 `json:"compute_duty"`
	// CommActive is the fraction of non-compute time in the
	// message-passing software path.
	CommActive float64 `json:"comm_active"`
	// CommKernel names the communication signature kernel; empty
	// defaults to "comm".
	CommKernel string `json:"comm_kernel,omitempty"`
	// PerfSigma is the lognormal sigma of per-job performance jitter.
	PerfSigma float64 `json:"perf_sigma"`
	// MemoryPerNodeBytes is the per-node working set.
	MemoryPerNodeBytes uint64 `json:"memory_per_node_bytes"`
	// MsgBytesPerFlop scales message volume with computation.
	MsgBytesPerFlop float64 `json:"msg_bytes_per_flop"`
	// DiskOutBytesPerSec is steady result-output traffic.
	DiskOutBytesPerSec float64 `json:"disk_out_bytes_per_sec"`
}

// KernelWeight is one component of a kernel mix.
type KernelWeight struct {
	Kernel string  `json:"kernel"`
	Weight float64 `json:"weight"`
}

// Arrival selects a client's within-day placement process.
type Arrival struct {
	// Process is "poisson", "gamma" (bursty) or "weibull".
	Process string `json:"process"`
	// CV is the gamma burstiness (required for gamma).
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape (required for weibull).
	Shape float64 `json:"shape,omitempty"`
}

// Lifecycle selects a client cohort's population dynamics.
type Lifecycle struct {
	// Pattern is "steady", "diurnal", "spike" or "drain".
	Pattern string `json:"pattern"`
	// StartDay/Days bound the spike or drain window.
	StartDay int `json:"start_day,omitempty"`
	Days     int `json:"days,omitempty"`
	// Factor is the spike share multiplier.
	Factor float64 `json:"factor,omitempty"`
	// Amplitude/Peak shape the diurnal concentration.
	Amplitude float64 `json:"amplitude,omitempty"`
	Peak      float64 `json:"peak,omitempty"`
}

// LargeJobs reroutes jobs above ThresholdNodes: overrides are tried in
// order, each firing with its probability; Fallback takes the rest.
type LargeJobs struct {
	ThresholdNodes int        `json:"threshold_nodes"`
	Overrides      []Override `json:"overrides,omitempty"`
	Fallback       string     `json:"fallback"`
}

// Override is one step of the large-job policy.
type Override struct {
	Client string  `json:"client"`
	Prob   float64 `json:"prob"`
}

// Faults mirrors faults.Config field for field (see internal/faults for
// the semantics of each rate).
type Faults struct {
	CrashProbPerNodeDay      float64 `json:"crash_prob_per_node_day,omitempty"`
	MeanOutageTicks          float64 `json:"mean_outage_ticks,omitempty"`
	DropProbPerSample        float64 `json:"drop_prob_per_sample,omitempty"`
	DupProbPerSample         float64 `json:"dup_prob_per_sample,omitempty"`
	RestartProbPerNodeDay    float64 `json:"restart_prob_per_node_day,omitempty"`
	EpilogueDelayProb        float64 `json:"epilogue_delay_prob,omitempty"`
	EpilogueDelayMeanSeconds float64 `json:"epilogue_delay_mean_seconds,omitempty"`
}

// Decode reads one spec from r. Decoding is strict: unknown fields,
// malformed JSON and trailing garbage are all errors, so a typo'd knob
// can never silently fall back to a default.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	// Reject trailing content after the document: a second JSON value in
	// the same file is almost certainly a mangled edit.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after spec document")
	}
	return &s, nil
}

// DecodeBytes decodes one spec from an in-memory document.
func DecodeBytes(data []byte) (*Spec, error) {
	return Decode(bytes.NewReader(data))
}

// LoadFile reads, decodes and validates the spec at path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode writes the spec as indented JSON — the canonical on-disk form
// the presets are committed in.
func (s *Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
