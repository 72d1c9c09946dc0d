package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// maxTraceDim bounds the geometry a header may claim (clusters, days per
// cluster). Real fleets are orders of magnitude smaller; anything larger
// is a corrupt or adversarial header, rejected before it can size an
// allocation.
const maxTraceDim = 1 << 20

// Replayer holds a fully decoded, internally consistent trace. Decode
// verifies structure (every (cluster, day) present exactly once);
// Validate then binds the trace to a campaign definition. Only after
// both may Source feed a campaign.
type Replayer struct {
	h         Header
	records   [][]*Record // [cluster][day]; rows allocated on first record
	validated bool
}

// Decode reads an uncompressed JSON trace from r. Failures wrap
// trace.ErrVersion or trace.ErrCorrupt — never a panic, whatever the
// bytes. Most callers want OpenFile, which layers gzip and the file on
// top.
func Decode(r io.Reader) (*Replayer, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	h, err := decodeHeader(dec)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, d := range h.ClusterDays {
		total += d
	}

	rp := &Replayer{h: h, records: make([][]*Record, h.Clusters)}
	// Rows are sized lazily from arriving records, so a lying header
	// cannot drive an allocation bigger than the input that carries it.
	seen := 0
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", trace.ErrCorrupt, seen, err)
		}
		if rec.Cluster < 0 || rec.Cluster >= h.Clusters {
			return nil, fmt.Errorf("%w: record for cluster %d, trace has %d", trace.ErrCorrupt, rec.Cluster, h.Clusters)
		}
		if rec.Day < 0 || rec.Day >= h.ClusterDays[rec.Cluster] {
			return nil, fmt.Errorf("%w: record for cluster %d day %d, cluster has %d days", trace.ErrCorrupt, rec.Cluster, rec.Day, h.ClusterDays[rec.Cluster])
		}
		if rec.Plan.Day != rec.Day {
			return nil, fmt.Errorf("%w: record for day %d carries a plan for day %d", trace.ErrCorrupt, rec.Day, rec.Plan.Day)
		}
		if rec.Faults != nil && rec.Faults.Day != rec.Day {
			return nil, fmt.Errorf("%w: record for day %d carries a fault plan for day %d", trace.ErrCorrupt, rec.Day, rec.Faults.Day)
		}
		if rp.records[rec.Cluster] == nil {
			rp.records[rec.Cluster] = make([]*Record, h.ClusterDays[rec.Cluster])
		}
		if rp.records[rec.Cluster][rec.Day] != nil {
			return nil, fmt.Errorf("%w: cluster %d day %d recorded twice", trace.ErrCorrupt, rec.Cluster, rec.Day)
		}
		r := rec
		rp.records[rec.Cluster][rec.Day] = &r
		seen++
	}
	// Every record landed in a distinct in-bounds slot, so matching the
	// expected count means every slot is filled — a truncated trace (or
	// one whose recorder died mid-campaign) fails here.
	if seen != total {
		return nil, fmt.Errorf("%w: trace has %d of %d records", trace.ErrCorrupt, seen, total)
	}
	return rp, nil
}

// decodeHeader reads and checks a trace's header, the first value on
// dec: its format identity, then its geometry.
func decodeHeader(dec *json.Decoder) (Header, error) {
	// Two-pass header decode. The loose probe reads only the format
	// identity, so a trace from a *newer* writer — whose header may have
	// fields this reader has never heard of — still classifies as a
	// version error rather than corruption.
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return Header{}, fmt.Errorf("%w: reading header: %v", trace.ErrCorrupt, err)
	}
	var probe struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil || probe.Format != FormatName {
		return Header{}, fmt.Errorf("%w: not a %s header", trace.ErrCorrupt, FormatName)
	}
	if probe.Version != FormatVersion {
		return Header{}, fmt.Errorf("%w: trace is version %d, this reader speaks %d", trace.ErrVersion, probe.Version, FormatVersion)
	}
	var h Header
	hdec := json.NewDecoder(bytes.NewReader(raw))
	hdec.DisallowUnknownFields()
	if err := hdec.Decode(&h); err != nil {
		return Header{}, fmt.Errorf("%w: malformed header: %v", trace.ErrCorrupt, err)
	}
	if h.Clusters < 1 || h.Clusters > maxTraceDim {
		return Header{}, fmt.Errorf("%w: header claims %d clusters", trace.ErrCorrupt, h.Clusters)
	}
	if len(h.ClusterDays) != h.Clusters {
		return Header{}, fmt.Errorf("%w: header has %d cluster day counts for %d clusters", trace.ErrCorrupt, len(h.ClusterDays), h.Clusters)
	}
	maxDays := 0
	for c, d := range h.ClusterDays {
		if d < 1 || d > maxTraceDim {
			return Header{}, fmt.Errorf("%w: header claims %d days for cluster %d", trace.ErrCorrupt, d, c)
		}
		if d > maxDays {
			maxDays = d
		}
	}
	if h.Days != maxDays {
		return Header{}, fmt.Errorf("%w: header says %d days, cluster day counts say %d", trace.ErrCorrupt, h.Days, maxDays)
	}
	return h, nil
}

// OpenFile loads a gzip-compressed trace from path, classifying every
// failure as trace.ErrVersion or trace.ErrCorrupt (I/O errors surface as
// themselves).
func OpenFile(path string) (*Replayer, error) {
	var rp *Replayer
	err := readGzip(path, func(r io.Reader) (err error) {
		rp, err = Decode(r)
		return err
	})
	return rp, err
}

// ReadHeaderFile reads only the header of the gzip-compressed trace at
// path, failing as OpenFile would on a missing file, a stream that is
// not gzip, or a header that is not this format and version. It is the
// fail-fast probe a CLI runs before measuring anything; the records are
// read, and checked, by OpenFile.
func ReadHeaderFile(path string) (Header, error) {
	var h Header
	err := readGzip(path, func(r io.Reader) (err error) {
		h, err = decodeHeader(json.NewDecoder(r))
		return err
	})
	return h, err
}

// readGzip opens path's gzip stream, counting the compressed bytes read,
// and hands it to decode; decode errors are prefixed with path.
func readGzip(path string, decode func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("replay: open trace: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(countingReader{f, telBytesRead})
	if err != nil {
		return fmt.Errorf("%w: %s is not a gzip stream: %v", trace.ErrCorrupt, path, err)
	}
	defer gz.Close()
	if err := decode(gz); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Header returns the trace header.
func (rp *Replayer) Header() Header { return rp.h }

// Validate binds the trace to a campaign definition: same cluster count,
// same per-cluster day window, same fault geometry, and — the decisive
// check — the same config fingerprint the recorder computed. Any
// disagreement is ErrMismatch: replaying a trace against the wrong
// system must hard-fail, not produce a plausible wrong Result.
func (rp *Replayer) Validate(defs []Def) error {
	if len(defs) != rp.h.Clusters {
		return fmt.Errorf("%w: trace has %d clusters, definition has %d", ErrMismatch, rp.h.Clusters, len(defs))
	}
	for i := range defs {
		cfg := defs[i].Config
		if cfg.Days > rp.h.ClusterDays[i] {
			return fmt.Errorf("%w: cluster %d wants %d days but the trace records only %d", ErrMismatch, i, cfg.Days, rp.h.ClusterDays[i])
		}
		if cfg.Days < rp.h.ClusterDays[i] {
			return fmt.Errorf("%w: cluster %d wants %d days but the trace records %d", ErrMismatch, i, cfg.Days, rp.h.ClusterDays[i])
		}
		ticks := ticksPerDay(cfg)
		for day, rec := range rp.records[i] {
			if (cfg.Faults != nil) != (rec.Faults != nil) {
				return fmt.Errorf("%w: cluster %d day %d: fault plan %s but configuration says %s", ErrMismatch,
					i, day, presence(rec.Faults != nil), presence(cfg.Faults != nil))
			}
			if rec.Faults != nil && (rec.Faults.Nodes != cfg.Nodes || rec.Faults.Ticks != ticks) {
				return fmt.Errorf("%w: cluster %d day %d: fault plan is %dx%d, configuration is %dx%d", ErrMismatch,
					i, day, rec.Faults.Nodes, rec.Faults.Ticks, cfg.Nodes, ticks)
			}
			for j := range rec.Plan.Jobs {
				if n := rec.Plan.Jobs[j].Spec.Nodes; n < 1 || n > cfg.Nodes {
					return fmt.Errorf("%w: cluster %d day %d job %d wants %d nodes, cluster has %d", ErrMismatch,
						i, day, j, n, cfg.Nodes)
				}
			}
		}
	}
	if got, want := Fingerprint(defs), rp.h.Fingerprint; got != want {
		return fmt.Errorf("%w: trace fingerprint %016x, definition fingerprint %016x (recorded from a different campaign?)", ErrMismatch, want, got)
	}
	rp.validated = true
	return nil
}

func presence(p bool) string {
	if p {
		return "recorded"
	}
	return "absent"
}

// Source returns the cluster's trace-backed generate stage. It satisfies
// both workload.Generator and workload.FaultPlanner, so one Source wires
// a campaign's plan stream and fault schedule to the trace. Validate
// must have succeeded first.
func (rp *Replayer) Source(cluster int) *Source {
	if !rp.validated {
		panic("replay: Source before successful Validate")
	}
	if cluster < 0 || cluster >= rp.h.Clusters {
		panic(fmt.Sprintf("replay: Source(%d) of %d clusters", cluster, rp.h.Clusters))
	}
	return &Source{rp: rp, cluster: cluster}
}

// Source feeds one cluster's recorded plans into a campaign.
type Source struct {
	rp      *Replayer
	cluster int
}

// GenerateDay returns the recorded day plan. Validate pinned the day
// window, so an out-of-range day here is a campaign bug, not bad input.
func (s *Source) GenerateDay(day int) workload.DayPlan {
	telPlansReplayed.Inc()
	return s.rp.records[s.cluster][day].Plan
}

// PlanFaultDay returns the recorded fault schedule. Validate pinned the
// geometry against the configuration, so the campaign's request can only
// match the record.
func (s *Source) PlanFaultDay(day, nodes, ticks int) faults.Plan {
	p := s.rp.records[s.cluster][day].Faults
	if p == nil || p.Nodes != nodes || p.Ticks != ticks {
		panic(fmt.Sprintf("replay: campaign asked for a %dx%d fault plan for day %d the trace does not carry", nodes, ticks, day))
	}
	return *p
}

// countingReader feeds the trace-size telemetry (compressed bytes).
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}
