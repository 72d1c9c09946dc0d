package replay

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Recorder streams campaign records into a trace. It tees off the
// generate stage via Tap, so the campaign being recorded is otherwise
// untouched — same plans, same simulation, same Result. A Recorder is
// safe for concurrent use: fleet shards generate their clusters' days
// in parallel, and records land in the trace in whatever order they
// arrive (the decoder indexes by (cluster, day), not position).
type Recorder struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error

	// File-backed state (Create); nil for NewRecorder.
	f    *os.File
	gz   *gzip.Writer
	tmp  string
	path string
	done bool
}

// syncFile is the fsync a finished trace file goes through before it is
// renamed into place; tests replace it with one that fails.
var syncFile = (*os.File).Sync

// NewRecorder writes a trace to w as uncompressed JSON — the header
// immediately, records as they are generated. Most callers want Create.
func NewRecorder(w io.Writer, h Header) (*Recorder, error) {
	r := &Recorder{enc: json.NewEncoder(w)}
	if err := r.writeHeader(h); err != nil {
		return nil, err
	}
	return r, nil
}

// Create opens a gzip-compressed trace file at path. The trace is
// written to a temporary file in the same directory and renamed into
// place by Close, so a crash mid-campaign never leaves a plausible
// half-trace at the target path.
func Create(path string, h Header) (*Recorder, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("replay: create trace: %w", err)
	}
	gz := gzip.NewWriter(countingWriter{f, telBytesWritten})
	r := &Recorder{
		enc:  json.NewEncoder(gz),
		f:    f,
		gz:   gz,
		tmp:  f.Name(),
		path: path,
	}
	if err := r.writeHeader(h); err != nil {
		r.Abort()
		return nil, err
	}
	return r, nil
}

func (r *Recorder) writeHeader(h Header) error {
	h.Format, h.Version = FormatName, FormatVersion
	if h.Clusters < 1 || len(h.ClusterDays) != h.Clusters {
		return fmt.Errorf("replay: header has %d cluster day counts for %d clusters", len(h.ClusterDays), h.Clusters)
	}
	if err := r.enc.Encode(h); err != nil {
		return fmt.Errorf("replay: write header: %w", err)
	}
	return nil
}

// record appends one record; after the first failure the recorder goes
// inert and Close reports the error.
func (r *Recorder) record(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.done {
		return
	}
	if err := r.enc.Encode(rec); err != nil {
		r.err = fmt.Errorf("replay: write record: %w", err)
		return
	}
	telRecordsWritten.Inc()
}

// Err reports the first write failure, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close flushes the trace and, for file-backed recorders, fsyncs the
// temporary file and renames it over the target path. It returns the
// first error the recorder hit anywhere — a trace that Closed cleanly is
// complete, and on disk. On error the target path is left as it was.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.err
	}
	r.done = true
	if r.gz != nil {
		if err := r.gz.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("replay: flush trace: %w", err)
		}
	}
	if r.f != nil {
		if r.err == nil {
			if err := syncFile(r.f); err != nil {
				r.err = fmt.Errorf("replay: sync trace: %w", err)
			}
		}
		if err := r.f.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("replay: close trace: %w", err)
		}
		if r.err != nil {
			os.Remove(r.tmp)
		} else if err := os.Rename(r.tmp, r.path); err != nil {
			os.Remove(r.tmp)
			r.err = fmt.Errorf("replay: finalize trace: %w", err)
		}
	}
	return r.err
}

// Abort discards the trace: the temporary file is removed and nothing
// appears at the target path. Safe after Close (then a no-op).
func (r *Recorder) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	if r.gz != nil {
		r.gz.Close()
	}
	if r.f != nil {
		r.f.Close()
		os.Remove(r.tmp)
	}
}

// Tap wraps a cluster's generator so every plan it produces is recorded.
// For faulted configurations the tap also records the day's resolved
// fault schedule: faults.NewPlan is pure in (Config.Faults, seed, day,
// geometry), so deriving it here yields exactly the plan the campaign
// will derive at the day boundary — the trace stores the schedule as
// data and the replayer never re-derives it.
func (r *Recorder) Tap(cluster int, cfg workload.Config, g workload.Generator) workload.Generator {
	return &tapGenerator{rec: r, cluster: cluster, cfg: cfg, ticks: ticksPerDay(cfg), gen: g}
}

type tapGenerator struct {
	rec     *Recorder
	cluster int
	cfg     workload.Config
	ticks   int
	gen     workload.Generator
}

// GenerateDay forwards to the wrapped generator and tees the plan out.
func (t *tapGenerator) GenerateDay(day int) workload.DayPlan {
	plan := t.gen.GenerateDay(day)
	rec := Record{Cluster: t.cluster, Day: day, Plan: plan}
	if t.cfg.Faults != nil {
		fp := faults.NewPlan(*t.cfg.Faults, t.cfg.Seed, day, t.cfg.Nodes, t.ticks)
		rec.Faults = &fp
	}
	t.rec.record(rec)
	return plan
}

// countingWriter feeds the trace-size telemetry (compressed bytes).
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}
