// Package trace persists campaign results: the per-day counter reductions
// and the PBS accounting records, in a versioned JSON envelope. This is
// the stand-in for the files the real deployment wrote ("these values are
// written to a file for later processing and viewing by both users and
// system personnel") and lets cmd/spsim produce a database that
// cmd/experiments analyses separately.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/pbs"
	"repro/internal/workload"
)

// FormatVersion guards against reading incompatible files.
const FormatVersion = 1

// Envelope is the on-disk form.
type Envelope struct {
	Version int             `json:"version"`
	Result  workload.Result `json:"result"`
}

// Write serialises the result to w as JSON.
func Write(w io.Writer, res workload.Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Envelope{Version: FormatVersion, Result: res}); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Read deserialises a result from r, which must hold one envelope and
// nothing after it but whitespace. It reads r to EOF, so a gzip reader is
// read through its checksum.
func Read(r io.Reader) (workload.Result, error) {
	data, err := readAll(r)
	if err != nil {
		return workload.Result{}, fmt.Errorf("trace: read: %w", err)
	}
	return decode(data)
}

// WriteFile writes the result to path; a ".gz" suffix enables gzip
// compression (the counter arrays compress extremely well).
func WriteFile(path string, res workload.Result) error {
	return writeFile(path, false, func(w io.Writer) error { return Write(w, res) })
}

// ReadFile loads a result from path, transparently handling ".gz".
func ReadFile(path string) (workload.Result, error) {
	data, err := readFile(path)
	if err != nil {
		return workload.Result{}, fmt.Errorf("trace: %w", err)
	}
	return decode(data)
}

// WriteRecordsCSV exports the batch-job database as CSV — the form in
// which "users and system personnel may examine and analyze" job counters.
// One row per job with the headline derived quantities.
func WriteRecordsCSV(w io.Writer, recs []pbs.Record) error {
	cw := csv.NewWriter(w)
	header := []string{
		"job_id", "user", "class", "nodes", "submit_s", "start_s", "end_s",
		"wall_s", "preemptions", "mflops_per_node", "job_mflops", "mips_per_node",
		"fma_fraction", "flops_per_memref", "cache_miss_ratio", "tlb_miss_ratio",
		"sys_user_fxu",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: csv: %w", err)
	}
	f := strconv.FormatFloat
	for _, r := range recs {
		rates := r.PerNodeRates()
		row := []string{
			strconv.Itoa(r.JobID),
			r.User,
			r.Class,
			strconv.Itoa(r.NodesUsed),
			f(r.SubmitAt.Seconds(), 'f', 1, 64),
			f(r.StartAt.Seconds(), 'f', 1, 64),
			f(r.EndAt.Seconds(), 'f', 1, 64),
			f(r.WallSeconds, 'f', 1, 64),
			strconv.Itoa(r.Preemptions),
			f(rates.MflopsAll, 'f', 3, 64),
			f(r.JobMflops(), 'f', 2, 64),
			f(rates.Mips, 'f', 3, 64),
			f(rates.FMAFraction(), 'f', 4, 64),
			f(rates.FlopsPerMemRef(), 'f', 4, 64),
			f(rates.CacheMissRatio(), 'f', 6, 64),
			f(rates.TLBMissRatio(), 'f', 6, 64),
			f(r.SystemUserFXURatio(), 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: csv: %w", err)
	}
	return nil
}

// WriteRecordsCSVFile writes the job database to path; a ".gz" suffix
// enables gzip compression.
func WriteRecordsCSVFile(path string, recs []pbs.Record) error {
	return writeFile(path, false, func(w io.Writer) error { return WriteRecordsCSV(w, recs) })
}
