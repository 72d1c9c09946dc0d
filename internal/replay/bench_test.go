package replay

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/workload"
)

// benchTrace is the trace codec benchmarks' input: the uncompressed
// trace of a faulted 2-cluster fleet, 7 days on 144 nodes at 96 ticks a
// day (the 900 s sample period) under faults.Default(), recorded once
// per test binary.
var benchTrace = sync.OnceValue(func() []byte {
	mix := workload.DefaultMix(profile.MeasureStandardWorkers(7, 1))
	fc := faults.Default()
	defs := make([]Def, 2)
	for c := range defs {
		cfg := workload.DefaultConfig(workload.ClusterSeed(7, c))
		cfg.Days = 7
		cfg.Faults = &fc
		defs[c] = Def{Config: cfg, Mix: mix}
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, HeaderFor(defs))
	if err != nil {
		panic(err)
	}
	for c, d := range defs {
		tap := rec.Tap(c, d.Config, workload.NewGenerator(d.Config, d.Mix))
		for day := 0; day < d.Config.Days; day++ {
			tap.GenerateDay(day)
		}
	}
	if err := rec.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkReplayRecord writes the trace's header and records through a
// Recorder: the encode a recording fleet pays, before Create's gzip.
// MB/s is over the JSON.
func BenchmarkReplayRecord(b *testing.B) {
	data := benchTrace()
	rp, err := Decode(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		r, err := NewRecorder(&buf, rp.h)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rp.records {
			for _, rec := range row {
				r.record(*rec)
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(buf.Bytes(), data) {
		b.Fatal("re-recorded trace differs from the recorded one")
	}
}

// BenchmarkReplayDecode decodes the trace as a replay does, before
// OpenFile's gunzip. MB/s is over the JSON.
func BenchmarkReplayDecode(b *testing.B) {
	data := benchTrace()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
