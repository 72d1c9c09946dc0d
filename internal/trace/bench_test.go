package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/workload"
)

// benchResult is the database layer benchmarks' input: one fixed-seed
// 30-day, 144-node paper campaign, built once per test binary.
var benchResult = sync.OnceValue(func() workload.Result { return campaign(30, nil) })

// BenchmarkDatabaseWrite encodes the campaign database to JSON; MB/s is
// over the JSON bytes. trace.db_encode_s adds gzip on top of this.
func BenchmarkDatabaseWrite(b *testing.B) {
	res := benchResult()
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatabaseRead decodes the campaign database from JSON; MB/s is
// over the JSON bytes. trace.db_decode_s adds gunzip on top of this.
func BenchmarkDatabaseRead(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, benchResult()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointAppend encodes the campaign as one cluster's
// checkpoint segment and appends it to a ".gz" journal, fsync included:
// the cost a fleet pays per completed cluster. MB/s is over the JSON
// payload.
func BenchmarkCheckpointAppend(b *testing.B) {
	res := benchResult()
	j, err := CreateJournal(filepath.Join(b.TempDir(), "fleet.ckpt.gz"), 1, b.N)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(i, res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointRead decodes a ".gz" journal holding the campaign
// as one completed cluster, as a resume reads it; MB/s is over the JSON
// payload.
func BenchmarkCheckpointRead(b *testing.B) {
	res := benchResult()
	var payload bytes.Buffer
	if err := Write(&payload, res); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "fleet.ckpt.gz")
	j, err := CreateJournal(path, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Append(0, res); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payload.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeCheckpoint(data, true); err != nil {
			b.Fatal(err)
		}
	}
}
