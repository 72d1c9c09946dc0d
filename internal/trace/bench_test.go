package trace

import (
	"bytes"
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
