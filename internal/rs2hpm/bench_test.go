package rs2hpm

// Layer benches for the wire codec: one MGET frame encoded and decoded
// in memory, and one batch over loopback against a v1 daemon (pipelined
// single-GET) and a v2 one (MGET). 72 nodes is the per-daemon node count
// of the repository benchmark's collect workload.

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"testing"

	"repro/internal/hpm"
)

const benchNodes = 72

// staticSource serves one fixed snapshot with every counter set in both
// modes, so every line carries numbers of a realistic width.
type staticSource struct {
	id   int
	snap hpm.Counts64
}

func newStaticSource(id int) *staticSource {
	s := &staticSource{id: id}
	for m := range s.snap.Counts {
		for ev := range s.snap.Counts[m] {
			s.snap.Counts[m][ev] = (uint64(id+1)*uint64(ev+1)*uint64(m+1)*0x9E3779B97F4A7C15)>>20 | 1
		}
	}
	return s
}

func (s *staticSource) NodeID() int            { return s.id }
func (s *staticSource) Counters() hpm.Counts64 { return s.snap }

// benchFleet builds benchNodes static sources and their request list.
func benchFleet() ([]Source, []int, []string) {
	srcs := make([]Source, benchNodes)
	ids := make([]int, benchNodes)
	args := make([]string, benchNodes)
	for i := range srcs {
		srcs[i] = newStaticSource(i)
		ids[i] = i
		args[i] = strconv.Itoa(i)
	}
	return srcs, ids, args
}

var benchEntries []BatchEntry

func BenchmarkBatchFrame(b *testing.B) {
	srcs, ids, args := benchFleet()
	d := NewDaemon(srcs...)
	var frame bytes.Buffer
	fw := bufio.NewWriter(&frame)
	d.writeBatch(fw, args)
	if err := fw.Flush(); err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		w := bufio.NewWriter(io.Discard)
		b.ReportAllocs()
		b.SetBytes(int64(frame.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.writeBatch(w, args)
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		raw := frame.Bytes()
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, err := decodeBatch(bufio.NewScanner(bytes.NewReader(raw)), ids)
			if err != nil {
				b.Fatal(err)
			}
			benchEntries = entries
		}
	})
}

// BenchmarkBatchFallback is one 72-node BatchCounters against a daemon
// pinned to wire v1, so every read takes the single-GET path.
func BenchmarkBatchFallback(b *testing.B) {
	benchBatchCounters(b, ProtocolV1)
}

// BenchmarkBatchMGET is one 72-node BatchCounters against a v2 daemon:
// one MGET round trip.
func BenchmarkBatchMGET(b *testing.B) {
	benchBatchCounters(b, ProtocolV2)
}

// benchBatchCounters times one 72-node BatchCounters over loopback
// against a daemon speaking protocol, and reports the write calls the
// daemon made per batch.
func benchBatchCounters(b *testing.B, protocol int) {
	srcs, ids, _ := benchFleet()
	d := NewDaemonProtocol(protocol, srcs...)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// The first batch negotiates the protocol; time only later ones.
	if _, err := c.BatchCounters(ids); err != nil {
		b.Fatal(err)
	}
	writes0 := telDaemonWrites.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := c.BatchCounters(ids)
		if err != nil {
			b.Fatal(err)
		}
		benchEntries = entries
	}
	b.ReportMetric(float64(telDaemonWrites.Value()-writes0)/float64(b.N), "daemon-writes/op")
}
