package trace

// The appending encoder against its oracle, encoding/json: byte pins on
// the Results the tree writes and on the edges of every primitive,
// through Write (chunks handed to the writer on a goroutine of their own)
// and through encodeSegment (one buffer), and the failures: a float JSON
// cannot hold, and a writer that fails.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/leakcheck"
	"repro/internal/pbs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// oracle is encoding/json's encoding of res's envelope, and its error.
func oracle(res workload.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(Envelope{Version: FormatVersion, Result: res})
	return buf.Bytes(), err
}

// pinEncoders fails t unless Write and encodeSegment both emit the
// oracle's bytes for res, or both fail where the oracle fails.
func pinEncoders(t *testing.T, name string, res workload.Result) {
	t.Helper()
	want, werr := oracle(res)
	var got bytes.Buffer
	gerr := Write(&got, res)
	rec, serr := encodeSegment(nil, 5, &res)
	if werr != nil || gerr != nil || serr != nil {
		if werr == nil || gerr == nil || serr == nil {
			t.Fatalf("%s: encoding/json: %v; Write: %v; encodeSegment: %v", name, werr, gerr, serr)
		}
		return
	}
	for _, enc := range []struct {
		what string
		b    []byte
	}{{"Write", got.Bytes()}, {"encodeSegment", rec[frameLen:]}} {
		if !bytes.Equal(enc.b, want) {
			i := 0
			for i < len(enc.b) && i < len(want) && enc.b[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %s's %d bytes leave encoding/json's %d at byte %d:\n%s %q\n   oracle %q",
				name, enc.what, len(enc.b), len(want), i, enc.what, excerpt(enc.b, i), excerpt(want, i))
		}
	}
}

// excerpt is the bytes of b around i.
func excerpt(b []byte, i int) []byte {
	return b[max(i-40, 0):min(i+40, len(b))]
}

// edgeFloats are the float64s at the edges of encoding/json's float form:
// zeros, each side of the 1e-6 and 1e21 switches to 'e', an exponent it
// shortens (e-09 to e-9), and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e-9,
	1e20, 1e21, -1e21, 123456789012345678, 0.1, 5.7, 1.0 / 3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64,
}

// edgeNames are user and class names for every way encoding/json quotes
// a string: HTML characters, quotes and backslashes, control bytes,
// U+2028 and U+2029, non-ASCII text and invalid UTF-8.
var edgeNames = []string{
	"", "u01", "production-cfd", "<script>", "a<b", "a&b", "x>y", `say "hi"`, `back\slash`,
	"line\u2028sep", "para\u2029sep", "café", "日本語", "\xff\xfe invalid", "cut \xe6\x97",
	"tab\there", "nul\x00", "del\x7f", "new\nline", "plain ~!@#$%^*()_+{}|:?[];',./`",
}

// edgeResults are small Results covering every shape and primitive edge
// the encoder has.
func edgeResults() map[string]workload.Result {
	var full hpm.Delta
	for m := range full.Counts {
		for e := range full.Counts[m] {
			full.Counts[m][e] = math.MaxUint64 >> (3 * e)
		}
	}
	floats := sampleResult()
	floats.Days, floats.Records = nil, nil
	for i, f := range edgeFloats {
		floats.Days = append(floats.Days, workload.Day{Index: i, Delta: full, BusyNodeSeconds: f})
		floats.Records = append(floats.Records, pbs.Record{
			JobID: i, SubmitAt: simclock.Time(f), StartAt: simclock.Time(-f), EndAt: simclock.Time(f / 3),
			WallSeconds: f, NodeIDs: []int{}, PerNode: []hpm.Delta{},
		})
	}
	floats.MaxGflops15min = math.SmallestNonzeroFloat64
	floats.Config.MeanUtil, floats.Config.UtilSigma = 1e-7, 1e21
	floats.Config.PagingDayProb, floats.Config.MinRecordWall = math.Copysign(0, -1), math.MaxFloat64

	names := sampleResult()
	names.Records = nil
	for i, n := range edgeNames {
		names.Records = append(names.Records, pbs.Record{JobID: i, User: n, Class: edgeNames[len(edgeNames)-1-i]})
	}

	ints := sampleResult()
	ints.Config.Days, ints.Config.Nodes, ints.Config.Seed = -1, math.MaxInt, math.MaxUint64
	ints.Days[0].Index = math.MinInt
	ints.DroppedRecords = -7
	ints.Records = append(ints.Records, pbs.Record{
		JobID: math.MinInt, NodesUsed: math.MaxInt, Preemptions: -1,
		NodeIDs: []int{0, -1, math.MaxInt, math.MinInt}, MemoryPerNodeBytes: math.MaxUint64,
		PerNode: []hpm.Delta{full, {}},
	})

	nilLists := sampleResult()
	nilLists.Records = append(nilLists.Records, pbs.Record{JobID: 8, User: "u02", Class: "batch"})

	f := faults.Default()
	faulted := sampleResult()
	faulted.Config.Faults = &f
	faulted.Coverage = &faults.Report{Days: []faults.DayCoverage{{Day: 1}}}

	return map[string]workload.Result{
		"empty":           {},
		"empty-lists":     {Days: []workload.Day{}, Records: []pbs.Record{}},
		"sample":          sampleResult(),
		"nil-ids-pernode": nilLists,
		"names":           names,
		"floats":          floats,
		"ints":            ints,
		"faulted":         faulted,
	}
}

// TestWriteMatchesEncodingJSON pins the encoder's bytes to encoding/json's
// on the edge Results and on 2-day paper and faulted campaigns, whose
// databases take more than one chunk. The committed trace fixtures'
// Results are pinned in internal/cliperf (TestTraceFixturesDatabaseBytes).
func TestWriteMatchesEncodingJSON(t *testing.T) {
	for name, res := range edgeResults() {
		pinEncoders(t, name, res)
	}
	f := faults.Default()
	for name, res := range map[string]workload.Result{"paper": campaign(2, nil), "faulted-campaign": campaign(2, &f)} {
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			t.Fatal(err)
		}
		if buf.Len() <= chunkSize {
			t.Fatalf("%s: %d bytes fit one chunk; the pin would not cover the handoff", name, buf.Len())
		}
		pinEncoders(t, name, res)
	}
}

// bigResult is a synthetic database of several chunks.
func bigResult() workload.Result {
	res := sampleResult()
	rec := res.Records[0]
	for i := range rec.PerNode[0].Counts[hpm.User] {
		rec.PerNode[0].Counts[hpm.User][i] = 1e12 + uint64(i)
	}
	for len(res.Records) < 4000 {
		rec.JobID++
		res.Records = append(res.Records, rec)
	}
	return res
}

// NaN and the infinities in any float field fail Write and encodeSegment
// as they fail encoding/json, with its error; WriteFile then leaves its
// path as it was, and a journal append writes nothing.
func TestWriteRejectsNonFinite(t *testing.T) {
	set := map[string]func(*workload.Result, float64){
		"MaxGflops15min":         func(r *workload.Result, f float64) { r.MaxGflops15min = f },
		"Config.MeanUtil":        func(r *workload.Result, f float64) { r.Config.MeanUtil = f },
		"Days.BusyNodeSeconds":   func(r *workload.Result, f float64) { r.Days[len(r.Days)-1].BusyNodeSeconds = f },
		"Records.SubmitAt":       func(r *workload.Result, f float64) { r.Records[len(r.Records)-1].SubmitAt = simclock.Time(f) },
		"Records.StartAt":        func(r *workload.Result, f float64) { r.Records[len(r.Records)-1].StartAt = simclock.Time(f) },
		"Records.EndAt":          func(r *workload.Result, f float64) { r.Records[len(r.Records)-1].EndAt = simclock.Time(f) },
		"Records.WallSeconds":    func(r *workload.Result, f float64) { r.Records[len(r.Records)-1].WallSeconds = f },
		"Config.Faults.DropProb": func(r *workload.Result, f float64) { r.Config.Faults = &faults.Config{DropProbPerSample: f} },
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	if err := WriteFile(path, sampleResult()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for field, setField := range set {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			res := bigResult()
			setField(&res, f)
			_, werr := oracle(res)
			var uve *json.UnsupportedValueError
			if !errors.As(werr, &uve) {
				t.Fatalf("%s=%v: encoding/json gives %v", field, f, werr)
			}
			err := Write(new(bytes.Buffer), res)
			if !errors.As(err, &uve) || !strings.Contains(err.Error(), werr.Error()) {
				t.Errorf("%s=%v: Write gives %v, want encoding/json's %v", field, f, err, werr)
			}
			if _, err := encodeSegment(nil, 0, &res); !errors.As(err, &uve) {
				t.Errorf("%s=%v: encodeSegment gives %v, want encoding/json's %v", field, f, err, werr)
			}
			if err := WriteFile(path, res); !errors.As(err, &uve) {
				t.Errorf("%s=%v: WriteFile gives %v", field, f, err)
			}
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed WriteFiles changed %s (err %v)", path, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed WriteFiles left %d files in the directory, want 1", len(ents))
	}

	ckpt := filepath.Join(dir, "fleet.ckpt.gz")
	j, err := CreateJournal(ckpt, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := sampleResult()
	bad.MaxGflops15min = math.NaN()
	if err := j.Append(0, bad); err == nil {
		t.Fatal("journal appended a NaN")
	}
	if err := j.Append(1, sampleResult()); err != nil {
		t.Fatalf("append after a failed encode: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadFleetCheckpointFile(ckpt)
	if err != nil || len(cp.Done) != 1 || cp.Done[0].Cluster != 1 {
		t.Fatalf("journal holds %+v (err %v), want cluster 1 alone", cp.Done, err)
	}
}

// failingWriter takes every write until the one numbered failAt, which
// fails.
type failingWriter struct {
	failAt, calls int
}

var errInjected = errors.New("injected write failure")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls-1 == w.failAt {
		return 0, errInjected
	}
	return len(p), nil
}

// A writer failing at the first, a middle or the last chunk makes Write
// return its error once the goroutine writing to it has ended, and is
// not written to again.
func TestWriteReturnsWriterError(t *testing.T) {
	res := bigResult()
	count := &failingWriter{failAt: -1}
	if err := Write(count, res); err != nil {
		t.Fatal(err)
	}
	chunks := count.calls
	if chunks < 3 {
		t.Fatalf("%d chunks; the test needs a first, a middle and a last", chunks)
	}
	before := leakcheck.Take()
	for _, at := range []int{0, chunks / 2, chunks - 1} {
		w := &failingWriter{failAt: at}
		if err := Write(w, res); !errors.Is(err, errInjected) {
			t.Errorf("failure at chunk %d of %d: Write gives %v", at, chunks, err)
		}
		if w.calls != at+1 {
			t.Errorf("failure at chunk %d of %d: %d writes, want %d", at, chunks, w.calls, at+1)
		}
	}
	leakcheck.Check(t, before)
}

// Once its writer has failed, the encoder stops at its next full chunk
// instead of encoding the rest of the envelope.
func TestEncoderStopsAfterWriterError(t *testing.T) {
	w := &failingWriter{failAt: 0}
	h := startHandoff(w)
	e := encoder{b: <-h.free, out: h}
	e.b = append(e.b, make([]byte, chunkSize)...)
	e.spill() // the chunk the writer fails on
	for !h.failed.Load() {
		runtime.Gosched()
	}
	e.b = append(e.b[:0], make([]byte, chunkSize)...)
	e.spill()
	close(h.full)
	if err := <-h.done; !errors.Is(err, errInjected) {
		t.Fatalf("handoff ends with %v", err)
	}
	if e.err != errStopped || w.calls != 1 {
		t.Fatalf("encoder error %v and %d writes after the writer failed; want errStopped and 1", e.err, w.calls)
	}
}

// decodeCorpus is FuzzDatabaseDecode's committed corpus: files of a
// "go test fuzz v1" line and one []byte literal.
func decodeCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDatabaseDecode", "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no FuzzDatabaseDecode corpus (%v)", err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok1 := strings.CutPrefix(lit, "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		s, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !ok1 || !ok2 || err != nil {
			tb.Fatalf("%s is not one []byte input", p)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDatabaseEncode holds the appender to encoding/json: for every input
// the reference decoder accepts, Write and encodeSegment must emit
// encoding/json's bytes for the decoded Result, or fail where it fails.
func FuzzDatabaseEncode(f *testing.F) {
	// FuzzDatabaseDecode's corpus, and Write's output for the edge Results.
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	for name, res := range edgeResults() {
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeReference(data)
		if err != nil {
			return
		}
		pinEncoders(t, "decoded input", res)
	})
}
