package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// writeOutputs returns Write's encodings of the Results the one-pass
// parser must take itself: a 2-day paper campaign, a faulted campaign
// (Config.Faults and Coverage present) and sampleResult (nil NodeIDs).
func writeOutputs(t testing.TB) map[string][]byte {
	t.Helper()
	f := faults.Default()
	out := make(map[string][]byte)
	for name, res := range map[string]workload.Result{
		"paper":   campaign(2, nil),
		"faulted": campaign(2, &f),
		"sample":  sampleResult(),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestParseCanonicalTakesWriteOutput: Write's output must be read by the
// one-pass parser itself, not by the fallback, and read to exactly the
// Result the reference decoder returns.
func TestParseCanonicalTakesWriteOutput(t *testing.T) {
	for name, data := range writeOutputs(t) {
		got, ok := parseCanonical(data)
		if !ok {
			t.Errorf("%s: the one-pass parser declined Write's output", name)
			continue
		}
		want, err := decodeReference(data)
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one-pass Result differs from the reference decoder's", name)
		}
		if name == "faulted" && (got.Config.Faults == nil || got.Coverage == nil) {
			t.Errorf("faulted: the database carries no fault config or coverage report")
		}
	}
}

// A database that is valid JSON but not in Write's canonical form (here
// indented, as a hand edit might leave it) is declined by the one-pass
// parser and still read, by the reference decoder.
func TestReadFallsBackOnNonCanonicalInput(t *testing.T) {
	res := sampleResult()
	data, err := json.MarshalIndent(Envelope{Version: FormatVersion, Result: res}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseCanonical(data); ok {
		t.Fatal("the one-pass parser accepted indented JSON")
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("indented database rejected: %v", err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("indented database read back a different Result")
	}
}

// Nothing but whitespace may follow the envelope, on either path.
func TestReadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	canonical := buf.String()
	indented, err := json.MarshalIndent(Envelope{Version: FormatVersion, Result: sampleResult()}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{canonical, string(indented)} {
		for _, tail := range []string{"garbage{", "{}", "\n0"} {
			_, err := Read(strings.NewReader(doc + tail))
			if err == nil || !strings.Contains(err.Error(), "trailing data") {
				t.Errorf("tail %q: got %v, want a trailing-data error", tail, err)
			}
		}
		if _, err := Read(strings.NewReader(doc + " \t\r\n")); err != nil {
			t.Errorf("trailing whitespace rejected: %v", err)
		}
	}
}

// Each cursor primitive declines exactly the inputs encoding/json would
// read differently or reject, and parses the rest as it does.
func TestCursorPrimitives(t *testing.T) {
	uints := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0,", 0, true},
		{"7,", 7, true},
		{"18446744073709551615,", 1<<64 - 1, true},
		{"18446744073709551616,", 0, false},
		{"99999999999999999999,", 0, false},
		{"01,", 0, false},
		{"-0,", 0, false},
		{"1.5,", 0, false},
		{"1e3,", 0, false},
		{",", 0, false},
	}
	for _, tc := range uints {
		c := &cursor{b: []byte(tc.in)}
		v := c.uint()
		c.expect(",")
		if ok := !c.bad; ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("uint(%q) = %d, %v; want %d, %v", tc.in, v, ok, tc.want, tc.ok)
		}
	}
	ints := []struct {
		in   string
		want int
		ok   bool
	}{
		{"-0,", 0, true},
		{"-42,", -42, true},
		{"9223372036854775807,", 1<<63 - 1, true},
		{"-9223372036854775808,", -1 << 63, true},
		{"9223372036854775808,", 0, false},
		{"-9223372036854775809,", 0, false},
		{"--1,", 0, false},
		{"-,", 0, false},
	}
	for _, tc := range ints {
		c := &cursor{b: []byte(tc.in)}
		v := c.int()
		c.expect(",")
		if ok := !c.bad; ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("int(%q) = %d, %v; want %d, %v", tc.in, v, ok, tc.want, tc.ok)
		}
	}
	for _, in := range []string{"0", "-0", "1e-07", "1E+2", "-12.5e3", "0.1", "5.7", "1e400", "+1", ".5", "1.", "01", "1e", "Inf", "0x10", "-"} {
		c := &cursor{b: []byte(in + ",")}
		got := c.float()
		c.expect(",")
		var want float64
		err := json.Unmarshal([]byte(in), &want)
		if ok := !c.bad; ok != (err == nil) || (ok && got != want) {
			t.Errorf("float(%q) = %v, %v; encoding/json gives %v, %v", in, got, ok, want, err)
		}
	}
	for _, tc := range []struct {
		in   string
		want string
		ok   bool
	}{
		{`"u01"`, "u01", true},
		{`""`, "", true},
		{`"a<b>&c~"`, "a<b>&c~", true},
		{`"a\"b"`, "", false},
		{`"u\u0030"`, "", false},
		{"\"tab\there\"", "", false},
		{"\"café\"", "", false},
		{`"open`, "", false},
	} {
		c := &cursor{b: []byte(tc.in)}
		got := c.str()
		if ok := !c.bad && c.pos == len(c.b); ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("str(%s) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzDatabaseDecode holds the one-pass parser to the reference decoder:
// whatever it accepts, encoding/json must accept too and read to a
// reflect.DeepEqual Result.
func FuzzDatabaseDecode(f *testing.F) {
	// Write's output for the paper and faulted campaigns. The committed
	// corpus under testdata/fuzz adds small encoder outputs and hand edge
	// cases: null against [] slices, exponent floats, a 20-digit count, a
	// count past 2^64-1, -0 and escaped strings.
	for _, data := range writeOutputs(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := parseCanonical(data)
		if !ok {
			return
		}
		want, err := decodeReference(data)
		if err != nil {
			t.Fatalf("one-pass parser accepted input the reference decoder rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("one-pass Result differs from the reference decoder's:\n one-pass %+v\nreference %+v", got, want)
		}
	})
}
