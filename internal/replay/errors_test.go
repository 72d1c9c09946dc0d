package replay_test

// Error-path coverage for the trace decoder and validator: every way a
// trace can be wrong classifies into exactly one of the three sentinel
// families (ErrVersion, ErrCorrupt, ErrMismatch), with no panics and no
// silently accepted garbage. The cases mirror what operators actually
// hit — truncated files from killed recorders, traces from newer builds,
// traces replayed against the wrong campaign definition.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/workload"
)

// testDef builds a small campaign definition (generation only — these
// tests never simulate).
func testDef(t *testing.T, days int, seed uint64, faulted bool) ([]replay.Def, workload.Config, workload.Mix) {
	t.Helper()
	std := profile.MeasureStandardWorkers(7, 1)
	mix := workload.DefaultMix(std)
	cfg := workload.DefaultConfig(seed)
	cfg.Days = days
	if faulted {
		fc := faults.Default()
		cfg.Faults = &fc
	}
	return []replay.Def{{Config: cfg, Mix: mix}}, cfg, mix
}

// traceBytes records the definition's generated plans into an
// uncompressed in-memory trace.
func traceBytes(t *testing.T, defs []replay.Def) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, replay.HeaderFor(defs))
	if err != nil {
		t.Fatal(err)
	}
	for c := range defs {
		tap := rec.Tap(c, defs[c].Config, workload.NewGenerator(defs[c].Config, defs[c].Mix))
		for d := 0; d < defs[c].Config.Days; d++ {
			tap.GenerateDay(d)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeErrorClassification(t *testing.T) {
	defs, _, _ := testDef(t, 1, 3, false)
	valid := traceBytes(t, defs)
	header := valid[:bytes.IndexByte(valid, '\n')+1]

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty input", nil, replay.ErrCorrupt},
		{"not JSON", []byte("RS2HPM says hi"), replay.ErrCorrupt},
		{"JSON but not an object", []byte("[1,2,3]\n"), replay.ErrCorrupt},
		{"wrong format name", []byte(`{"format":"hpm-checkpoint","version":1}` + "\n"), replay.ErrCorrupt},
		{"future format version", []byte(`{"format":"hpm-campaign-trace","version":2,"fields_from_the_future":true}` + "\n"), replay.ErrVersion},
		{"version zero", []byte(`{"format":"hpm-campaign-trace","version":0}` + "\n"), replay.ErrVersion},
		{"unknown header field at current version", []byte(`{"format":"hpm-campaign-trace","version":1,"seed":1,"fingerprint":1,"clusters":1,"days":1,"cluster_days":[1],"faulted":false,"extra":1}` + "\n"), replay.ErrCorrupt},
		{"cluster_days disagrees with clusters", []byte(`{"format":"hpm-campaign-trace","version":1,"seed":1,"fingerprint":1,"clusters":2,"days":1,"cluster_days":[1],"faulted":false}` + "\n"), replay.ErrCorrupt},
		{"days disagrees with cluster_days", []byte(`{"format":"hpm-campaign-trace","version":1,"seed":1,"fingerprint":1,"clusters":1,"days":5,"cluster_days":[1],"faulted":false}` + "\n"), replay.ErrCorrupt},
		{"absurd cluster count", []byte(`{"format":"hpm-campaign-trace","version":1,"seed":1,"fingerprint":1,"clusters":1073741824,"days":1,"cluster_days":[1],"faulted":false}` + "\n"), replay.ErrCorrupt},
		{"header only, no records", header, replay.ErrCorrupt},
		{"truncated mid-record", valid[:len(valid)-len(valid)/3], replay.ErrCorrupt},
		{"trailing garbage", append(append([]byte{}, valid...), []byte("}{ not a record")...), replay.ErrCorrupt},
		{"trailing duplicate record", append(append([]byte{}, valid...), valid[len(header):]...), replay.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := replay.Decode(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("decode unexpectedly succeeded")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("decode error %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := replay.Decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the valid trace itself failed to decode: %v", err)
	}
}

func TestValidateMismatches(t *testing.T) {
	defs, cfg, mix := testDef(t, 1, 3, false)
	valid := traceBytes(t, defs)

	decode := func(t *testing.T) *replay.Replayer {
		t.Helper()
		rp, err := replay.Decode(bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}

	cases := []struct {
		name    string
		mutate  func(workload.Config) workload.Config
		wantMsg string
	}{
		{"different seed", func(c workload.Config) workload.Config {
			c.Seed = 4
			return c
		}, "fingerprint"},
		{"replay wants more days than the trace", func(c workload.Config) workload.Config {
			c.Days = 2
			return c
		}, "days"},
		{"faulted configuration against unfaulted trace", func(c workload.Config) workload.Config {
			fc := faults.Default()
			c.Faults = &fc
			return c
		}, "fault plan"},
		{"different sample period", func(c workload.Config) workload.Config {
			c.SamplePeriodSeconds = 450
			return c
		}, "fingerprint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := decode(t)
			err := rp.Validate([]replay.Def{{Config: tc.mutate(cfg), Mix: mix}})
			if !errors.Is(err, replay.ErrMismatch) {
				t.Fatalf("validate error %v, want ErrMismatch", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("validate error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}

	t.Run("wrong cluster count", func(t *testing.T) {
		rp := decode(t)
		two := []replay.Def{{Config: cfg, Mix: mix}, {Config: cfg, Mix: mix}}
		if err := rp.Validate(two); !errors.Is(err, replay.ErrMismatch) {
			t.Fatalf("validate error %v, want ErrMismatch", err)
		}
	})
	t.Run("matching definition validates", func(t *testing.T) {
		rp := decode(t)
		if err := rp.Validate(defs); err != nil {
			t.Fatalf("matching definition failed validation: %v", err)
		}
	})
	t.Run("workers and scenario are execution knobs", func(t *testing.T) {
		rp := decode(t)
		c := cfg
		c.Scenario = "renamed-spec"
		// The profiles measured at another width, the store bypassed.
		wide := workload.DefaultMix(profile.MeasureStandardStore(nil, 7, 4))
		if err := rp.Validate([]replay.Def{{Config: c, Mix: wide}}); err != nil {
			t.Fatalf("execution knobs invalidated the trace: %v", err)
		}
	})
}

// TestUnfaultedConfigAgainstFaultedTrace covers the mismatch in the
// other direction: a trace carrying fault plans must not replay into a
// campaign that would ignore them.
func TestUnfaultedConfigAgainstFaultedTrace(t *testing.T) {
	defs, cfg, mix := testDef(t, 1, 3, true)
	rp, err := replay.Decode(bytes.NewReader(traceBytes(t, defs)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = nil
	if err := rp.Validate([]replay.Def{{Config: cfg, Mix: mix}}); !errors.Is(err, replay.ErrMismatch) {
		t.Fatalf("validate error %v, want ErrMismatch", err)
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()

	t.Run("missing file", func(t *testing.T) {
		_, err := replay.OpenFile(filepath.Join(dir, "nope.trace.gz"))
		if err == nil || errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("want a plain I/O error, got %v", err)
		}
	})
	t.Run("not gzip", func(t *testing.T) {
		path := filepath.Join(dir, "plain.trace.gz")
		if err := os.WriteFile(path, []byte("just text"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := replay.OpenFile(path); !errors.Is(err, replay.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for a non-gzip file, got %v", err)
		}
	})
	t.Run("recorded file round-trips", func(t *testing.T) {
		defs, cfg, mix := testDef(t, 1, 3, false)
		path := filepath.Join(dir, "ok.trace.gz")
		rec, err := replay.Create(path, replay.HeaderFor(defs))
		if err != nil {
			t.Fatal(err)
		}
		tap := rec.Tap(0, cfg, workload.NewGenerator(cfg, mix))
		tap.GenerateDay(0)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		rp, err := replay.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Validate(defs); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("aborted recorder leaves nothing behind", func(t *testing.T) {
		defs, _, _ := testDef(t, 1, 3, false)
		path := filepath.Join(dir, "aborted.trace.gz")
		rec, err := replay.Create(path, replay.HeaderFor(defs))
		if err != nil {
			t.Fatal(err)
		}
		rec.Abort()
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("aborted trace left a file at %s (stat: %v)", path, err)
		}
		left, err := filepath.Glob(filepath.Join(dir, "aborted.trace.gz.tmp*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("aborted recorder left temp files: %v", left)
		}
	})
}
