package main

// The experiments CLI contract for the fleet flags: validation exit
// codes (2 malformed invocation, 1 runtime failure — the spsim
// convention) and the -trace conflict. Fleet execution itself is
// exercised through cmd/spsim and internal/fleet; only the cheap
// reject-early paths run a binary here.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// binary builds experiments once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "experiments-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "experiments")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building experiments: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// run executes experiments and returns (stdout, stderr, exit code).
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running experiments: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestFleetFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"shards-zero", []string{"-shards", "0", "-days", "1"}, "-shards must be >= 1"},
		{"shards-negative", []string{"-shards", "-2", "-days", "1"}, "-shards must be >= 1"},
		{"clusters-negative", []string{"-clusters", "-1", "-days", "1"}, "-clusters must be >= 0"},
		{"halt-negative", []string{"-halt-after", "-1", "-days", "1"}, "-halt-after must be >= 0"},
		{"resume-without-checkpoint", []string{"-resume", "-days", "1"}, "-resume requires -checkpoint"},
		{"halt-without-checkpoint", []string{"-halt-after", "1", "-days", "1"}, "-halt-after requires -checkpoint"},
		{"days-negative", []string{"-days", "-3"}, "-days must be >= 0"},
		{"nodes-negative", []string{"-nodes", "-1", "-days", "1"}, "-nodes must be >= 0"},
		{"workers-negative", []string{"-workers", "-1", "-days", "1"}, "-workers must be >= 0"},
		// A cluster smaller than the paper mix's 128-node jobs would panic
		// mid-run the first time it drew one.
		{"nodes-below-largest-job", []string{"-nodes", "127", "-days", "1"}, "127 nodes, but its mix can draw a 128-node job"},
		{"fleet-with-trace", []string{"-clusters", "2", "-trace", "db.json"}, "cannot be combined with -trace"},
		{"shards-with-trace", []string{"-shards", "2", "-trace", "db.json"}, "cannot be combined with -trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := run(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

func TestFleetResumeBadCheckpointExits1(t *testing.T) {
	if testing.Short() {
		t.Skip("binary run in -short mode")
	}
	dir := t.TempDir()
	_, stderr, code := run(t, "-days", "1", "-checkpoint", filepath.Join(dir, "nope.json"), "-resume", "-table1")
	if code != 1 {
		t.Fatalf("missing checkpoint: exit %d, want 1\nstderr: %s", code, stderr)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := run(t, "-days", "1", "-checkpoint", corrupt, "-resume", "-table1"); code != 1 {
		t.Fatalf("corrupt checkpoint: exit %d, want 1\nstderr: %s", code, stderr)
	}
}

func TestUnknownPresetExits2(t *testing.T) {
	if _, _, code := run(t, "-spec", "no-such-preset", "-days", "1"); code != 2 {
		t.Fatalf("unknown -spec: exit %d, want 2", code)
	}
}

// TestBannerShowsResolvedDays runs a 1-day spec without -days: the
// banner must report the campaign the spec defines, not a flag default.
func TestBannerShowsResolvedDays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one-day.json")
	src := `{
	  "version": 1,
	  "name": "one-day",
	  "campaign": {"days": 1, "nodes": 144, "mean_util": 0.5, "util_sigma": 0.1, "paging_day_prob": 0.1},
	  "clients": [
	    {"name": "r", "remainder": true,
	     "profile": {"kernel": "cfd", "compute_duty": 0.8, "comm_active": 0.5,
	                 "perf_sigma": 0.3, "memory_per_node_bytes": 1048576,
	                 "msg_bytes_per_flop": 0.05, "disk_out_bytes_per_sec": 1000}}
	  ]
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run(t, "-spec", path, "-table1")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	banner, _, _ := strings.Cut(stdout, "\n")
	if !strings.Contains(banner, "1-day") {
		t.Fatalf("banner should report the spec's 1-day campaign: %q", banner)
	}
}

// --- record/replay flag contract ---

func TestReplayFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"record-with-trace", []string{"-record", "t.gz", "-trace", "db.json"},
			"cannot be combined with -trace"},
		{"replay-with-trace", []string{"-replay", "t.gz", "-trace", "db.json"},
			"cannot be combined with -trace"},
		{"record-with-replay", []string{"-record", "t.gz", "-replay", "t.gz", "-days", "1"},
			"-record cannot be combined with -replay"},
		{"record-with-resume", []string{"-record", "t.gz", "-checkpoint", "cp.json", "-resume", "-days", "1"},
			"-record cannot be combined with -resume"},
		{"record-with-halt", []string{"-record", "t.gz", "-checkpoint", "cp.json", "-halt-after", "1", "-days", "1"},
			"-record cannot be combined with -halt-after"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := run(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestReplayBadTraceExits1 drives the fail-fast probe: a missing or
// corrupt trace exits 1 before any kernel measurement, so this test
// stays cheap enough to run unconditionally.
func TestReplayBadTraceExits1(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := run(t, "-days", "1", "-table1", "-replay", filepath.Join(dir, "nope.trace.gz")); code != 1 {
		t.Fatalf("missing trace: exit %d, want 1\nstderr: %s", code, stderr)
	}
	corrupt := filepath.Join(dir, "corrupt.trace.gz")
	if err := os.WriteFile(corrupt, []byte("not a gzip campaign trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "-days", "1", "-table1", "-replay", corrupt)
	if code != 1 {
		t.Fatalf("corrupt trace: exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "corrupt.trace.gz") {
		t.Errorf("stderr should name the trace file:\n%s", stderr)
	}
}
