package main

// The spec-facing CLI contract: -list-presets, -validate exit codes
// (0 clean / 2 malformed, the hpmlint convention) and -spec error
// handling, exercised end to end against the built binary. Campaign
// execution itself is covered by the internal/spec round-trip tests;
// here only the cheap, run-nothing paths are driven, so the suite stays
// fast.

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

// binary builds spsim once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "spsim-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "spsim")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building spsim: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// run executes spsim and returns (stdout, stderr, exit code).
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
			t.Fatalf("running spsim: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestListPresets(t *testing.T) {
	stdout, stderr, code := run(t, "-list-presets")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, name := range []string{"paper-1996", "bursty", "memory-bound", "comm-heavy"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list-presets output missing %s:\n%s", name, stdout)
		}
	}
}

func TestValidateAllPresetsClean(t *testing.T) {
	stdout, stderr, code := run(t, "-validate")
	if code != 0 {
		t.Fatalf("committed presets must validate: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "paper-1996: ok") {
		t.Errorf("per-spec ok lines missing:\n%s", stdout)
	}
}

func TestValidateMalformedSpecExits2(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	// Three problems: version, a missing name, and a share out of range.
	src := `{
	  "version": 9,
	  "name": "",
	  "campaign": {"days": 10, "nodes": 16, "mean_util": 0.5, "util_sigma": 0.1, "paging_day_prob": 0.1},
	  "clients": [
	    {"name": "c", "share": 1.7,
	     "profile": {"kernel": "cfd", "compute_duty": 0.8, "comm_active": 0.5,
	                 "perf_sigma": 0.3, "memory_per_node_bytes": 1048576,
	                 "msg_bytes_per_flop": 0.05, "disk_out_bytes_per_sec": 1000}},
	    {"name": "r", "remainder": true,
	     "profile": {"kernel": "cfd", "compute_duty": 0.8, "comm_active": 0.5,
	                 "perf_sigma": 0.3, "memory_per_node_bytes": 1048576,
	                 "msg_bytes_per_flop": 0.05, "disk_out_bytes_per_sec": 1000}}
	  ]
	}`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "-validate", bad)
	if code != 2 {
		t.Fatalf("malformed spec: exit %d, want 2\nstderr: %s", code, stderr)
	}
	// Field-path error messages must reach the user.
	for _, want := range []string{"version", "clients[0].share"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing field path %q:\n%s", want, stderr)
		}
	}

	// A clean file through the same path exits 0.
	good := filepath.Join(dir, "good.json")
	src = strings.Replace(src, `"version": 9`, `"version": 1`, 1)
	src = strings.Replace(src, `"name": ""`, `"name": "fixed"`, 1)
	src = strings.Replace(src, `"share": 1.7`, `"share": 0.7`, 1)
	if err := os.WriteFile(good, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := run(t, "-validate", good); code != 0 {
		t.Fatalf("clean spec: exit %d, want 0\nstderr: %s", code, stderr)
	}
}

func TestValidateUnreadableSpecExits2(t *testing.T) {
	if _, _, code := run(t, "-validate", "no/such/spec.json"); code != 2 {
		t.Fatalf("missing spec file: exit %d, want 2", code)
	}
	if _, _, code := run(t, "-validate", "-spec", "no-such-preset"); code != 2 {
		t.Fatalf("unknown preset: exit %d, want 2", code)
	}
}

func TestSpecFlagUnknownPresetExits2(t *testing.T) {
	_, stderr, code := run(t, "-spec", "no-such-preset", "-days", "1")
	if code != 2 {
		t.Fatalf("unknown -spec: exit %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown preset") {
		t.Errorf("stderr should name the failure: %s", stderr)
	}
}

// --- fleet flag contract ---

func TestFleetFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"shards-zero", []string{"-shards", "0", "-days", "1"}, "-shards must be >= 1"},
		{"shards-negative", []string{"-shards", "-3", "-days", "1"}, "-shards must be >= 1"},
		{"clusters-negative", []string{"-clusters", "-1", "-days", "1"}, "-clusters must be >= 0"},
		{"halt-negative", []string{"-halt-after", "-1", "-days", "1"}, "-halt-after must be >= 0"},
		{"resume-without-checkpoint", []string{"-resume", "-days", "1"}, "-resume requires -checkpoint"},
		{"halt-without-checkpoint", []string{"-halt-after", "2", "-days", "1"}, "-halt-after requires -checkpoint"},
		{"days-negative", []string{"-days", "-3"}, "-days must be >= 0"},
		{"nodes-negative", []string{"-nodes", "-1", "-days", "1"}, "-nodes must be >= 0"},
		{"workers-negative", []string{"-workers", "-1", "-days", "1"}, "-workers must be >= 0"},
		// A cluster smaller than the paper mix's 128-node jobs would panic
		// mid-run the first time it drew one.
		{"nodes-below-largest-job", []string{"-nodes", "127", "-days", "1"}, "127 nodes, but its mix can draw a 128-node job"},
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

// TestUnrunnableClusterMessage: a campaign definition that cannot run is
// reported in the command's own words, with no package prefix.
func TestUnrunnableClusterMessage(t *testing.T) {
	const want = "spsim: cluster 0 has 127 nodes, but its mix can draw a 128-node job\n"
	_, stderr, code := run(t, "-nodes", "127", "-days", "1")
	if code != 2 || stderr != want {
		t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
	}
}

func TestFleetResumeBadCheckpointExits1(t *testing.T) {
	if testing.Short() {
		t.Skip("binary run in -short mode")
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.json")
	_, stderr, code := run(t, "-days", "1", "-checkpoint", missing, "-resume")
	if code != 1 {
		t.Fatalf("missing checkpoint: exit %d, want 1\nstderr: %s", code, stderr)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := run(t, "-days", "1", "-checkpoint", corrupt, "-resume"); code != 1 {
		t.Fatalf("corrupt checkpoint: exit %d, want 1\nstderr: %s", code, stderr)
	}
}

// TestFleetHaltResumeCLI drives the operational loop end to end: a
// halted fleet exits 0 pointing at its checkpoint, and a -resume run
// finishes the campaign from it.
func TestFleetHaltResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	cp := filepath.Join(t.TempDir(), "fleet.json.gz")
	stdout, stderr, code := run(t,
		"-days", "1", "-clusters", "2", "-shards", "2",
		"-checkpoint", cp, "-halt-after", "1")
	if code != 0 {
		t.Fatalf("halt run: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "halted after 1 cluster completion") {
		t.Fatalf("halt message missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "campaign summary") {
		t.Fatal("halted run must not print a summary")
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	stdout, stderr, code = run(t,
		"-days", "1", "-clusters", "2", "-shards", "2",
		"-checkpoint", cp, "-resume")
	if code != 0 {
		t.Fatalf("resume run: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "campaign summary") {
		t.Fatalf("resumed run must finish with a summary:\n%s", stdout)
	}
}

// --- record/replay flag contract ---

func TestReplayFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
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
	missing := filepath.Join(dir, "nope.trace.gz")
	if _, stderr, code := run(t, "-days", "1", "-replay", missing); code != 1 {
		t.Fatalf("missing trace: exit %d, want 1\nstderr: %s", code, stderr)
	}
	corrupt := filepath.Join(dir, "corrupt.trace.gz")
	if err := os.WriteFile(corrupt, []byte("not a gzip campaign trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "-days", "1", "-replay", corrupt)
	if code != 1 {
		t.Fatalf("corrupt trace: exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "corrupt.trace.gz") {
		t.Errorf("stderr should name the trace file:\n%s", stderr)
	}
}

// TestRecordReplayRoundTripCLI is the CLI-level differential proof: a
// recorded run and its replay must export byte-identical campaign
// databases, and replaying against a different definition must fail
// with exit 1 rather than produce a plausible wrong database.
func TestRecordReplayRoundTripCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign runs in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "campaign.trace.gz")
	live := filepath.Join(dir, "live.json")
	replayed := filepath.Join(dir, "replayed.json")

	stdout, stderr, code := run(t, "-days", "1", "-seed", "7", "-record", trace, "-o", live)
	if code != 0 {
		t.Fatalf("record run: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "campaign trace recorded to") {
		t.Errorf("record run should announce the trace:\n%s", stdout)
	}
	// Replay at a different worker count: execution knobs must not
	// affect the replayed result.
	stdout, stderr, code = run(t, "-days", "1", "-seed", "7", "-workers", "3", "-replay", trace, "-o", replayed)
	if code != 0 {
		t.Fatalf("replay run: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "replaying") {
		t.Errorf("replay run should announce itself:\n%s", stdout)
	}
	a, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("live and replayed campaign databases differ (%d vs %d bytes)", len(a), len(b))
	}

	// Wrong seed = wrong definition: the fingerprint check must refuse.
	_, stderr, code = run(t, "-days", "1", "-seed", "8", "-replay", trace)
	if code != 1 {
		t.Fatalf("mismatched replay: exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "fingerprint") {
		t.Errorf("stderr should name the fingerprint mismatch:\n%s", stderr)
	}
}
