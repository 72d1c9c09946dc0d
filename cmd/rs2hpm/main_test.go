package main

// The collector CLI's reject-early contract, against the built binary: a
// flag value collection cannot run with exits 2 with a message naming
// the flag, before anything is dialled. Collection itself runs end to end
// in cmd/rs2hpmd's tests.

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
	binDir    string
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary builds rs2hpm once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "rs2hpm-bin-*")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "rs2hpm")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building rs2hpm: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// run executes rs2hpm and returns (stdout, stderr, exit code).
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
			t.Fatalf("running rs2hpm: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestFlagValidationExits2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"every-zero", []string{"-collect", "1s", "-every", "0"}, "-every must be positive"},
		{"every-negative", []string{"-collect", "1s", "-every", "-1s"}, "-every must be positive"},
		{"queue-policy", []string{"-collect", "1s", "-queue-policy", "x"}, "-queue-policy must be block or drop"},
		{"queue-depth-zero", []string{"-collect", "1s", "-queue-depth", "0"}, "-queue-depth must be at least 1"},
		{"queue-depth-negative", []string{"-collect", "1s", "-queue-depth", "-5"}, "-queue-depth must be at least 1"},
		{"collectors-negative", []string{"-collect", "1s", "-collectors", "-3"}, "-collectors must not be negative"},
		{"retries-negative", []string{"-collect", "1s", "-retries", "-2"}, "-retries must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Port 1 refuses connections, so a command that got as far
			// as dialling would reach no daemon.
			stdout, stderr, code := run(t, append(tc.args, "-addr", "127.0.0.1:1")...)
			if code != 2 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic") {
				t.Fatalf("exit %d, want 2 with %q\nstderr: %s", code, tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("started collecting before rejecting the flag:\n%s", stdout)
			}
		})
	}
}

// A daemon that cannot be reached is a run-time failure: exit 1, with the
// error's "rs2hpm: " prefix printed once.
func TestDialFailureExits1(t *testing.T) {
	stdout, stderr, code := run(t, "-addr", "127.0.0.1:1")
	if code != 1 || !strings.HasPrefix(stderr, "rs2hpm: dial 127.0.0.1:1") || strings.Contains(stderr, "rs2hpm: rs2hpm:") {
		t.Fatalf("exit %d, want 1 with one \"rs2hpm: dial\" prefix\nstderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout: %s", stdout)
	}
}
