package main

// The daemon CLI against the built binaries: flag values it cannot run
// with exit 2 before it listens, and a collector sweeping two daemons,
// one of them on wire v1, keeps collecting while one daemon is
// interrupted. The interrupted daemon must exit promptly although the
// collector keeps a connection open to it.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binaries builds rs2hpmd and rs2hpm once per test run and returns their
// paths.
func binaries(t *testing.T) (daemon, collector string) {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "rs2hpmd-bin-*")
		if buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "repro/cmd/rs2hpmd", "repro/cmd/rs2hpm").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building the commands: %v", buildErr)
	}
	return filepath.Join(binDir, "rs2hpmd"), filepath.Join(binDir, "rs2hpm")
}

func TestFlagValidationExits2(t *testing.T) {
	daemon, _ := binaries(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"tick-zero", []string{"-tick", "0"}, "-tick must be positive"},
		{"tick-negative", []string{"-tick", "-1s"}, "-tick must be positive"},
		{"nodes-negative", []string{"-nodes", "-1"}, "-nodes must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(daemon, append(tc.args, "-addr", "127.0.0.1:0")...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "panic") {
				t.Fatalf("err %v, want exit 2 with %q\nstderr: %s", err, tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("started serving before rejecting the flag:\n%s", stdout.String())
			}
		})
	}
}

// process is a started command whose exit is awaited by one goroutine.
type process struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's result, set before done is closed
}

// start runs cmd and kills it when the test ends.
func start(t *testing.T, cmd *exec.Cmd) *process {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &process{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	return p
}

// startDaemon runs rs2hpmd on a free loopback port and returns it with
// the address it printed.
func startDaemon(t *testing.T, bin string, args ...string) (*process, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-nodes", "2", "-chunk", "20000", "-tick", "100ms"}, args...)...)
	cmd.Stdout = w
	p := start(t, cmd)
	w.Close()
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		t.Fatalf("reading rs2hpmd's address: %v", err)
	}
	// "rs2hpmd: serving 2 nodes running "cfd" on <addr> (protocol v2)"
	_, rest, _ := strings.Cut(line, " on ")
	addr, _, ok := strings.Cut(rest, " ")
	if !ok {
		t.Fatalf("no address in %q", line)
	}
	return p, addr
}

// TestCollectAcrossDaemonInterrupt: rs2hpm collects from a v2 and a v1
// daemon, and the v2 daemon gets SIGINT half a second in. It must exit
// within a second, and the collector must finish its run with exit 0 and
// a cross-footed ledger that shows the lost daemon's sweep failures.
func TestCollectAcrossDaemonInterrupt(t *testing.T) {
	daemonBin, collectorBin := binaries(t)
	v2, addr2 := startDaemon(t, daemonBin)
	_, addr1 := startDaemon(t, daemonBin, "-protocol", "1")

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(collectorBin, "-addrs", addr2+","+addr1, "-collect", "3s", "-every", "100ms")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	collector := start(t, cmd)

	time.Sleep(500 * time.Millisecond)
	if err := v2.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-v2.done:
		if v2.err != nil {
			t.Errorf("interrupted daemon: %v", v2.err)
		}
	case <-time.After(time.Second):
		t.Fatal("rs2hpmd still running 1 s after SIGINT")
	}

	select {
	case <-collector.done:
	case <-time.After(10 * time.Second):
		t.Fatal("rs2hpm -collect 3s still running after 10 s")
	}
	if collector.err != nil {
		t.Fatalf("rs2hpm: %v\nstdout:\n%s\nstderr:\n%s", collector.err, stdout.String(), stderr.String())
	}
	var sweeps, daemonSweeps, failures, offered, captured, gapped, dropped, rejected int
	for _, line := range strings.Split(stdout.String(), "\n") {
		fmt.Sscanf(line, "rs2hpm: %d sweeps, %d daemon-sweeps, %d sweep failures", &sweeps, &daemonSweeps, &failures)
		fmt.Sscanf(line, "rs2hpm: offered %d reads: captured %d, gapped %d, dropped %d, rejected %d",
			&offered, &captured, &gapped, &dropped, &rejected)
	}
	if failures == 0 || captured == 0 {
		t.Fatalf("ledger shows %d sweep failures and %d captured reads, want both above 0\nstdout:\n%s",
			failures, captured, stdout.String())
	}
	if captured+gapped+dropped+rejected != offered {
		t.Fatalf("ledger does not cross-foot:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "rs2hpm: sweep at") || strings.Contains(stderr.String(), "rs2hpm: rs2hpm:") {
		t.Fatalf("want each sweep failure on stderr with one \"rs2hpm: \" prefix\nstderr:\n%s", stderr.String())
	}
}
