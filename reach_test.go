package repro_test

// Every function declared under internal/ is linked into a binary the
// repository builds (the commands, the examples and perfbench), or is on
// unlinkedAllowed with the reason it exists. Code that only tests reach is
// code no reported number comes from, and this test keeps it from growing
// back. The linker is the ground truth: a call graph built from the source
// misjudges methods reached through reflection or an interface.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed names, as linkName does, each function no binary links
// that stays, with the reason. A function belongs here only when a test of
// code the binaries run needs it; one that only its own test calls is
// deleted with that test.
var unlinkedAllowed = map[string]string{
	// Test support, on purpose.
	"leakcheck.Take":             "tests snapshot goroutines and open files before the code under test runs",
	"leakcheck.Check":            "tests fail on goroutines or files the code under test leaked",
	"leakcheck.read":             "Take's snapshot",
	"leakcheck.steadyGoroutines": "Take's and Check's goroutine count",
	"leakcheck.openFDs":          "Take's and Check's open-file count",
	"leakcheck.leaked":           "Check's comparison",
	"trace.FailWrites":           "the failing-writer tests of trace and replay inject write and sync faults",
	"trace.injectFaults":         "FailWrites' hook into the file writer",
	"trace.(*faultyFile).Write":  "the injected write fault",
	"trace.(*faultyFile).Sync":   "the injected sync fault",

	// The telemetry switch: the golden hash is checked with telemetry off.
	"telemetry.SetEnabled": "the golden, telemetry and root bench tests turn telemetry off and on",

	// A reference implementation.
	"workload.MergeResults": "the oracle the fleet merge is checked against",

	// Drivers and observers that tests of reached code call.
	"cache.(*Cache).Stats":               "cache tests read the reload and castout counts",
	"cache.(*Cache).ResetStats":          "the associativity test counts second-pass hits alone",
	"cache.(*Cache).Contains":            "the cache tests compare contents with the reference cache",
	"tlb.(*TLB).Stats":                   "tlb tests read the hit and miss counts",
	"tlb.(*TLB).ResetStats":              "the capacity test counts second-pass hits alone",
	"tlb.(*TLB).Contains":                "the tlb tests probe LRU victims and compare with the reference",
	"vm.(*Manager).Resident":             "vm tests compare residency with the reference page table",
	"vm.(*Manager).ResidentPages":        "vm tests compare resident counts with the reference page table",
	"faults.(*Plan).Empty":               "faults tests check that a zero-rate plan schedules nothing",
	"faults.(*UnreliableSource).Stats":   "faults and rs2hpm tests count the injected read failures",
	"hpm.(*Monitor).Add":                 "hpm tests write counter slots directly",
	"hpm.Snapshot.Get":                   "tests read one counter of a register snapshot",
	"hpm.NewWithoutDivBug":               "hpm and profile tests run their checks with and without the divide bug",
	"hps.(*Network).Attached":            "hps and nfs tests count the adapters on the switch",
	"isa.NewSliceStream":                 "isa, power2 and profile tests run hand-built instruction sequences",
	"isa.(*SliceStream).Fill":            "the hand-built sequences' Stream method",
	"isa.Count":                          "isa and power2 tests count a stream's instructions",
	"mpi.(*Rank).Compute":                "mpi tests skew ranks' clocks before they communicate",
	"mpi.(*Rank).BytesSent":              "mpi tests check each rank's traffic",
	"mpi.(*Rank).MessagesSent":           "mpi tests check each rank's traffic",
	"node.(*Node).WithAccumulator":       "pbs and workload engine tests write a node's extended counters",
	"pbs.(*Server).RunningCount":         "pbs tests check the scheduler's state",
	"pbs.(*Server).FreeNodes":            "pbs tests check the scheduler's state",
	"pbs.(*Server).BusyNodes":            "pbs tests check the scheduler's state",
	"pbs.(*Server).NodeCount":            "the pbs utilization test normalizes by it",
	"power2.(*CPU).Run":                  "power2 tests run a stream to its end (RunLimited is the binaries' driver)",
	"power2.RunStats.FlopsPerCycle":      "power2 tests check a run's rate",
	"power2.RunStats.Mflops":             "power2 tests check a run's rate",
	"profile.MeasureStandard":            "tests measure the standard profiles at the default width",
	"profile.(*Store).Len":               "store tests count cached measurements",
	"replay.NewRecorder":                 "replay tests record into a buffer (Create is the binaries' path)",
	"rng.(*Source).Uint64n":              "hpm, isa and rng tests draw bounded values",
	"rs2hpm.(*SampleLog).Gaps":           "the soak test checks the gap ledger",
	"rs2hpm/loadtest.(*Harness).SoakFor": "the soak test sweeps for a wall-clock budget",
	"simclock.(*Clock).Run":              "simclock tests run the queue dry",
	"simclock.(*Clock).AdvanceTo":        "pbs tests move the clock without running events",
	"simclock.(*Clock).EventsRun":        "simclock tests count the events run",
	"simclock.(*Clock).Pending":          "simclock tests count the events left queued",

	// What the lint fixtures use: internal/lint/testdata/src/unitsmixing
	// type-checks against the real units package.
	"units.FromSeconds": "the unitsmixing fixture calls it",
}

func TestInternalFunctionsAreLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	linked := linkedFunctions(t)
	declared := declaredFunctions(t)
	names := make([]string, 0, len(declared))
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !linked[name] && unlinkedAllowed[name] == "" {
			t.Errorf("%s: %s is linked into no binary: delete it, or add it to unlinkedAllowed with its reason", declared[name], name)
		}
	}
	for name := range unlinkedAllowed {
		if declared[name] == "" {
			t.Errorf("unlinkedAllowed names %s, which is not declared under internal/", name)
		}
	}
}

// linkedFunctions builds every main package with inlining off in this
// module, so no function is linked only as inlined code, and returns the
// functions under internal/ that some binary links.
func linkedFunctions(t *testing.T) map[string]bool {
	bin := t.TempDir()
	build := func(dir string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=repro/...=-l", "-o", bin + string(filepath.Separator)}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
		}
	}
	build(".", "./cmd/...", "./examples/...")
	build("perfbench", ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	// A text symbol: "  4a5b20 T repro/internal/stats.Mean". Generic
	// instantiations carry type arguments in brackets, closures and
	// go/defer wrappers a numbered suffix, method values "-fm".
	sym := regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] repro/internal/(.*)$`)
	suffix := regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+)+$|-fm$`)
	typeArgs := regexp.MustCompile(`\[.*\]`)
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range bytes.Split(out, []byte("\n")) {
			m := sym.FindSubmatch(line)
			if m == nil {
				continue
			}
			linked[suffix.ReplaceAllString(typeArgs.ReplaceAllString(string(m[1]), ""), "")] = true
		}
	}
	return linked
}

// declaredFunctions returns each function declared in a non-test file
// under internal/, named as the linker names it below "repro/internal/",
// with its file:line.
func declaredFunctions(t *testing.T) map[string]string {
	fset := token.NewFileSet()
	declared := map[string]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			pos := fset.Position(fn.Pos())
			declared[pkg+"."+linkName(fn)] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// linkName names a function as the linker does: F, T.M or (*T).M.
func linkName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}
