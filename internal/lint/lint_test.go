package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation comments used by the violation
// fixtures: one or more backquoted regexes after "// want".
var wantRe = regexp.MustCompile("// want ((?:`[^`]+`\\s*)+)")

var backquoted = regexp.MustCompile("`([^`]+)`")

type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans a fixture directory for // want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range backquoted.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, q[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", dir)
	}
	return wants
}

// TestAnalyzerGolden checks each analyzer against its violation fixture:
// every // want comment must be matched by a diagnostic on that line, and
// no unexpected diagnostics may appear. The fixtures also contain clean
// code and suppressed violations, so a pass proves both directions.
func TestAnalyzerGolden(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"nondeterminism", []*Analyzer{NondeterminismAnalyzer()}},
		{"counterwidth", []*Analyzer{CounterWidthAnalyzer()}},
		{"guarded", []*Analyzer{GuardedStateAnalyzer()}},
		{"floatcompare", []*Analyzer{FloatCompareAnalyzer()}},
		{"unitsmixing", []*Analyzer{UnitsMixingAnalyzer()}},
		// The worker-pool fixture is checked by two analyzers at once, the
		// way the production engine is: guarded for the pool's shared
		// counters, nondeterminism for wall-clock reads.
		{"enginepool", []*Analyzer{GuardedStateAnalyzer(), NondeterminismAnalyzer()}},
		// The profile-store fixture mirrors the memoized measurement
		// cache: a mutex-guarded map plus hit/miss counters, with the
		// lock-free "fast path" bugs the guarded analyzer must catch.
		{"profilestore", []*Analyzer{GuardedStateAnalyzer()}},
		// The faults fixture mirrors the fault-injection plan builder: a
		// package whose whole contract is seeded reproducibility, reaching
		// for the clocks and streams it must never touch.
		{"faults", []*Analyzer{NondeterminismAnalyzer()}},
		// The telemetry fixture mirrors the hpmtel metrics core: a
		// mutex-guarded registry with a lock-free fast path, plus the
		// per-observation clock and rand reads an observability layer
		// must not take.
		{"telemetry", []*Analyzer{GuardedStateAnalyzer(), NondeterminismAnalyzer()}},
		// The v2 interprocedural fixtures: each plants violations at the
		// end of call chains so a pass proves the reachability engine, not
		// just the per-site classifiers.
		{"puretaint", []*Analyzer{PureTaintAnalyzer()}},
		{"hotalloc", []*Analyzer{HotAllocAnalyzer()}},
		{"lockorder", []*Analyzer{LockOrderAnalyzer()}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			pkgs, err := Load(".", dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := RunAnalyzers(pkgs, tc.analyzers)
			wants := parseWants(t, dir)
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == filepath.Base(d.Pos.Filename) &&
						w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestBadIgnoreReported checks that a suppression without a reason is
// itself reported and suppresses nothing.
func TestBadIgnoreReported(t *testing.T) {
	pkgs, err := Load(".", filepath.Join("testdata", "src", "badignore"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, Analyzers())
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	got := strings.Join(rules, ",")
	if got != "badignore,floatcompare" {
		t.Fatalf("want [badignore floatcompare], got %v", diags)
	}
}

// TestFixtureTreeIsDirty checks the acceptance criterion that hpmlint
// exits non-zero on the violation fixtures: running the full suite over
// the testdata tree must report findings for every analyzer.
func TestFixtureTreeIsDirty(t *testing.T) {
	diags, err := Run(".", "testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	for _, a := range Analyzers() {
		if byRule[a.Name] == 0 {
			t.Errorf("no %s findings in the fixture tree", a.Name)
		}
	}
	if byRule["badignore"] == 0 {
		t.Errorf("no badignore findings in the fixture tree")
	}
}

// TestFixtureCounts pins the exact per-fixture, per-rule finding counts
// committed in testdata/fixture_counts.json — the same golden file the
// `make lint-fixtures` CI gate feeds to `hpmlint -expect`. An analyzer
// that stops building never gets here (the test suite fails to compile);
// an analyzer that is silently neutered shows up as a count of zero
// against a non-zero expectation.
func TestFixtureCounts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fixture_counts.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]int
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fixture_counts.json: %v", err)
	}
	diags, err := Run(".", "testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]map[string]int)
	for _, d := range diags {
		fixture := filepath.Base(filepath.Dir(d.Pos.Filename))
		if got[fixture] == nil {
			got[fixture] = make(map[string]int)
		}
		got[fixture][d.Rule]++
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fixture counts diverge from testdata/fixture_counts.json\nwant: %v\ngot:  %v", want, got)
	}
	// Every fixture directory must appear in the golden file: a fixture
	// producing nothing at all is a neutered fixture, not a clean one.
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			if _, ok := want[e.Name()]; !ok {
				t.Errorf("fixture %s has no entry in fixture_counts.json", e.Name())
			}
		}
	}
}

// TestRepoIsClean is the zero-findings gate: the full suite over the real
// tree must report nothing unsuppressed. This is the test-suite twin of
// the `hpmlint ./...` CI step.
func TestRepoIsClean(t *testing.T) {
	root, _, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

// TestEnginePackagesClean pins the staged engine's concurrency contract
// from the linter's side: the workload engine and the parallel profile
// measurement must be clean under exactly the two analyzers that police
// parallel simulator code — guarded, so every shared counter carries an
// honoured "guarded by mu" annotation, and nondeterminism, so no engine
// path can read the wall clock or the global math/rand stream.
// TestRepoIsClean subsumes this, but this test keeps failing loudly even
// if someone adds a suppression there.
func TestEnginePackagesClean(t *testing.T) {
	root, _, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/workload", "./internal/profile")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{GuardedStateAnalyzer(), NondeterminismAnalyzer()})
	for _, d := range diags {
		t.Errorf("engine finding: %s", d)
	}
}

// TestTelemetryPackageClean pins hpmtel's observation contract from the
// linter's side: the metrics core shares atomic state across every engine
// worker (guarded), and its only clock read is span.go's suppressed
// monotonic origin (nondeterminism) — any new wall-clock or math/rand
// reach must either go through that bottleneck or fail here. As with the
// engine gate, TestRepoIsClean subsumes this, but this keeps failing
// loudly even if a suppression is added there.
func TestTelemetryPackageClean(t *testing.T) {
	root, _, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{GuardedStateAnalyzer(), NondeterminismAnalyzer()})
	for _, d := range diags {
		t.Errorf("telemetry finding: %s", d)
	}
}

// TestSuppressionPlacement pins the two sanctioned placements: same line
// and the line directly above. Two lines above must NOT suppress.
func TestSuppressionPlacement(t *testing.T) {
	d := Diagnostic{Rule: "floatcompare"}
	d.Pos.Filename = "f.go"
	d.Pos.Line = 10
	mk := func(line int, rule string) suppression {
		return suppression{file: "f.go", line: line, rules: map[string]bool{rule: true}}
	}
	cases := []struct {
		sup  suppression
		want bool
	}{
		{mk(10, "floatcompare"), true},
		{mk(9, "floatcompare"), true},
		{mk(8, "floatcompare"), false},
		{mk(11, "floatcompare"), false},
		{mk(10, "guarded"), false},
		{mk(10, "all"), true},
	}
	for i, tc := range cases {
		if got := suppressed(d, []suppression{tc.sup}); got != tc.want {
			t.Errorf("case %d: suppressed = %v, want %v", i, got, tc.want)
		}
	}
}

// TestLoadErrors pins loader failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "no/such/dir"); err == nil {
		t.Error("Load of a missing directory should fail")
	}
	if _, err := Load(".", "../../../outside"); err == nil {
		t.Error("Load escaping the module root should fail")
	}
}

// TestDiagnosticString pins the report format tools and editors parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "guarded", Message: "m"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "a/b.go:3:7: guarded: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); got != d.String() {
		t.Errorf("Sprint mismatch: %q", got)
	}
}
