package lint

// Baselines make the lint gate a ratchet. The repository commits
// .hpmlint-baseline.json — the accepted set of findings, currently empty —
// and `hpmlint -baseline` fails only on findings *not* in that set, while
// reporting baseline entries that no longer fire so the file can shrink.
// Two properties matter for a gate that runs in CI:
//
//   - stability: findings are keyed by (rule, file, message), not line
//     numbers, so an unrelated edit shifting code does not invalidate the
//     baseline;
//   - multiset semantics: three identical findings against a baseline of
//     two is one new finding, not zero.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// baselineVersion is bumped when the Finding schema or the matching rule
// changes incompatibly.
const baselineVersion = 1

// Finding is one diagnostic in portable, baseline-stable form. File is
// slash-separated and relative to the module root.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// key is the baseline identity of a finding: everything except position,
// which drifts with unrelated edits.
func (f Finding) key() string {
	return f.Rule + "\x00" + f.File + "\x00" + f.Message
}

// String renders the finding in file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Baseline is the decoded contents of a baseline file.
type Baseline struct {
	Version  int       `json:"version"`
	Findings []Finding `json:"findings"`
}

// NewFinding converts a diagnostic to portable form, relativizing its file
// path against the module root.
func NewFinding(d Diagnostic, root string) Finding {
	file := d.Pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return Finding{Rule: d.Rule, File: file, Line: d.Pos.Line, Col: d.Pos.Column, Message: d.Message}
}

// Findings converts a diagnostic slice wholesale.
func Findings(diags []Diagnostic, root string) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, NewFinding(d, root))
	}
	return out
}

// sortFindings orders findings deterministically: file, line, col, rule,
// message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// EncodeBaseline renders a canonical baseline file: sorted findings,
// indented JSON, trailing newline. Encoding the decode of an encode is
// byte-identical, which the fuzz harness checks.
func EncodeBaseline(fs []Finding) ([]byte, error) {
	sorted := append([]Finding(nil), fs...)
	sortFindings(sorted)
	if sorted == nil {
		sorted = []Finding{}
	}
	b := Baseline{Version: baselineVersion, Findings: sorted}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeBaseline parses a baseline file, rejecting unknown versions and
// malformed entries.
func DecodeBaseline(data []byte) (*Baseline, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if b.Version != baselineVersion {
		return nil, fmt.Errorf("baseline: unsupported version %d (want %d)", b.Version, baselineVersion)
	}
	for i, f := range b.Findings {
		if f.Rule == "" || f.File == "" {
			return nil, fmt.Errorf("baseline: finding %d missing rule or file", i)
		}
		if strings.ContainsRune(f.File, '\\') || filepath.IsAbs(f.File) {
			return nil, fmt.Errorf("baseline: finding %d: file must be a slash-separated relative path", i)
		}
	}
	return &b, nil
}

// DiffBaseline compares current findings against the baseline with multiset
// semantics. new are findings not covered by the baseline (these fail the
// gate); stale are baseline entries that no longer fire (these are reported
// so the baseline can be re-written smaller).
func DiffBaseline(current []Finding, base *Baseline) (newFindings, stale []Finding) {
	counts := make(map[string]int, len(base.Findings))
	byKey := make(map[string]Finding, len(base.Findings))
	for _, f := range base.Findings {
		counts[f.key()]++
		byKey[f.key()] = f
	}
	cur := append([]Finding(nil), current...)
	sortFindings(cur)
	for _, f := range cur {
		if counts[f.key()] > 0 {
			counts[f.key()]--
			continue
		}
		newFindings = append(newFindings, f)
	}
	var staleKeys []string
	for k, c := range counts {
		for i := 0; i < c; i++ {
			staleKeys = append(staleKeys, k)
		}
	}
	sort.Strings(staleKeys)
	for _, k := range staleKeys {
		stale = append(stale, byKey[k])
	}
	return newFindings, stale
}

// ModuleRoot exposes the go.mod discovery used by the loader, so the
// command can relativize findings the same way LoadProgram resolved them.
func ModuleRoot(dir string) (string, error) {
	root, _, err := moduleRoot(dir)
	return root, err
}
