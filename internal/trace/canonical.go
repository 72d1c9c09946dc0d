package trace

// The database's one-pass reader. Write has exactly one way to encode a
// Result: encoding/json's output for the Envelope, which puts keys in
// struct order, no whitespace, a JSON integer for every integer field,
// null for a nil slice and [ for a non-nil one. parseCanonical walks
// those bytes once with a small cursor, parsing Days, Records, NodeIDs
// and every per-node Delta in place; only the small Config and Coverage
// values go through encoding/json, decoded where they sit. encoding/json
// itself spends most of a large database on what that form never needs:
// a validity scan ahead of every value, reflection per field and
// case-folded key matching.
//
// The cursor accepts nothing outside the canonical form, and on the
// first byte it does not expect it gives up. Read then decodes the same
// bytes with decodeReference, which is also the oracle: for every input
// parseCanonical accepts, decodeReference accepts it too and returns a
// reflect.DeepEqual Result (FuzzDatabaseDecode holds the two to that).
// That holds because each primitive takes only input encoding/json
// decodes the same way: exact keys, so no folding or duplicates;
// integers within their field, parsed as strconv does; floats in the
// JSON grammar, parsed by the same strconv.ParseFloat call; escape-free
// ASCII strings, which need no unquoting; and null kept apart from [].

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/hpm"
	"repro/internal/pbs"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// decode turns a whole database file's bytes into its Result: in one pass
// when they are in Write's canonical form, through decodeReference when
// they are not.
func decode(data []byte) (workload.Result, error) {
	if res, ok := parseCanonical(data); ok {
		return res, nil
	}
	return decodeReference(data)
}

// decodeReference is encoding/json's reading of a database: the only
// path for files not in the canonical form (hand-edited ones), and the
// oracle parseCanonical is tested against. Nothing but whitespace may
// follow the envelope.
func decodeReference(data []byte) (workload.Result, error) {
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&env); err != nil {
		return workload.Result{}, fmt.Errorf("trace: decode: %w", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], jsonSpace)) != 0 {
		return workload.Result{}, errors.New("trace: decode: trailing data after envelope")
	}
	if env.Version != FormatVersion {
		return workload.Result{}, fmt.Errorf("trace: version %d, want %d", env.Version, FormatVersion)
	}
	return env.Result, nil
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"

// parseCanonical decodes data if it is one canonical envelope followed by
// nothing but whitespace, and reports whether it was.
func parseCanonical(data []byte) (workload.Result, bool) {
	c := &cursor{b: data}
	var res workload.Result
	c.expect(`{"version":`)
	if c.int() != FormatVersion {
		c.fail()
	}
	c.expect(`,"result":{"Config":`)
	c.decodeJSON(&res.Config)
	c.expect(`,"Days":`)
	res.Days = list(c, new([]workload.Day), (*cursor).day)
	c.expect(`,"Records":`)
	res.Records = list(c, new([]pbs.Record), (*cursor).record)
	c.expect(`,"MaxGflops15min":`)
	res.MaxGflops15min = c.float()
	c.expect(`,"DroppedRecords":`)
	res.DroppedRecords = c.int()
	if c.accept(`,"Coverage":`) {
		c.decodeJSON(&res.Coverage)
	}
	c.expect("}}")
	if c.bad || len(bytes.TrimLeft(c.b[c.pos:], jsonSpace)) != 0 {
		return workload.Result{}, false
	}
	return res, true
}

// cursor walks a canonical database. Its first failure is sticky: from
// then on every read returns a zero value without moving, and bad tells
// the caller to discard what was parsed.
type cursor struct {
	b   []byte
	pos int
	bad bool

	// Scratch for each record's NodeIDs and PerNode lists.
	ids    []int
	deltas []hpm.Delta
}

func (c *cursor) fail() { c.bad = true }

// accept steps past s if the input continues with it.
func (c *cursor) accept(s string) bool {
	if c.bad || len(c.b)-c.pos < len(s) || string(c.b[c.pos:c.pos+len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

// expect steps past s, which the input must continue with.
func (c *cursor) expect(s string) {
	if !c.accept(s) {
		c.fail()
	}
}

// decodeJSON decodes the value at the cursor into v with encoding/json
// and steps past it.
func (c *cursor) decodeJSON(v any) {
	if c.bad {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(c.b[c.pos:]))
	if err := dec.Decode(v); err != nil {
		c.fail()
		return
	}
	c.pos += int(dec.InputOffset())
}

// list reads null as a nil slice and a JSON array as a non-nil one,
// each element parsed in place by elem. The elements are gathered in
// scratch, which is reused across calls, and copied out at their exact
// count, so no slice is sized from what the input claims.
func list[T any](c *cursor, scratch *[]T, elem func(*cursor, *T)) []T {
	if c.accept("null") {
		return nil
	}
	c.expect("[")
	s := (*scratch)[:0]
	for !c.bad && !c.accept("]") {
		if len(s) > 0 {
			c.expect(",")
		}
		var zero T
		s = append(s, zero)
		elem(c, &s[len(s)-1])
	}
	*scratch = s
	if c.bad {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// day parses one workload.Day.
func (c *cursor) day(d *workload.Day) {
	c.expect(`{"Index":`)
	d.Index = c.int()
	c.expect(`,"Delta":`)
	c.delta(&d.Delta)
	c.expect(`,"BusyNodeSeconds":`)
	d.BusyNodeSeconds = c.float()
	c.expect("}")
}

// record parses one pbs.Record.
func (c *cursor) record(r *pbs.Record) {
	c.expect(`{"JobID":`)
	r.JobID = c.int()
	c.expect(`,"User":`)
	r.User = c.str()
	c.expect(`,"Class":`)
	r.Class = c.str()
	c.expect(`,"NodesUsed":`)
	r.NodesUsed = c.int()
	c.expect(`,"NodeIDs":`)
	r.NodeIDs = list(c, &c.ids, func(c *cursor, id *int) { *id = c.int() })
	c.expect(`,"SubmitAt":`)
	r.SubmitAt = simclock.Time(c.float())
	c.expect(`,"StartAt":`)
	r.StartAt = simclock.Time(c.float())
	c.expect(`,"EndAt":`)
	r.EndAt = simclock.Time(c.float())
	c.expect(`,"WallSeconds":`)
	r.WallSeconds = c.float()
	c.expect(`,"MemoryPerNodeBytes":`)
	r.MemoryPerNodeBytes = c.uint()
	c.expect(`,"Preemptions":`)
	r.Preemptions = c.int()
	c.expect(`,"PerNode":`)
	r.PerNode = list(c, &c.deltas, (*cursor).delta)
	c.expect("}")
}

// delta parses {"Counts":[[…],[…]]} with every counter present.
func (c *cursor) delta(d *hpm.Delta) {
	c.expect(`{"Counts":[[`)
	for m := range d.Counts {
		if m > 0 {
			c.expect(",[")
		}
		c.row(&d.Counts[m])
	}
	c.expect("]}")
}

// row parses one mode's counters and the ] after them. The rows are the
// bulk of a database, so it keeps the cursor in locals.
func (c *cursor) row(row *[hpm.NumEvents]uint64) {
	if c.bad {
		return
	}
	b, i := c.b, c.pos
	for e := range row {
		v, next, ok := parseUint(b, i)
		sep := byte(',')
		if e == len(row)-1 {
			sep = ']'
		}
		if !ok || next >= len(b) || b[next] != sep {
			c.fail()
			return
		}
		row[e] = v
		i = next + 1
	}
	c.pos = i
}

// str reads a string of escape-free ASCII, which is all Write emits for
// a Record's user and class names; anything else (an escape, a control
// byte, UTF-8) is left to encoding/json.
func (c *cursor) str() string {
	c.expect(`"`)
	if c.bad {
		return ""
	}
	b, start := c.b, c.pos
	for i := start; i < len(b); i++ {
		switch ch := b[i]; {
		case ch == '"':
			c.pos = i + 1
			return string(b[start:i])
		case ch < 0x20 || ch >= 0x80 || ch == '\\':
			c.fail()
			return ""
		}
	}
	c.fail()
	return ""
}

// uint reads a JSON integer that fits a uint64.
func (c *cursor) uint() uint64 {
	if c.bad {
		return 0
	}
	v, next, ok := parseUint(c.b, c.pos)
	if !ok {
		c.fail()
		return 0
	}
	c.pos = next
	return v
}

// int reads a JSON integer that fits an int, as strconv.ParseInt would
// ("-0" included).
func (c *cursor) int() int {
	neg := c.accept("-")
	u := c.uint()
	switch {
	case !neg && u > math.MaxInt, neg && u > -math.MinInt:
		c.fail()
		return 0
	case neg:
		return int(-u) // two's complement: -u wraps to the negative int
	}
	return int(u)
}

// float reads a number in the JSON grammar and converts it with the
// strconv.ParseFloat call encoding/json makes; a value out of float64's
// range is left to encoding/json, which rejects it.
func (c *cursor) float() float64 {
	if c.bad {
		return 0
	}
	end, ok := numberEnd(c.b, c.pos)
	if !ok {
		c.fail()
		return 0
	}
	f, err := strconv.ParseFloat(string(c.b[c.pos:end]), 64)
	if err != nil {
		c.fail()
		return 0
	}
	c.pos = end
	return f
}

// numberEnd returns the index just past the JSON number at b[i], and
// whether there is one: strconv.ParseFloat takes forms JSON does not
// ("+1", ".5", "1.", "Inf", hex), so the grammar is checked here.
func numberEnd(b []byte, i int) (int, bool) {
	ok := true
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] > '0' && b[i] <= '9':
		i, _ = digits(b, i)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	return i, ok
}

// digits returns the index just past the run of ASCII digits at b[i],
// and whether the run is non-empty.
func digits(b []byte, i int) (int, bool) {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i, i > start
}

// parseUint parses the JSON integer at b[i]: no sign, no leading zero,
// within uint64. It returns the value and the index just past it; the
// caller rejects a fraction or exponent by checking what follows.
func parseUint(b []byte, i int) (v uint64, next int, ok bool) {
	if i >= len(b) || b[i]-'0' > 9 {
		return 0, i, false
	}
	if b[i] == '0' {
		return 0, i + 1, true
	}
	const cutoff = math.MaxUint64 / 10
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if v >= cutoff && (v > cutoff || d > math.MaxUint64%10) {
			return 0, i, false
		}
		v = v*10 + uint64(d)
	}
	return v, i, true
}
