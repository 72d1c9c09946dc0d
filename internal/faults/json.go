package faults

// JSON codec for Plan. A Plan's schedule lives in unexported flattened
// arrays (the hot collection path indexes them per tick), so the default
// encoding would drop everything but the geometry. Campaign traces
// (internal/replay) persist resolved plans so a recorded campaign can be
// re-simulated without re-deriving its faults — the codec therefore
// round-trips *exactly*: for any plan NewPlan can produce,
// Unmarshal(Marshal(p)) is reflect.DeepEqual to p, nil-ness of every
// slice included. The decoder validates the geometry invariants the
// accessors rely on (per-node arrays all present or all absent, per-tick
// tables exactly one bit per node-tick, reset kinds in range), so a
// decoded plan can never index out of bounds — corrupt trace bytes fail
// the decode, they do not panic the replay.

import (
	"encoding/json"
	"fmt"
)

// planWire is Plan's on-the-wire form. No field carries omitempty: nil
// encodes as null and an empty slice as [], so nil-ness survives the
// round trip and DeepEqual holds bit-for-bit.
type planWire struct {
	Day   int `json:"day"`
	Nodes int `json:"nodes"`
	Ticks int `json:"ticks"`
	// Drop/Dup are the per-node-tick Bernoulli outcomes, bit-packed
	// (pack) and so base64 on the wire; null when the corresponding rate
	// was zero.
	Drop []byte `json:"drop"`
	Dup  []byte `json:"dup"`
	// Per-node schedule: unreachable window [DownFrom, DownTo), reset
	// tick and kind. -1 marks no event, mirroring the in-memory form.
	DownFrom  []int `json:"down_from"`
	DownTo    []int `json:"down_to"`
	ResetTick []int `json:"reset_tick"`
	// ResetKind is []int, not []uint8, which would encode as base64: a
	// row has one entry per node, so it stays readable for little cost.
	ResetKind []int `json:"reset_kind"`
}

// pack bit-packs a per-node-tick table: bit i of the result, least
// significant first, is cells[i], so a table of n cells is ⌈n/8⌉ bytes
// with no bit set past the last cell. nil stays nil.
func pack(cells []bool) []byte {
	if cells == nil {
		return nil
	}
	b := make([]byte, (len(cells)+7)/8)
	for i, c := range cells {
		if c {
			b[i>>3] |= 1 << (i & 7)
		}
	}
	return b
}

// unpack is pack's inverse for a table the geometry says holds cells
// cells. Its length is checked before anything is sized from cells, so
// a decoded table never holds more than 8 cells per input byte.
func unpack(name string, b []byte, cells int) ([]bool, error) {
	if b == nil {
		return nil, nil
	}
	if want := (cells + 7) / 8; len(b) != want {
		return nil, fmt.Errorf("faults: plan %s table has %d bytes, %d cells need %d", name, len(b), cells, want)
	}
	if r := cells % 8; r != 0 && b[len(b)-1]>>r != 0 {
		return nil, fmt.Errorf("faults: plan %s table sets a bit past its %d cells", name, cells)
	}
	out := make([]bool, cells)
	for i := range out {
		out[i] = b[i>>3]>>(i&7)&1 != 0
	}
	return out, nil
}

// MarshalJSON encodes the plan in its wire form.
func (p Plan) MarshalJSON() ([]byte, error) {
	w := planWire{
		Day:       p.Day,
		Nodes:     p.Nodes,
		Ticks:     p.Ticks,
		Drop:      pack(p.drop),
		Dup:       pack(p.dup),
		DownFrom:  p.downFrom,
		DownTo:    p.downTo,
		ResetTick: p.resetTick,
	}
	if p.resetKind != nil {
		w.ResetKind = make([]int, len(p.resetKind))
		for i, k := range p.resetKind {
			w.ResetKind[i] = int(k)
		}
	}
	return json.Marshal(w)
}

// maxPlanDim bounds the decoded geometry: a day has at most 86400 ticks
// and no machine this simulator models approaches a million nodes.
// Anything larger is a corrupt or adversarial trace, rejected before the
// Nodes*Ticks product can overflow or drive a giant allocation.
const maxPlanDim = 1 << 20

// UnmarshalJSON decodes and validates the wire form. Every invariant the
// accessors assume is checked here, so arbitrary bytes either decode to
// a structurally sound plan or fail with an error — never a panic later.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var w planWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Nodes > maxPlanDim || w.Ticks > maxPlanDim {
		return fmt.Errorf("faults: plan geometry %dx%d exceeds %d", w.Nodes, w.Ticks, maxPlanDim)
	}
	// NewPlan passes degenerate geometry (zero or negative dims) through
	// with every table nil; mirror that here — no cells, no per-node rows.
	cells := 0
	if w.Nodes > 0 && w.Ticks > 0 {
		cells = w.Nodes * w.Ticks
	}
	drop, err := unpack("drop", w.Drop, cells)
	if err != nil {
		return err
	}
	dup, err := unpack("dup", w.Dup, cells)
	if err != nil {
		return err
	}
	// The four per-node arrays are allocated together by NewPlan; the
	// accessors index them together, so a partial set cannot be sound.
	perNode := []([]int){w.DownFrom, w.DownTo, w.ResetTick, w.ResetKind}
	names := []string{"down_from", "down_to", "reset_tick", "reset_kind"}
	for i, s := range perNode {
		if (s == nil) != (w.DownFrom == nil) {
			return fmt.Errorf("faults: plan %s present/absent disagrees with down_from", names[i])
		}
		if s != nil && (w.Nodes < 0 || len(s) != w.Nodes) {
			return fmt.Errorf("faults: plan %s has %d entries, geometry says %d nodes", names[i], len(s), w.Nodes)
		}
	}
	p.Day, p.Nodes, p.Ticks = w.Day, w.Nodes, w.Ticks
	p.drop, p.dup = drop, dup
	p.downFrom, p.downTo, p.resetTick = w.DownFrom, w.DownTo, w.ResetTick
	p.resetKind = nil
	if w.ResetKind != nil {
		p.resetKind = make([]ResetKind, len(w.ResetKind))
		for i, k := range w.ResetKind {
			if k < int(NoReset) || k > int(RestartReset) {
				return fmt.Errorf("faults: plan reset kind %d for node %d out of range", k, i)
			}
			p.resetKind[i] = ResetKind(k)
		}
	}
	return nil
}
