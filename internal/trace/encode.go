package trace

// The database's appending encoder, the write-side twin of
// parseCanonical. It appends exactly the bytes json.NewEncoder(w).Encode
// writes for an Envelope: keys in struct order and no whitespace, every
// integer through strconv, every float in encoding/json's form, null for
// a nil slice and [ for a non-nil one, and the trailing newline. What
// encoding/json treats with more care than an append goes through
// json.Marshal itself: the fault layer's values (Config.Faults and
// Coverage), and every string that is not printable ASCII free of
// "\<>&, so HTML escaping, U+2028 escaping and the replacement of
// invalid UTF-8 stay encoding/json's. A NaN or an infinity fails, as it
// fails there.
//
// The rest of Config is eight numbers, appended like every other field.
// json.Marshal takes its scratch from a sync.Pool, so whether it
// allocates depends on whether a GC has emptied the pool; a Config
// marshalled once per checkpoint segment was enough to keep
// BenchmarkCheckpointAppend's B/op from reading the same twice.
//
// encoding/json stays the oracle: the byte pins in encode_test.go and
// FuzzDatabaseEncode hold the encoder to its output.

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync/atomic"

	"repro/internal/hpm"
	"repro/internal/pbs"
	"repro/internal/workload"
)

// chunkSize is how many bytes Write encodes before it hands them to its
// writer.
const chunkSize = 256 << 10

// chunkSlack is the room a chunk buffer keeps beyond chunkSize. The
// encoder looks for a full chunk after each list element, and an
// element between two looks (a Delta, the head of a Record) fits in it.
const chunkSlack = 4 << 10

// errStopped stops the encoder once its writer has failed; Write
// returns the writer's error instead.
var errStopped = errors.New("writer failed")

// encoder appends a database envelope to b. Its first failure is sticky:
// it stops at the next list element, and b is then not a whole envelope.
type encoder struct {
	b   []byte
	err error
	// out, when set, takes b each time it holds a chunk. When nil, the
	// whole envelope is appended to b.
	out *handoff
}

// handoff writes the encoder's chunks to w on a goroutine of its own, so
// that w (a gzip stream, a file) works on one chunk while the encoder
// fills the next. Two buffers take turns.
type handoff struct {
	full   chan []byte // chunks for w, in order; closed after the last
	free   chan []byte // buffers back from w, emptied; holds both, so run never blocks
	done   chan error  // w's first error, or nil: the goroutine's last act
	failed atomic.Bool // set at w's first error, to stop the encoder
}

// startHandoff starts the goroutine that writes to w.
func startHandoff(w io.Writer) *handoff {
	h := &handoff{full: make(chan []byte), free: make(chan []byte, 2), done: make(chan error, 1)}
	for range cap(h.free) {
		h.free <- make([]byte, 0, chunkSize+chunkSlack)
	}
	go h.run(w)
	return h
}

// run writes each chunk to w. After w's first error it only hands the
// buffers back, so the encoder never blocks on a send.
func (h *handoff) run(w io.Writer) {
	var err error
	for b := range h.full {
		if err == nil {
			if _, err = w.Write(b); err != nil {
				h.failed.Store(true)
			}
		}
		h.free <- b[:0]
	}
	h.done <- err
}

// spill makes room for the next list element. With an out, it hands b
// over once b holds a chunk and goes on in an empty buffer. Without one,
// it doubles b's capacity once less than chunkSlack is left, where
// append would grow a large b by a quarter at a time and allocate five
// times the envelope on the way.
func (e *encoder) spill() {
	switch {
	case e.err != nil:
	case e.out == nil:
		if cap(e.b)-len(e.b) < chunkSlack {
			e.b = append(make([]byte, 0, 2*cap(e.b)+chunkSlack), e.b...)
		}
	case len(e.b) < chunkSize:
	case e.out.failed.Load():
		e.err = errStopped
	default:
		e.out.full <- e.b
		e.b = <-e.out.free
	}
}

// streamEnvelope encodes the envelope for res on the caller's goroutine
// and writes it to w, a chunk at a time, through a handoff. Its error is
// w's first error, else the encoder's. The handoff's goroutine is done
// with w when it returns.
func streamEnvelope(w io.Writer, res *workload.Result) error {
	h := startHandoff(w)
	e := encoder{b: <-h.free, out: h}
	e.envelope(res)
	if e.err == nil {
		h.full <- e.b // the last chunk
	}
	close(h.full)
	if err := <-h.done; err != nil {
		return err
	}
	return e.err
}

// envelope appends the Envelope for res and the newline encoding/json
// ends it with.
func (e *encoder) envelope(res *workload.Result) {
	e.raw(`{"version":`)
	e.int(FormatVersion)
	e.raw(`,"result":{"Config":`)
	e.config(&res.Config)
	e.raw(`,"Days":`)
	appendList(e, res.Days, (*encoder).day)
	e.raw(`,"Records":`)
	appendList(e, res.Records, (*encoder).record)
	e.raw(`,"MaxGflops15min":`)
	e.float(res.MaxGflops15min)
	e.raw(`,"DroppedRecords":`)
	e.int(res.DroppedRecords)
	if res.Coverage != nil {
		e.raw(`,"Coverage":`)
		e.marshal(res.Coverage)
	}
	e.raw("}}\n")
}

// appendList appends s as encoding/json writes a slice: null when s is nil,
// else [, each element appended by elem, and ].
func appendList[T any](e *encoder, s []T, elem func(*encoder, *T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range s {
		if e.err != nil {
			return
		}
		if i > 0 {
			e.raw(",")
		}
		elem(e, &s[i])
		e.spill()
	}
	e.raw("]")
}

// config appends a workload.Config.
func (e *encoder) config(c *workload.Config) {
	e.raw(`{"Days":`)
	e.int(c.Days)
	e.raw(`,"Nodes":`)
	e.int(c.Nodes)
	e.raw(`,"Seed":`)
	e.uint(c.Seed)
	e.raw(`,"SamplePeriodSeconds":`)
	e.float(c.SamplePeriodSeconds)
	e.raw(`,"MeanUtil":`)
	e.float(c.MeanUtil)
	e.raw(`,"UtilSigma":`)
	e.float(c.UtilSigma)
	e.raw(`,"PagingDayProb":`)
	e.float(c.PagingDayProb)
	e.raw(`,"MinRecordWall":`)
	e.float(c.MinRecordWall)
	if c.Faults != nil {
		e.raw(`,"Faults":`)
		e.marshal(c.Faults)
	}
	e.raw("}")
}

// day appends one workload.Day.
func (e *encoder) day(d *workload.Day) {
	e.raw(`{"Index":`)
	e.int(d.Index)
	e.raw(`,"Delta":`)
	e.delta(&d.Delta)
	e.raw(`,"BusyNodeSeconds":`)
	e.float(d.BusyNodeSeconds)
	e.raw("}")
}

// record appends one pbs.Record.
func (e *encoder) record(r *pbs.Record) {
	e.raw(`{"JobID":`)
	e.int(r.JobID)
	e.raw(`,"User":`)
	e.str(r.User)
	e.raw(`,"Class":`)
	e.str(r.Class)
	e.raw(`,"NodesUsed":`)
	e.int(r.NodesUsed)
	e.raw(`,"NodeIDs":`)
	appendList(e, r.NodeIDs, func(e *encoder, id *int) { e.int(*id) })
	e.raw(`,"SubmitAt":`)
	e.float(float64(r.SubmitAt))
	e.raw(`,"StartAt":`)
	e.float(float64(r.StartAt))
	e.raw(`,"EndAt":`)
	e.float(float64(r.EndAt))
	e.raw(`,"WallSeconds":`)
	e.float(r.WallSeconds)
	e.raw(`,"MemoryPerNodeBytes":`)
	e.uint(r.MemoryPerNodeBytes)
	e.raw(`,"Preemptions":`)
	e.int(r.Preemptions)
	e.raw(`,"PerNode":`)
	appendList(e, r.PerNode, (*encoder).delta)
	e.raw("}")
}

// delta appends {"Counts":[[…],[…]]}. The rows are the bulk of a
// database, so it keeps the buffer in a local.
func (e *encoder) delta(d *hpm.Delta) {
	b := append(e.b, `{"Counts":[`...)
	for m := range d.Counts {
		if m > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range &d.Counts[m] {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ']')
	}
	e.b = append(b, "]}"...)
}

// raw appends s as it is.
func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

// int appends a JSON integer.
func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// uint appends a JSON integer.
func (e *encoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// float appends f as encoding/json writes a float64: like %g, with the
// shortest digits that read back to f, but in 'e' form only below 1e-6
// and from 1e21 up, and with the exponent not padded to two digits.
// JSON holds no NaN or infinity, so those fail with encoding/json's
// error.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

// str appends s quoted as encoding/json quotes it: as it is when it is
// printable ASCII with nothing to escape, through json.Marshal otherwise.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.marshal(s)
			return
		}
	}
	e.raw(`"`)
	e.raw(s)
	e.raw(`"`)
}

// marshal appends v as json.Marshal encodes it, which is how encoding/json
// encodes it as a field.
func (e *encoder) marshal(v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.b = append(e.b, b...)
}
