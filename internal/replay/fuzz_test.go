package replay

// Fuzz target for the trace decoder (header probe + record framing).
// The decoder fronts files users hand to -replay, so arbitrary bytes
// must classify as trace.ErrVersion or trace.ErrCorrupt — never panic,
// never hang, never allocate proportionally to a lying header — and
// anything it accepts must survive a re-encode/decode cycle identically
// (in-package so the cycle can compare the decoded storage directly).

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func FuzzReplayDecode(f *testing.F) {
	const header = `{"format":"hpm-campaign-trace","version":2,"seed":7,"fingerprint":123,"clusters":1,"days":1,"cluster_days":[1],"faulted":false}`
	const record = `{"cluster":0,"day":0,"plan":{"Day":0,"Util":0.5,"PagingDay":false,"Quality":1,"Jobs":null}}`
	// "AQ==" is the byte 0x01: of the plan's two cells, node 0 tick 0
	// is dropped.
	const faulted = `{"cluster":0,"day":0,"plan":{"Day":0,"Util":0.5,"PagingDay":true,"Quality":1,"Jobs":[]},` +
		`"faults":{"day":0,"nodes":1,"ticks":2,"drop":"AQ==","dup":null,"down_from":[0],"down_to":[1],"reset_tick":[-1],"reset_kind":[0]}}`

	f.Add([]byte(header + "\n" + record + "\n"))
	f.Add([]byte(header + "\n" + faulted + "\n"))
	f.Add([]byte(header + "\n"))                                 // header only: incomplete
	f.Add([]byte(header + "\n" + record + "\n" + record + "\n")) // duplicate
	f.Add([]byte(`{"format":"hpm-campaign-trace","version":99,"novel":true}` + "\n"))
	f.Add([]byte(`{"format":"something-else","version":1}` + "\n"))
	f.Add([]byte(`{"format":"hpm-campaign-trace","version":2,"clusters":1000000,"days":1,"cluster_days":[1]}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trace.ErrVersion) && !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("decode error escaped classification: %v", err)
			}
			return
		}
		// Accepted input: re-encode the decoded trace and decode it
		// again; header and every record must come back identical.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(rp.h); err != nil {
			t.Fatalf("re-encoding accepted header failed: %v", err)
		}
		for _, row := range rp.records {
			for _, rec := range row {
				if err := enc.Encode(rec); err != nil {
					t.Fatalf("re-encoding accepted record failed: %v", err)
				}
			}
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoder's output failed: %v", err)
		}
		if !reflect.DeepEqual(rp.h, again.h) {
			t.Fatalf("header changed across the round trip:\n first: %+v\nsecond: %+v", rp.h, again.h)
		}
		if !reflect.DeepEqual(rp.records, again.records) {
			t.Fatal("records changed across the round trip")
		}
	})
}
