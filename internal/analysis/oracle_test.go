package analysis

// The microsim oracle. Everything the analysis path micro-simulates is
// pinned here bit for bit, so a change to the instruction streams, the
// paging model or the CPU model that alters any simulated statistic fails
// with the name of the kernel or row it altered:
//
//   - every registry kernel's fresh profile.MeasureRunKernel result
//     (RunStats, the full counter Delta, the bits of Seconds and the
//     hidden divides) at one seed and budget. paging runs on a 32 MB node,
//     the what-if's; bt runs again on a 128 MB node, Table 4's BT49 node;
//   - the Table 4 sequential and BT49 rows, the I/O-wait what-if rows and
//     the NPB rows, measured on a fresh profile store so nothing is
//     answered from an earlier measurement.
//
// Each value is hashed with fnv-64a over its %#v rendering, which prints
// every float in the shortest form that round-trips exactly.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/power2"
	"repro/internal/profile"
)

const (
	oracleSeed   = 9301
	oracleInstrs = 400_000
)

// oracleKernelHashes pins each kernel measurement; "bt@128MB" is the BT
// kernel on a node with the SP2's 128 MB of paged memory.
var oracleKernelHashes = map[string]uint64{
	"bt":         0xb8dc6897b73e520,
	"bt@128MB":   0xc98baad0c008e717,
	"cfd":        0xcac3ca30fb677512,
	"cg":         0xd758b806bf15fd0c,
	"comm":       0x40c5febd528db7e2,
	"ft":         0x877fceb45a58f5b0,
	"lu":         0xab02e75a884c4a80,
	"matmul":     0x46def900db1c3410,
	"mg":         0x6302fd372ffc6682,
	"paging":     0x76526804466d101,
	"sequential": 0x8092806d4e1b93a6,
	"sp":         0x1cbe6e87f9a16876,
}

// oracleRowHashes pins the analysis rows built on the microsim.
var oracleRowHashes = map[string]uint64{
	"table4.sequential": 0x274b99631314c6fa,
	"table4.bt49":       0xdbf8c98798258024,
	"whatif":            0x166f9ef7e3cbf29c,
	"npb":               0xafe079831da137c2,
}

func oracleHash(v any) (uint64, string) {
	s := fmt.Sprintf("%#v", v)
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64(), s
}

func checkOracle(t *testing.T, name string, want map[string]uint64, v any) {
	t.Helper()
	got, s := oracleHash(v)
	if w, ok := want[name]; !ok || got != w {
		t.Errorf("%s: hash %#x, want %#x\n%s", name, got, w, s)
	}
}

func TestMicrosimOracle(t *testing.T) {
	type pinned struct {
		Stats       power2.RunStats
		Counts      any
		SecondsBits uint64
		TrueDivides [2]uint64
	}
	measure := func(name string, k kernels.Kernel, cfg power2.Config) {
		m := profile.MeasureRunKernel(k, cfg, oracleInstrs)
		checkOracle(t, name, oracleKernelHashes, pinned{
			Stats:       m.Stats,
			Counts:      m.Delta.Counts,
			SecondsBits: math.Float64bits(m.Seconds),
			TrueDivides: m.TrueDivides,
		})
	}
	ks := kernels.All()
	if len(ks)+1 != len(oracleKernelHashes) {
		t.Fatalf("%d registry kernels, oracle pins %d", len(ks), len(oracleKernelHashes)-1)
	}
	for _, k := range ks {
		cfg := power2.Config{Seed: oracleSeed}
		if k.Name == "paging" {
			cfg.MemoryBytes = 32 << 20
		}
		measure(k.Name, k, cfg)
	}
	bt, _ := kernels.ByName("bt")
	measure("bt@128MB", bt, power2.Config{Seed: oracleSeed, MemoryBytes: 128 << 20})

	saved := profile.DefaultStore
	profile.DefaultStore = profile.NewStore()
	defer func() { profile.DefaultStore = saved }()

	checkOracle(t, "table4.sequential", oracleRowHashes, MeasureSequentialRow(oracleSeed, 200_000))
	bt49 := DefaultBT49()
	bt49.Seed = oracleSeed
	checkOracle(t, "table4.bt49", oracleRowHashes, MeasureBT49Row(bt49))
	checkOracle(t, "whatif", oracleRowHashes, MeasureIOWaitWhatIf(oracleSeed))
	checkOracle(t, "npb", oracleRowHashes, MeasureNPBSuite(oracleSeed, 100_000))
}
