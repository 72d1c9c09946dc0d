package trace

import (
	"os"
	"sync"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/workload"
)

// statFile and writeRaw keep the test file free of os-level noise.
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func writeRaw(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// standard is the seed-7 kernel profile set, measured once per test binary.
var standard = sync.OnceValue(func() profile.Standard { return profile.MeasureStandard(7) })

// campaign runs a default 144-node, seed-7 campaign of the given length,
// under the fault mix f when it is non-nil.
func campaign(days int, f *faults.Config) workload.Result {
	cfg := workload.DefaultConfig(7)
	cfg.Days = days
	cfg.Faults = f
	return workload.NewCampaign(cfg, workload.DefaultMix(standard())).Run()
}
