package workload

import (
	"fmt"
	"testing"

	"repro/internal/hpm"
	"repro/internal/rs2hpm"
)

// TestLiveMonitoringDuringCampaign runs the RS2HPM daemon over the
// campaign's nodes while the campaign executes, sampling over TCP from a
// concurrent collector — the deployment topology of the paper (cron
// sampling a live machine). Counter reads must be race-free and
// monotonically non-decreasing.
func TestLiveMonitoringDuringCampaign(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.Days = 3
	camp := NewCampaign(cfg, DefaultMix(std(t)))

	daemon := rs2hpm.NewDaemon()
	for _, nd := range camp.nodes[:8] {
		daemon.AddSource(nd)
	}
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		client, err := rs2hpm.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer client.Close()
		last := map[int]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := 0; id < 8; id++ {
				c, err := client.Counters(id)
				if err != nil {
					errs <- err
					return
				}
				cyc := c.Get(hpm.User, hpm.EvCycles) + c.Get(hpm.System, hpm.EvCycles)
				if cyc < last[id] {
					errs <- fmt.Errorf("node %d cycles went backwards: %d < %d", id, cyc, last[id])
					return
				}
				last[id] = cyc
			}
		}
	}()

	res := camp.Run()
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 3 {
		t.Fatalf("days = %d", len(res.Days))
	}
}
