package nfs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hpm"
	"repro/internal/hps"
	"repro/internal/node"
)

func mountWithNodes(t *testing.T, n int, cfg Config) (*Mount, []*node.Node, *hps.Network) {
	t.Helper()
	net := hps.New(hps.SP2())
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
		net.Attach(nodes[i])
	}
	return New(net, cfg), nodes, net
}

func TestSP2Layout(t *testing.T) {
	m, _, net := mountWithNodes(t, 1, SP2Config())
	if len(m.Servers()) != 3 {
		t.Fatalf("volumes = %d, want 3", len(m.Servers()))
	}
	for _, s := range m.Servers() {
		if s.capacity != 8<<30 {
			t.Fatalf("capacity = %d, want 8 GB", s.capacity)
		}
	}
	if net.Attached() != 4 { // 1 node + 3 volumes
		t.Fatalf("attached = %d", net.Attached())
	}
}

func TestWriteChargesClientDMA(t *testing.T) {
	m, nodes, _ := mountWithNodes(t, 2, Config{Volumes: 3, VolumeBytes: 1 << 20})
	sec, err := m.Write(0, "/u/alice/results.dat", 64_000)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatal("no transfer time")
	}
	// The writer's node shows outbound DMA (dma_read); the other node
	// took no part.
	w := nodes[0].Counters()
	if w.Get(hpm.User, hpm.EvDMARead) != 1000 {
		t.Fatalf("writer dma_read = %d, want 1000 transfers", w.Get(hpm.User, hpm.EvDMARead))
	}
	if other := nodes[1].Counters(); other != (hpm.Counts64{}) {
		t.Fatalf("bystander node counted traffic: %+v", other)
	}
}

func TestQuotaEnforced(t *testing.T) {
	m, _, _ := mountWithNodes(t, 1, Config{Volumes: 1, VolumeBytes: 1000})
	if _, err := m.Write(0, "/a", 900); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write(0, "/b", 200); err == nil {
		t.Fatal("overflow write accepted")
	}
	// Overwriting shrinks before checking.
	if _, err := m.Write(0, "/a", 1000); err != nil {
		t.Fatalf("overwrite within quota rejected: %v", err)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	m, _, _ := mountWithNodes(t, 1, Config{Volumes: 1, VolumeBytes: 1 << 20})
	m.Write(0, "/f", 100)
	m.Write(0, "/f", 300)
	if size := m.volumeFor("/f").files["/f"]; size != 300 {
		t.Fatalf("size = %d, want 300", size)
	}
	if m.TotalUsed() != 300 {
		t.Fatalf("TotalUsed = %d", m.TotalUsed())
	}
}

func TestPlacementSpreadsAcrossVolumes(t *testing.T) {
	m, _, _ := mountWithNodes(t, 1, Config{Volumes: 3, VolumeBytes: 1 << 30})
	for u := 0; u < 60; u++ {
		if _, err := m.Write(0, fmt.Sprintf("/u/user%02d/out.dat", u), 1000); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range m.Servers() {
		if len(s.files) == 0 {
			t.Fatalf("volume %d received no files", i)
		}
	}
	if got := len(m.List()); got != 60 {
		t.Fatalf("List = %d files", got)
	}
}

func TestPlacementStable(t *testing.T) {
	m, _, _ := mountWithNodes(t, 1, Config{Volumes: 3, VolumeBytes: 1 << 30})
	a := m.volumeFor("/u/alice/x")
	for i := 0; i < 10; i++ {
		if m.volumeFor("/u/alice/x") != a {
			t.Fatal("placement unstable")
		}
	}
}

// TestConcurrentClientsDoNotRace hammers the mount from several client
// nodes at once — writes, usage totals, listings — the access pattern of
// many users' home directories. Run under -race this pins the per-server
// mutex discipline.
func TestConcurrentClientsDoNotRace(t *testing.T) {
	m, _, _ := mountWithNodes(t, 4, SP2Config())
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/home/u%d/f%d", c, i%10)
				if _, err := m.Write(c, path, 4096); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				m.TotalUsed()
				if i%50 == 0 {
					m.List()
				}
			}
		}(c)
	}
	wg.Wait()
	if got, want := len(m.List()), 4*10; got != want {
		t.Fatalf("List() = %d files, want %d", got, want)
	}
}
