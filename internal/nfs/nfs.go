// Package nfs models the SP2's external home filesystems: three 8 GB
// NFS-mounted volumes reachable from every node, with all data transfers
// travelling over the High Performance Switch (paper §2). File traffic
// therefore shows up in the client node's DMA counters and competes for
// the same links as message passing — the paper measured an average of
// 3.2 MB/s of disk traffic riding the DMA counters.
package nfs

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hps"
	"repro/internal/units"
)

// ServerIDBase offsets NFS server adapter IDs above any node ID.
const ServerIDBase = 10_000

// Server is one home filesystem.
type Server struct {
	id       int
	capacity uint64

	mu    sync.Mutex
	used  uint64            // guarded by mu
	files map[string]uint64 // guarded by mu
}

// NodeID implements hps.Adapter.
func (s *Server) NodeID() int { return s.id }

// AccountDMA implements hps.Adapter. The server side's DMA is part of no
// node's counters, and it is counted nowhere.
func (s *Server) AccountDMA(reads, writes uint64) {}

// Used returns allocated bytes.
func (s *Server) Used() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Mount is the cluster-wide view: three home filesystems over one switch.
type Mount struct {
	net     *hps.Network
	servers []*Server
}

// Config sizes the mount.
type Config struct {
	// Volumes is the number of home filesystems (3 on the NAS SP2).
	Volumes int
	// VolumeBytes is each volume's capacity (8 GB on the NAS SP2).
	VolumeBytes uint64
}

// SP2Config returns the paper's home-filesystem layout.
func SP2Config() Config {
	return Config{Volumes: 3, VolumeBytes: 8 << 30}
}

// New attaches the home filesystems to the switch.
func New(net *hps.Network, cfg Config) *Mount {
	if cfg.Volumes <= 0 {
		cfg.Volumes = 3
	}
	if cfg.VolumeBytes == 0 {
		cfg.VolumeBytes = 8 << 30
	}
	m := &Mount{net: net}
	for i := 0; i < cfg.Volumes; i++ {
		s := &Server{
			id:       ServerIDBase + i,
			capacity: cfg.VolumeBytes,
			files:    make(map[string]uint64),
		}
		net.Attach(s)
		m.servers = append(m.servers, s)
	}
	return m
}

// Servers returns the volumes.
func (m *Mount) Servers() []*Server {
	out := make([]*Server, len(m.servers))
	copy(out, m.servers)
	return out
}

// volumeFor places a path: a stable hash spreads home directories across
// the three volumes, as NAS spread its users.
func (m *Mount) volumeFor(path string) *Server {
	h := uint64(1469598103934665603)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return m.servers[h%uint64(len(m.servers))]
}

// Write stores (or overwrites) a file from the given client node. The
// bytes cross the switch (charging the client's DMA counters) and consume
// volume space. It returns the transfer time.
func (m *Mount) Write(clientNode int, path string, bytes uint64) (seconds float64, err error) {
	srv := m.volumeFor(path)
	srv.mu.Lock()
	old := srv.files[path]
	if srv.used-old+bytes > srv.capacity {
		srv.mu.Unlock()
		return 0, fmt.Errorf("nfs: volume %d full: %s needs %s",
			srv.id-ServerIDBase, path, units.Bytes(bytes))
	}
	srv.used = srv.used - old + bytes
	srv.files[path] = bytes
	srv.mu.Unlock()

	return m.net.Deliver(clientNode, srv.id, bytes)
}

// List returns all paths across the volumes, sorted.
func (m *Mount) List() []string {
	var out []string
	for _, srv := range m.servers {
		srv.mu.Lock()
		for p := range srv.files {
			out = append(out, p)
		}
		srv.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// TotalUsed sums allocation across volumes.
func (m *Mount) TotalUsed() uint64 {
	var t uint64
	for _, srv := range m.servers {
		t += srv.Used()
	}
	return t
}
