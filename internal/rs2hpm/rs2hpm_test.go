package rs2hpm

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hpm"
)

// fakeSource is a Source with a settable monitor.
type fakeSource struct {
	id  int
	mu  sync.Mutex
	mon *hpm.Monitor
	acc *hpm.Accumulator
}

func newFakeSource(id int) *fakeSource {
	mon := hpm.New()
	return &fakeSource{id: id, mon: mon, acc: hpm.NewAccumulator(mon)}
}

func (f *fakeSource) NodeID() int { return f.id }
func (f *fakeSource) Counters() hpm.Counts64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc.Sample()
	return f.acc.Totals()
}
func (f *fakeSource) add(ev hpm.Event, n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mon.Add(ev, n)
}

func startDaemon(t *testing.T, sources ...Source) (*Daemon, string) {
	t.Helper()
	d := NewDaemon(sources...)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, addr
}

// newSweeper builds a one-address Service over addr, the shape of the
// paper's cron sweep, closed when the test ends. Tests Close it
// themselves before reading the log: Close drains the ingest queue.
func newSweeper(t *testing.T, addr string, cfg ServiceConfig, log *SampleLog) *Service {
	t.Helper()
	cfg.Addrs = []string{addr}
	svc, err := NewService(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestNodesListing(t *testing.T) {
	_, addr := startDaemon(t, newFakeSource(3), newFakeSource(1), newFakeSource(2))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestCountersRoundTrip(t *testing.T) {
	src := newFakeSource(5)
	src.add(hpm.EvFXU0Instr, 12345)
	src.add(hpm.EvCycles, 99999)
	src.mon.SetMode(hpm.System)
	src.add(hpm.EvFXU0Instr, 777)
	_, addr := startDaemon(t, src)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.Counters(5)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Get(hpm.User, hpm.EvFXU0Instr) != 12345 {
		t.Fatalf("user fxu0 = %d", snap.Get(hpm.User, hpm.EvFXU0Instr))
	}
	if snap.Get(hpm.User, hpm.EvCycles) != 99999 {
		t.Fatalf("cycles = %d", snap.Get(hpm.User, hpm.EvCycles))
	}
	if snap.Get(hpm.System, hpm.EvFXU0Instr) != 777 {
		t.Fatalf("system fxu0 = %d", snap.Get(hpm.System, hpm.EvFXU0Instr))
	}
}

func TestCountersUnknownNode(t *testing.T) {
	_, addr := startDaemon(t, newFakeSource(1))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Counters(42); err == nil {
		t.Fatal("unknown node did not error")
	}
	// The connection must remain usable after an ERR.
	if _, err := c.Counters(1); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestMultipleClientsConcurrently(t *testing.T) {
	src := newFakeSource(0)
	_, addr := startDaemon(t, src)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				if _, err := c.Counters(0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Writer mutates counters while clients sample.
	for j := 0; j < 1000; j++ {
		src.add(hpm.EvCycles, 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDaemonCloseIdempotent(t *testing.T) {
	d, _ := startDaemon(t, newFakeSource(0))
	d.Close()
	d.Close() // must not panic or hang
}

// TestDaemonCloseDropsClients: Close does not wait for connected
// clients to hang up. It closes their connections, so it returns with a
// client still connected, and that client's next call fails.
func TestDaemonCloseDropsClients(t *testing.T) {
	d, addr := startDaemon(t, newFakeSource(0))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Nodes(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked 2 s after it was called with a client connected")
	}
	if ids, err := c.Nodes(); err == nil {
		t.Fatalf("client still served after Close: nodes %v", ids)
	}
}

func TestAddSourceAfterStart(t *testing.T) {
	d, addr := startDaemon(t, newFakeSource(0))
	d.AddSource(newFakeSource(9))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestSampleLogDelta(t *testing.T) {
	l := NewSampleLog()
	mon := hpm.New()
	acc := hpm.NewAccumulator(mon)
	add := func(at float64) {
		acc.Sample()
		if err := l.Add(Sample{AtSeconds: at, Node: 1, Snap: acc.Totals()}); err != nil {
			t.Fatal(err)
		}
	}
	add(0)
	mon.Add(hpm.EvCycles, 1000)
	add(900)
	mon.Add(hpm.EvCycles, 2000)
	add(1800)

	d, secs, ok := l.DeltaOver(1, 0, 1800)
	if !ok {
		t.Fatal("DeltaOver found no window")
	}
	if secs != 1800 {
		t.Fatalf("span = %v", secs)
	}
	if got := d.Get(hpm.User, hpm.EvCycles); got != 3000 {
		t.Fatalf("delta = %d", got)
	}
	// Sub-window.
	d, secs, ok = l.DeltaOver(1, 800, 1800)
	if !ok || secs != 900 || d.Get(hpm.User, hpm.EvCycles) != 2000 {
		t.Fatalf("sub-window delta = %d over %v (ok=%v)", d.Get(hpm.User, hpm.EvCycles), secs, ok)
	}
}

func TestSampleLogDeltaSurvivesWraps(t *testing.T) {
	// The 32-bit hardware registers wrap between samples; the daemon's
	// accumulator corrects them before the log ever sees a value.
	l := NewSampleLog()
	mon := hpm.New()
	acc := hpm.NewAccumulator(mon)
	add := func(at float64) {
		acc.Sample()
		l.Add(Sample{AtSeconds: at, Node: 0, Snap: acc.Totals()})
	}
	mon.Add(hpm.EvCycles, math.MaxUint32-100)
	add(0)
	mon.Add(hpm.EvCycles, 200) // wrap 1
	add(900)
	mon.Add(hpm.EvCycles, math.MaxUint32) // nearly a full lap more
	add(1800)
	d, _, ok := l.DeltaOver(0, 0, 1800)
	if !ok {
		t.Fatal("no window")
	}
	if got := d.Get(hpm.User, hpm.EvCycles); got != 200+math.MaxUint32 {
		t.Fatalf("wrap-corrected delta = %d, want %d", got, 200+uint64(math.MaxUint32))
	}
}

func TestSampleLogRejectsOutOfOrder(t *testing.T) {
	l := NewSampleLog()
	l.Add(Sample{AtSeconds: 100, Node: 0})
	if err := l.Add(Sample{AtSeconds: 50, Node: 0}); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
}

func TestSampleLogInsufficientWindow(t *testing.T) {
	l := NewSampleLog()
	l.Add(Sample{AtSeconds: 100, Node: 0})
	if _, _, ok := l.DeltaOver(0, 0, 1000); ok {
		t.Fatal("single-sample window reported ok")
	}
	if _, _, ok := l.DeltaOver(9, 0, 1000); ok {
		t.Fatal("unknown node reported ok")
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	// The full path: simulated nodes -> daemon -> TCP -> one-address
	// Service -> log.
	a, b := newFakeSource(0), newFakeSource(1)
	_, addr := startDaemon(t, a, b)
	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{}, log)

	if err := svc.SweepOnce(0); err != nil {
		t.Fatal(err)
	}
	a.add(hpm.EvFXU0Instr, 500)
	b.add(hpm.EvFXU1Instr, 700)
	if err := svc.SweepOnce(900); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	if got := log.Nodes(); len(got) != 2 {
		t.Fatalf("nodes = %v", got)
	}
	d, _, ok := log.DeltaOver(0, 0, 900)
	if !ok || d.Get(hpm.User, hpm.EvFXU0Instr) != 500 {
		t.Fatalf("node 0 delta = %d", d.Get(hpm.User, hpm.EvFXU0Instr))
	}
	d, _, ok = log.DeltaOver(1, 0, 900)
	if !ok || d.Get(hpm.User, hpm.EvFXU1Instr) != 700 {
		t.Fatalf("node 1 delta = %d", d.Get(hpm.User, hpm.EvFXU1Instr))
	}
	if log.Len(0) != 2 || log.Len(1) != 2 {
		t.Fatalf("sample counts = %d/%d", log.Len(0), log.Len(1))
	}
}

func TestCollectorBadAddress(t *testing.T) {
	svc := newSweeper(t, "127.0.0.1:1", ServiceConfig{}, NewSampleLog())
	if err := svc.SweepOnce(0); err == nil {
		t.Fatal("sweep of a dead address succeeded")
	}
	svc.Close()
	// The node list was never known: a whole-sweep failure, no rows.
	if l := svc.Ledger(); l.SweepFailures != 1 || l.Offered != 0 {
		t.Fatalf("dead address ledger %+v, want 1 sweep failure and nothing offered", l)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	src := newFakeSource(0)
	_, addr := startDaemon(t, src)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Speak garbage directly.
	if _, err := c.conn.Write([]byte("BOGUS\n")); err != nil {
		t.Fatal(err)
	}
	c.sc.Scan()
	if !strings.HasPrefix(c.sc.Text(), "ERR") {
		t.Fatalf("garbage got %q", c.sc.Text())
	}
	// COUNTERS with a non-numeric argument.
	if _, err := c.conn.Write([]byte("COUNTERS abc\n")); err != nil {
		t.Fatal(err)
	}
	c.sc.Scan()
	if !strings.HasPrefix(c.sc.Text(), "ERR") {
		t.Fatalf("bad id got %q", c.sc.Text())
	}
}

// armableSource wraps fakeSource with the Armer extension and records the
// selection it was last armed with.
type armableSource struct {
	*fakeSource
	armed string // guarded by mu
}

func (a *armableSource) ArmSelection(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.mon.Arm(name); err != nil {
		return err
	}
	a.acc.Reset()
	a.armed = name
	return nil
}

func TestRemoteArm(t *testing.T) {
	src := &armableSource{fakeSource: newFakeSource(0)}
	_, addr := startDaemon(t, src)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Counters accumulate under the NAS selection...
	src.add(hpm.EvCycles, 500)
	if err := c.Arm(0, "iowait"); err != nil {
		t.Fatal(err)
	}
	// ...and arming clears them and re-routes signals.
	snap, err := c.Counters(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Get(hpm.User, hpm.EvCycles) != 0 {
		t.Fatal("ARM did not clear counters")
	}
	src.mu.Lock()
	src.mon.Signal(hpm.SigIOWaitCycles, 777)
	src.mu.Unlock()
	snap, _ = c.Counters(0)
	if snap.Get(hpm.User, hpm.EvICacheReload) != 777 {
		t.Fatalf("io_wait slot = %d after remote arm", snap.Get(hpm.User, hpm.EvICacheReload))
	}

	// Unknown selection and unknown node both error without killing the
	// connection.
	if err := c.Arm(0, "bogus-selection"); err == nil {
		t.Fatal("bogus selection armed")
	}
	if err := c.Arm(42, "nas"); err == nil {
		t.Fatal("unknown node armed")
	}
	if _, err := c.Counters(0); err != nil {
		t.Fatalf("connection dead after ARM errors: %v", err)
	}
}

func TestRemoteArmAll(t *testing.T) {
	a := &armableSource{fakeSource: newFakeSource(0)}
	b := &armableSource{fakeSource: newFakeSource(1)}
	_, addr := startDaemon(t, a, b)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Arm(-1, "iowait"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*armableSource{a, b} {
		s.mu.Lock()
		name := s.armed
		s.mu.Unlock()
		if name != "iowait" {
			t.Fatalf("node %d selection = %q", s.id, name)
		}
	}
}

func TestArmRejectsNonArmerSource(t *testing.T) {
	_, addr := startDaemon(t, newFakeSource(0)) // plain source: no Armer
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Arm(0, "nas"); err == nil {
		t.Fatal("non-armer source armed")
	}
}

// TestCollectorConcurrentWithSimulation runs five 900 s sweeps of a
// one-address Service against a daemon whose sources are being driven
// hard by a "simulation" goroutine, while new nodes boot mid-campaign.
// This is the deployment shape of the paper's measurement stack; under
// -race it pins the daemon's source-table and the log's sample-table
// locking.
func TestCollectorConcurrentWithSimulation(t *testing.T) {
	srcs := make([]*fakeSource, 4)
	sources := make([]Source, 4)
	for i := range srcs {
		srcs[i] = newFakeSource(i)
		sources[i] = srcs[i]
	}
	d, addr := startDaemon(t, sources...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the simulation: counters advance while sampling runs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srcs[i%len(srcs)].add(hpm.EvCycles, 1000)
		}
	}()
	wg.Add(1)
	go func() { // mid-campaign boots
		defer wg.Done()
		for i := 0; i < 8; i++ {
			d.AddSource(newFakeSource(100 + i))
		}
	}()

	log := NewSampleLog()
	svc := newSweeper(t, addr, ServiceConfig{}, log)
	for tick := 1; tick <= 5; tick++ {
		if err := svc.SweepOnce(float64(tick) * 900); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	svc.Close()
	if got := len(log.Nodes()); got < 4 {
		t.Fatalf("collected %d nodes, want >= 4", got)
	}
	for _, id := range []int{0, 1, 2, 3} {
		if log.Len(id) != 5 {
			t.Fatalf("node %d has %d samples, want 5", id, log.Len(id))
		}
	}
}
