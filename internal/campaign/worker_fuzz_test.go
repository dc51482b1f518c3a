package campaign

// The worker's inbound path reads bytes from another process: the hello,
// the world blob, the bootstrap jobs and the shards frame. FuzzDecodeWire
// (internal/gen) covers the world blob; this file covers the rest, which
// must end a session in an error, never a panic or a hang.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"wormhole/internal/gen"
)

// readTee records what a worker reads.
type readTee struct {
	net.Conn
	w *bytes.Buffer
}

func (c readTee) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.Write(p[:n])
	return n, err
}

// sessionConn feeds a worker a scripted coordinator stream and discards
// what it writes back.
type sessionConn struct {
	net.Conn
	r *bytes.Reader
}

func (c sessionConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c sessionConn) Write(p []byte) (int, error) { return len(p), nil }
func (c sessionConn) Close() error                { return nil }

// workerSession is the coordinator's side of a real 1-worker distributed
// campaign at the Small rung, trimmed so that replaying it costs
// milliseconds: three bootstrap jobs and one two-target shard. The world
// blob is replayed as recorded.
type workerSession struct {
	hello, world, jobs, shards []byte
}

func recordWorkerSession(t testing.TB) *workerSession {
	p := gen.DefaultParams(7)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5 // the Small rung
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	var worker sync.WaitGroup
	spawn := func(_ int, network, addr string) error {
		worker.Add(1)
		go func() {
			defer worker.Done()
			conn, err := net.Dial(network, addr)
			if err != nil {
				return
			}
			_ = ServeWorker(readTee{Conn: conn, w: &stream})
		}()
		return nil
	}
	_, err = RunDistributed(in, DefaultConfig(), DistConfig{Workers: 1, Spawn: spawn})
	worker.Wait()
	if err != nil {
		t.Fatal(err)
	}
	frames := map[byte][]byte{}
	r := bytes.NewReader(stream.Bytes())
	for r.Len() > 0 {
		typ, payload, err := readFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[typ] = payload
	}
	s := &workerSession{hello: frames[msgHello], world: frames[msgWorld]}
	var jobs []bootJob
	var sm shardMsg
	if json.Unmarshal(frames[msgBootstrap], &jobs) != nil || json.Unmarshal(frames[msgShards], &sm) != nil || len(jobs) < 3 || len(sm.Shards) == 0 {
		t.Fatal("recorded session lacks its jobs or shards")
	}
	sort.Slice(sm.Shards, func(i, j int) bool { return len(sm.Shards[i].Targets) < len(sm.Shards[j].Targets) })
	sm.Shards = sm.Shards[:1]
	sm.Shards[0].Targets = sm.Shards[0].Targets[:min(2, len(sm.Shards[0].Targets))]
	s.jobs, _ = json.Marshal(jobs[:3])
	s.shards, _ = json.Marshal(sm)
	return s
}

// serve runs a worker over the session with the given hello, jobs and
// shards frames.
func (s *workerSession) serve(hello, jobs, shards []byte) error {
	var in bytes.Buffer
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{{msgHello, hello}, {msgWorld, s.world}, {msgBootstrap, jobs}, {msgShards, shards}} {
		if err := writeFrame(&in, fr.typ, fr.payload); err != nil {
			return err
		}
	}
	return ServeWorker(sessionConn{r: bytes.NewReader(in.Bytes())})
}

// FuzzServeWorkerInbound fuzzes the worker's inbound path — the hello's
// configuration and prober settings, the bootstrap jobs and the shards
// frame with its HDN set — from a recorded session. Any input must end in
// an error or a clean session, never a panic or a hang. Crashers stay in
// testdata/fuzz/FuzzServeWorkerInbound (null-hdn: a shards frame whose
// HDN set holds a null).
func FuzzServeWorkerInbound(f *testing.F) {
	s := recordWorkerSession(f)
	if err := s.serve(s.hello, s.jobs, s.shards); err != nil {
		f.Fatalf("recorded session does not replay: %v", err)
	}
	f.Add(s.hello, s.jobs, s.shards)
	f.Add(s.hello, s.jobs[:len(s.jobs)/2], s.shards[:len(s.shards)/2])
	f.Fuzz(func(t *testing.T, hello, jobs, shards []byte) {
		_ = s.serve(hello, jobs, shards)
	})
}

// TestServeWorkerRejectsNullHDN pins the regression FuzzServeWorkerInbound
// guards: a shards frame whose HDN set holds a null used to panic the
// worker; it must end the session with an error.
func TestServeWorkerRejectsNullHDN(t *testing.T) {
	s := recordWorkerSession(t)
	err := s.serve(s.hello, []byte("[]"), []byte(`{"hdns":[null],"shards":[]}`))
	if err == nil || !strings.Contains(err.Error(), "HDN") {
		t.Fatalf("null HDN: %v", err)
	}
}

// serveRebuild runs a rebuild-mode worker whose world frame is the given
// Params payload. The hello carries no probers, so a world that builds
// ends the session at the prober check right after Build.
func serveRebuild(world []byte) error {
	var in bytes.Buffer
	if err := writeJSON(&in, msgHello, distHello{Replica: ReplicaRebuild, Cfg: DefaultConfig()}); err != nil {
		return err
	}
	if err := writeFrame(&in, msgWorld, world); err != nil {
		return err
	}
	return ServeWorker(sessionConn{r: bytes.NewReader(in.Bytes())})
}

// TestServeWorkerRebuildPlanError feeds a rebuild-mode worker Params
// whose address plan cannot fit (a transit with more routers than
// loopback slots): the generator's error must end the session instead of
// panicking the worker process.
func TestServeWorkerRebuildPlanError(t *testing.T) {
	p := gen.DefaultParams(1)
	p.TransitCore = [2]int{300, 300}
	world, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	err = serveRebuild(world)
	var pe *gen.AddressPlanError
	if err == nil || !strings.HasPrefix(err.Error(), "worker: rebuild:") || !errors.As(err, &pe) {
		t.Fatalf("ServeWorker = %v, want a worker: rebuild: error wrapping *gen.AddressPlanError", err)
	}
}

// TestServeWorkerRebuildInvalidParams feeds a rebuild-mode worker Params
// that gen.Build cannot construct (an MPLS share above 1 would overrun a
// slice inside construction): the session must end with the rebuild
// error, not a panic.
func TestServeWorkerRebuildInvalidParams(t *testing.T) {
	p := gen.DefaultParams(1)
	p.MPLSFrac = 1.5
	world, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := serveRebuild(world); err == nil || !strings.HasPrefix(err.Error(), "worker: rebuild:") {
		t.Fatalf("ServeWorker = %v, want a worker: rebuild: error", err)
	}
}

// rebuildBudget is the most routers a FuzzServeWorkerRebuild world may
// hold at its range maxima (the Small rung holds at most 154).
const rebuildBudget = 400

// rebuildSize bounds the routers a Params could build, or reports false
// when a count is too large to bound cheaply.
func rebuildSize(p gen.Params) (int, bool) {
	const big = 1 << 12
	counts := []int{p.NumTier1, p.NumTransit, p.NumStub,
		p.Tier1Core[1], p.Tier1Edge[1], p.TransitCore[1], p.TransitEdge[1], p.StubRouters[1]}
	for _, n := range counts {
		if n > big {
			return 0, false
		}
	}
	size := max(p.NumTier1, 0)*(max(p.Tier1Core[1], 0)+max(p.Tier1Edge[1], 0)) +
		max(p.NumTransit, 0)*(max(p.TransitCore[1], 0)+max(p.TransitEdge[1], 0)) +
		max(p.NumStub, 0)*max(p.StubRouters[1], 0)
	return size, true
}

// FuzzServeWorkerRebuild fuzzes the rebuild-mode world frame — the
// generator Params as JSON — from the Small rung. Any frame must end the
// session in an error, never a panic or a hang. Frames that decode to a
// world above rebuildBudget are skipped, not clamped: clamping would
// rewrite the input the worker reads.
func FuzzServeWorkerRebuild(f *testing.F) {
	p := gen.DefaultParams(7)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5 // the Small rung
	seed, err := json.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	if err := serveRebuild(seed); err == nil || !strings.Contains(err.Error(), "probers") {
		f.Fatalf("Small rung rebuild: %v, want the prober-count error after Build", err)
	}
	f.Add(seed)
	p.Hierarchical, p.LazyStubs = true, true
	lazy, _ := json.Marshal(p)
	f.Add(lazy)
	f.Fuzz(func(t *testing.T, world []byte) {
		var p gen.Params
		if json.Unmarshal(world, &p) == nil {
			if size, ok := rebuildSize(p); !ok || size > rebuildBudget {
				t.Skip("world above the size budget")
			}
		}
		if serveRebuild(world) == nil {
			t.Fatal("a session without probers ended cleanly")
		}
	})
}
