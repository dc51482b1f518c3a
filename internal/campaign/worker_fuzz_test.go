package campaign

// The worker's inbound path reads bytes from another process: the hello,
// the world blob, the bootstrap jobs and the shards frame. FuzzDecodeWire
// (internal/gen) covers the world blob; this file covers the rest, which
// must end a session in an error, never a panic or a hang.

import (
	"bytes"
	"encoding/json"
	"net"
	"runtime"
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

// withChurnRate returns the session's hello with its campaign's churn
// rate replaced.
func (s *workerSession) withChurnRate(t testing.TB, rate float64) []byte {
	var h distHello
	if err := json.Unmarshal(s.hello, &h); err != nil {
		t.Fatal(err)
	}
	h.Cfg.ChurnRate = rate
	hello, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return hello
}

// FuzzServeWorkerInbound fuzzes the worker's inbound path — the hello's
// configuration and prober settings, the bootstrap jobs and the shards
// frame with its HDN set — from a recorded session. Any input must end in
// an error or a clean session, never a panic or a hang. Crashers stay in
// testdata/fuzz/FuzzServeWorkerInbound (null-hdn: a shards frame whose
// HDN set holds a null); the third seed is the hello of
// TestServeWorkerChurnRateBounded.
func FuzzServeWorkerInbound(f *testing.F) {
	s := recordWorkerSession(f)
	if err := s.serve(s.hello, s.jobs, s.shards); err != nil {
		f.Fatalf("recorded session does not replay: %v", err)
	}
	f.Add(s.hello, s.jobs, s.shards)
	f.Add(s.hello, s.jobs[:len(s.jobs)/2], s.shards[:len(s.shards)/2])
	f.Add(s.withChurnRate(f, 1e6), s.jobs, s.shards)
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

// TestServeWorkerChurnRateBounded pins the churn schedule's bound on a
// worker: the churn rate comes from the peer's hello, and the schedule
// used to plan floor(rate) fail/reconverge/repair cycles per shard
// however few probes the shard held, so a rate of 10⁶ on a two-target
// shard would have allocated about 500 GB. The session must end cleanly
// within a few times the 4 MB a rate-2 session allocates.
func TestServeWorkerChurnRateBounded(t *testing.T) {
	s := recordWorkerSession(t)
	hello := s.withChurnRate(t, 1e6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.serve(hello, s.jobs, s.shards); err != nil {
		t.Fatalf("session with churn rate 1e6: %v", err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("session with churn rate 1e6 allocated %d MB, want at most 64", alloc>>20)
	}
}
