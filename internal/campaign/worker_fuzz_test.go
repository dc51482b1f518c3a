package campaign

// The worker's inbound path reads bytes from another process: the hello,
// the world blob, the bootstrap jobs and the shards frame. FuzzDecodeWire
// (internal/gen) covers the world blob; this file covers the rest, which
// must end a session in an error, never a panic or a hang.

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/wirefmt"
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
// milliseconds: three bootstrap jobs and one two-target shard. The hello,
// jobs and shards are section bodies; the world blob is replayed as
// recorded.
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
	var hello Config
	var jobs []bootJob
	var sm shardMsg
	if decodeFrame(msgHello, msgHello, frames[msgHello], func(d *frameReader) { hello = d.hello() }) != nil ||
		decodeFrame(msgBootstrap, msgBootstrap, frames[msgBootstrap], func(d *frameReader) { jobs = getList(d, minJob, d.job) }) != nil ||
		decodeFrame(msgShards, msgShards, frames[msgShards], func(d *frameReader) { sm = d.shardMsg() }) != nil ||
		len(jobs) < 3 || len(sm.Shards) == 0 {
		t.Fatal("recorded session lacks its hello, jobs or shards")
	}
	sort.Slice(sm.Shards, func(i, j int) bool { return len(sm.Shards[i].Targets) < len(sm.Shards[j].Targets) })
	sm.Shards = sm.Shards[:1]
	sm.Shards[0].Targets = sm.Shards[0].Targets[:min(2, len(sm.Shards[0].Targets))]
	return &workerSession{
		hello:  sectionBody(func(f *frameWriter) { f.hello(hello) }),
		world:  frames[msgWorld],
		jobs:   sectionBody(func(f *frameWriter) { putList(f, jobs[:3], f.job) }),
		shards: sectionBody(func(f *frameWriter) { f.shardMsg(sm) }),
	}
}

// serve runs a worker over the session with the given hello, jobs and
// shards section bodies, each sealed into its frame.
func (s *workerSession) serve(hello, jobs, shards []byte) error {
	var in bytes.Buffer
	in.Write(sealedFrame(msgHello, hello))
	writeFrame(&in, msgWorld, s.world)
	in.Write(sealedFrame(msgBootstrap, jobs))
	in.Write(sealedFrame(msgShards, shards))
	return ServeWorker(sessionConn{r: bytes.NewReader(in.Bytes())})
}

// withChurnRate returns the session's hello with its campaign's churn
// rate replaced.
func (s *workerSession) withChurnRate(t testing.TB, rate float64) []byte {
	var cfg Config
	if err := decodeBody(msgHello, s.hello, func(d *frameReader) { cfg = d.hello() }); err != nil {
		t.Fatal(err)
	}
	cfg.ChurnRate = rate
	return sectionBody(func(f *frameWriter) { f.hello(cfg) })
}

// FuzzServeWorkerInbound fuzzes the worker's inbound path — the hello's
// configuration, the bootstrap jobs and the shards frame with its HDN
// set, as section bodies — from a recorded session.
// Any input must end in an error or a clean session, never a panic or a
// hang. testdata/fuzz/FuzzServeWorkerInbound/hdn-count-overrun holds the
// shards frame of TestServeWorkerRejectsOverrunningCounts whose HDN count
// overruns its payload; the third seed is the hello of
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

// overrunningShards are shards frames whose HDN count, or whose one HDN's
// address count, claims 2²⁰ elements in a payload that holds none.
var overrunningShards = map[string]func(*frameWriter){
	"HDN count": func(f *frameWriter) { f.count(1 << 20) },
	"address count": func(f *frameWriter) {
		f.count(1)
		f.i64(7)
		f.String("r7")
		f.U32(65001)
		f.count(1 << 20)
	},
}

// TestServeWorkerRejectsOverrunningCounts pins the bound on every count a
// worker reads: a shards frame whose HDN count, or a node's address
// count, overruns the payload must end the session with a truncation
// error, having allocated memory in proportion to the payload rather
// than to the count.
func TestServeWorkerRejectsOverrunningCounts(t *testing.T) {
	s := recordWorkerSession(t)
	noJobs := sectionBody(func(f *frameWriter) { putList(f, nil, f.job) })
	for name, encode := range overrunningShards {
		shards := sectionBody(encode)
		if err := s.serve(s.hello, noJobs, shards); !errors.Is(err, wirefmt.ErrTruncated) {
			t.Errorf("%s: session ended with %v, want a truncation error", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeBody(msgShards, shards, func(d *frameReader) { d.shardMsg() })
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: shards frame decoded", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: decoding a %d-byte shards section allocated %d bytes", name, len(shards), alloc)
		}
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
