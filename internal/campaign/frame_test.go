package campaign

// The coordinator's inbound path reads bytes from another process: frame
// headers, trace chunks, shard results. These tests pin that bad input
// costs an error within bounded memory, never a panic, a hang, or an
// allocation the peer never paid for.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/probe"
)

// TestReadFrameBoundsMemory is the regression test for a frame reader
// that allocated the peer-claimed length before reading any payload: a
// 5-byte header claiming 2³¹ bytes, then 4 bytes and EOF, must fail
// having allocated memory in proportion to what arrived, and legitimate
// frames of every size must still round-trip through a reused buffer.
func TestReadFrameBoundsMemory(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame)
	hdr[4] = msgTraces
	lying := append(hdr[:], 1, 2, 3, 4)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := readFrame(bytes.NewReader(lying), nil)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d > 1<<20 {
		t.Fatalf("truncated 2 GiB frame allocated %d bytes", d)
	}

	var buf []byte
	for _, n := range []int{0, 1, frameChunk, frameChunk + 1, 600 << 10, 5 << 20} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		var wire bytes.Buffer
		if err := writeFrame(&wire, msgWorld, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, err := readFrame(&wire, buf)
		if err != nil || typ != msgWorld || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame: type %d, %d bytes, err %v", n, typ, len(got), err)
		}
		buf = got
	}
}

// replayConn serves a recorded worker stream to a remoteSlot and
// discards what the coordinator writes.
type replayConn struct {
	net.Conn
	r *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c replayConn) Write(p []byte) (int, error) { return len(p), nil }

// teeConn records what a worker writes.
type teeConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.w.Write(p)
	return c.Conn.Write(p)
}

// inboundSession is a real 1-worker distributed campaign at the Small
// rung: the bytes its worker sent, plus the bootstrap partition and
// shards the coordinator handed that worker.
type inboundSession struct {
	stream []byte
	jobs   []bootJob
	shards []shard
	plan   *probePlan
}

func recordInboundSession(t testing.TB) *inboundSession {
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
			_ = ServeWorker(teeConn{Conn: conn, w: &stream})
		}()
		return nil
	}
	c, err := RunDistributed(in, DefaultConfig(), DistConfig{Workers: 1, Spawn: spawn})
	worker.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return &inboundSession{
		stream: stream.Bytes(),
		jobs:   c.bootstrapJobs(),
		shards: c.buildShards(),
		plan:   newProbePlan(c.HDNs, nil),
	}
}

// replay drives a remoteSlot through a whole session over data.
func (s *inboundSession) replay(data []byte) error {
	x := &remoteSlot{conn: replayConn{r: bytes.NewReader(data)}}
	if _, err := x.traceJobs(s.jobs, func(int, *probe.Trace) error { return nil }); err != nil {
		return err
	}
	if err := x.probeShards(s.shards, s.plan, func(*shardResult) error { return nil }); err != nil {
		return err
	}
	_, err := x.finish()
	return err
}

// FuzzCoordinatorInbound fuzzes the coordinator's inbound path — frame
// reader, trace-chunk and shard-result decode, rebuildShardResult — from
// a real worker stream. Any input must end in an error or a clean
// session, never a panic or a hang.
func FuzzCoordinatorInbound(f *testing.F) {
	s := recordInboundSession(f)
	if err := s.replay(s.stream); err != nil {
		f.Fatalf("recorded session does not replay: %v", err)
	}
	f.Add(s.stream)
	f.Add(s.stream[:len(s.stream)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, msgTraces, '[', '{'})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = s.replay(data)
	})
}

// TestServeWorkerRejectsProberMismatch pins the hello check: a session
// whose prober settings do not cover exactly the decoded world's vantage
// points is refused instead of silently leaving some VPs unmirrored.
func TestServeWorkerRejectsProberMismatch(t *testing.T) {
	in := testInternet(t, 101)
	world, err := in.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	coord, worker := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- ServeWorker(worker) }()
	hello, _ := json.Marshal(distHello{Cfg: DefaultConfig(), Probers: proberSettingsOf(in.VPs[:1])})
	if err := writeFrame(coord, msgHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(coord, msgWorld, world); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "probers") {
		t.Fatalf("mismatched hello accepted: %v", err)
	}
	coord.Close()
}
