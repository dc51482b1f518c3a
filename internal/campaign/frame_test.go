package campaign

// The coordinator's inbound path reads bytes from another process: frame
// headers, bootstrap link maps, shard results. These tests pin that bad input
// costs an error within bounded memory, never a panic, a hang, or an
// allocation the peer never paid for.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/topo"
	"wormhole/internal/wirefmt"
)

// TestReadFrameBoundsMemory is the regression test for a frame reader
// that allocated the peer-claimed length before reading any payload: a
// 5-byte header claiming 2³¹ bytes, then 4 bytes and EOF, must fail
// having allocated memory in proportion to what arrived, and legitimate
// frames of every size must still round-trip through a reused buffer.
func TestReadFrameBoundsMemory(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame)
	hdr[4] = msgBootDone
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

// sectionBody returns the section body encode writes.
func sectionBody(encode func(*frameWriter)) []byte {
	var f frameWriter
	f.begin(0)
	encode(&f)
	return f.Buf[f.mark:]
}

// sealedFrame returns the frame of type typ whose section holds body
// under the checksum of body.
func sealedFrame(typ byte, body []byte) []byte {
	var f frameWriter
	f.begin(typ)
	f.Buf = append(f.Buf, body...)
	frame, _ := f.frame() // appended bytes cannot fail to encode
	return frame
}

// decodeBody decodes body as the section of a frame of type typ.
func decodeBody(typ byte, body []byte, decode func(*frameReader)) error {
	return decodeFrame(typ, typ, sealedFrame(typ, body)[5:], decode)
}

// The inbound fuzzers mutate frames that carry bare section bodies and
// seal each body before a decoder reads it, so a mutation reaches the
// field decoders instead of stopping at the section checksum; wirefmt's
// FuzzReader covers the section framing itself.

// bareStream strips the section framing from every frame of a recorded
// worker stream.
func bareStream(t testing.TB, stream []byte) []byte {
	var out bytes.Buffer
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		typ, payload, err := readFrame(r, nil)
		if err != nil || len(payload) < 16 {
			t.Fatalf("recorded stream does not parse: %v", err)
		}
		writeFrame(&out, typ, payload[12:len(payload)-4])
	}
	return out.Bytes()
}

// sealStream reverses bareStream. From the first frame that does not
// parse on, data is kept as is.
func sealStream(data []byte) []byte {
	var out []byte
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		rest := data[len(data)-r.Len():]
		typ, body, err := readFrame(r, nil)
		if err != nil {
			return append(out, rest...)
		}
		out = append(out, sealedFrame(typ, body)...)
	}
	return out
}

// replay seals data and drives a remoteSlot through a whole session over
// it.
func (s *inboundSession) replay(data []byte) error {
	x := &remoteSlot{conn: replayConn{r: bytes.NewReader(sealStream(data))}}
	if _, _, err := x.traceJobs(s.jobs); err != nil {
		return err
	}
	if err := x.probeShards(s.shards, s.plan, func(*shardResult) error { return nil }); err != nil {
		return err
	}
	_, err := x.finish()
	return err
}

// FuzzCoordinatorInbound fuzzes the coordinator's inbound path — the
// frame reader and the boot-done (counters and link map), shard-result
// and worker-done sections, candidates re-derived from their traces —
// from a real worker stream, its frames bare. Any input must end in an
// error or a clean session, never a panic or a hang. The third seed is a
// boot-done frame header claiming 2³¹−1 bytes.
func FuzzCoordinatorInbound(f *testing.F) {
	s := recordInboundSession(f)
	bare := bareStream(f, s.stream)
	if err := s.replay(bare); err != nil {
		f.Fatalf("recorded session does not replay: %v", err)
	}
	f.Add(bare)
	f.Add(bare[:len(bare)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, msgBootDone, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = s.replay(data)
	})
}

// badBootDone are boot-done bodies whose link map the payload cannot
// hold or whose link leaves its address list, each with the error its
// decoder must return.
var badBootDone = map[string]struct {
	encode func(*frameWriter)
	want   error
}{
	"address count": {func(f *frameWriter) { f.count(1 << 20) }, wirefmt.ErrTruncated},
	"link count": {func(f *frameWriter) {
		putList(f, []netaddr.Addr{1, 2}, f.addr)
		f.count(1 << 20)
	}, wirefmt.ErrTruncated},
	"link endpoint": {func(f *frameWriter) {
		putList(f, []netaddr.Addr{1, 2}, f.addr)
		putList(f, []topo.Link{{A: 0, B: 1}, {A: 1, B: 2}}, f.link)
	}, errFrameRange},
	"link endpoint past an empty map": {func(f *frameWriter) {
		putList(f, nil, f.addr)
		putList(f, []topo.Link{{A: 0, B: 0}}, f.link)
	}, errFrameRange},
}

// TestBootDoneBoundsLinkMap pins the bounds of the boot-done frame: a
// worker's link map decodes whole, and an address or link count that
// overruns the payload, or a link endpoint outside the address list,
// ends the bootstrap with the frame's typed error, having allocated
// memory in proportion to the payload rather than to the count.
func TestBootDoneBoundsLinkMap(t *testing.T) {
	var want topo.LinkMap
	want.AddTrace(&probe.Trace{Hops: []probe.Hop{{Addr: 7}, {Addr: 9}, {}, {Addr: 9}, {Addr: 8}}})
	cost := Counters{Probes: 5, Replies: 4}
	body := sectionBody(func(f *frameWriter) {
		f.counters(cost)
		f.linkMap(&want)
	})
	x := &remoteSlot{conn: replayConn{r: bytes.NewReader(sealedFrame(msgBootDone, body))}}
	m, c, err := x.traceJobs(nil)
	if err != nil || c != cost || !reflect.DeepEqual(m.Addrs, want.Addrs) || !reflect.DeepEqual(m.Links, want.Links) {
		t.Fatalf("boot-done decodes to %v %v %+v, %v; want %v %v %+v", m.Addrs, m.Links, c, err, want.Addrs, want.Links, cost)
	}
	for name, bad := range badBootDone {
		body := sectionBody(func(f *frameWriter) {
			f.counters(cost)
			bad.encode(f)
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := &remoteSlot{conn: replayConn{r: bytes.NewReader(sealedFrame(msgBootDone, body))}}
		_, _, err := x.traceJobs(nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, bad.want) {
			t.Errorf("%s: bootstrap ended with %v, want %v", name, err, bad.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: decoding a %d-byte boot-done section allocated %d bytes", name, len(body), alloc)
		}
	}
}
