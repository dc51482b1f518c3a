package campaign

// The multi-process transport. RunDistributed hands the coordinator one
// remoteSlot per worker process: a length-prefixed frame protocol on a
// Unix (or TCP) socket. The worker receives a replica of the fabric as
// the wire-codec snapshot blob, and ServeWorker drives the same localSlot
// code the in-process engines use on it, sending its bootstrap link map
// and streaming shard results back as wirefmt sections (frames.go) that
// decode to the values the worker held, label stack entries whole. The
// coordinator replays them through the shared phases, so the distributed
// output is byte-identical to Run and RunParallel at any worker count.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"wormhole/internal/gen"
	"wormhole/internal/topo"
)

// ReplicaMode is ignored; it stays only because the frozen perfbench
// module sets DistConfig.Replica. Every worker gets its world as the
// wire-codec blob.
type ReplicaMode uint8

// ReplicaSnapshot is ignored; it stays only because the frozen perfbench
// module sets it.
const ReplicaSnapshot ReplicaMode = 0

// DistConfig tunes the distributed engine.
type DistConfig struct {
	// Workers is the number of worker processes (minimum 1).
	Workers int
	// Replica is ignored; it stays only because the frozen perfbench
	// module sets it.
	Replica ReplicaMode
	// Network/Addr name the coordinator's listening socket. Empty Network
	// selects a Unix socket in a private temp directory.
	Network, Addr string
	// Spawn launches worker i; the worker must dial (network, addr) and
	// run ServeWorker on the connection. The CLI execs "wormhole worker";
	// tests may spawn goroutines.
	Spawn func(worker int, network, addr string) error
	// JoinTimeout bounds how long the coordinator waits for all workers
	// to connect (default 30s). StepTimeout bounds each frame read from a
	// connected worker (default 5m) — a crashed worker fails fast via
	// EOF; the deadline only guards true hangs.
	JoinTimeout, StepTimeout time.Duration
}

// WorkerError is the typed failure of a distributed campaign: which
// worker broke the protocol (died, timed out, sent garbage) and why. The
// campaign is discarded cleanly — no partial results are merged.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("campaign: worker %d: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Frame protocol: [u32 length | u8 type | payload]. The world frame's
// payload is the raw wire blob; every other payload is one wirefmt
// section whose id is the frame type (frames.go).
const (
	msgHello       byte = iota + 1 // c→w: the Config fields a worker reads
	msgWorld                       // c→w: the world's wire-codec blob
	msgBootstrap                   // c→w: []bootJob, the worker's contiguous partition
	msgBootDone                    // w→c: Counters and link map of the partition
	msgShards                      // c→w: shardMsg
	msgShardResult                 // w→c: one shard's result, assignment order
	msgWorkerDone                  // w→c: slotDone
)

// maxFrame bounds a single frame; the world blob dominates (the Large
// rung encodes to a few MB) and even the Giga rung stays far below this.
const maxFrame = 1 << 31

// frameChunk is the first read of a frame's payload. Later reads grow
// the buffer eightfold at most, so it never exceeds eight times the bytes
// actually received plus one chunk, whatever length the header claims.
const frameChunk = 64 << 10

// countConn wraps a worker connection and bills every byte moved to the
// coordinator's stream counter, which every slot's goroutine shares.
type countConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// writeFrame writes a frame around a payload encoded elsewhere, the
// world blob, without copying it.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf's storage, growing it only as bytes
// arrive: a lying header costs memory in proportion to what the peer
// actually sends. The payload aliases buf and is valid until the next
// read into it.
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("bad frame length %d", n)
	}
	want := int(n - 1)
	payload := buf[:0]
	for len(payload) < want {
		step := min(want-len(payload), max(frameChunk, 7*len(payload)))
		payload = slices.Grow(payload, step)
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+step]); err != nil {
			return 0, nil, err
		}
		payload = payload[:len(payload)+step]
	}
	return hdr[4], payload, nil
}

// readSection reads one frame of type want from r and decodes its
// section with body.
func readSection(r io.Reader, want byte, body func(*frameReader)) error {
	typ, payload, err := readFrame(r, nil)
	if err != nil {
		return err
	}
	return decodeFrame(typ, want, payload, body)
}

// remoteSlot drives a worker process over its connection. Every inbound
// frame is decoded before the next is read, so one buffer serves them
// all, and one frameWriter every outbound frame.
type remoteSlot struct {
	conn net.Conn
	step time.Duration
	buf  []byte
	out  frameWriter
}

func (r *remoteSlot) read() (byte, []byte, error) {
	if r.step > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(r.step)); err != nil {
			return 0, nil, err
		}
	}
	typ, payload, err := readFrame(r.conn, r.buf)
	if err == nil {
		r.buf = payload
	}
	return typ, payload, err
}

func (r *remoteSlot) readSection(want byte, body func(*frameReader)) error {
	typ, payload, err := r.read()
	if err != nil {
		return err
	}
	return decodeFrame(typ, want, payload, body)
}

func (r *remoteSlot) traceJobs(jobs []bootJob) (*topo.LinkMap, Counters, error) {
	r.out.begin(msgBootstrap)
	putList(&r.out, jobs, r.out.job)
	if err := r.out.send(r.conn); err != nil {
		return nil, Counters{}, err
	}
	var m *topo.LinkMap
	var d Counters
	if err := r.readSection(msgBootDone, func(f *frameReader) { d, m = f.counters(), f.linkMap() }); err != nil {
		return nil, Counters{}, fmt.Errorf("bootstrap: %w", err)
	}
	return m, d, nil
}

func (r *remoteSlot) probeShards(shards []shard, p *probePlan, emit func(*shardResult) error) error {
	r.out.begin(msgShards)
	r.out.shardMsg(shardMsg{HDNs: p.hdns, Shards: shards})
	if err := r.out.send(r.conn); err != nil {
		return err
	}
	for _, sh := range shards {
		var res *shardResult
		if err := r.readSection(msgShardResult, func(d *frameReader) { res = d.shardResult(sh) }); err != nil {
			return fmt.Errorf("shard phase: %w", err)
		}
		if err := emit(res); err != nil {
			return err
		}
	}
	return nil
}

func (r *remoteSlot) finish() (slotDone, error) {
	var d slotDone
	if err := r.readSection(msgWorkerDone, func(f *frameReader) { d = f.slotDone() }); err != nil {
		return d, fmt.Errorf("finish: %w", err)
	}
	return d, nil
}

// RunDistributed executes the campaign with dcfg.Workers worker
// processes. Output is byte-identical to Run and RunParallel on the same
// Internet and Config, at any worker count. On any worker failure it
// returns a *WorkerError and no campaign: partial results are discarded,
// never merged.
func RunDistributed(in *gen.Internet, cfg Config, dcfg DistConfig) (*Campaign, error) {
	workers := max(dcfg.Workers, 1)
	if dcfg.Spawn == nil {
		return nil, errors.New("campaign: DistConfig.Spawn is required")
	}
	joinTO := dcfg.JoinTimeout
	if joinTO <= 0 {
		joinTO = 30 * time.Second
	}
	stepTO := dcfg.StepTimeout
	if stepTO <= 0 {
		stepTO = 5 * time.Minute
	}

	// Slot set-up — encode, listen, spawn, join, ship the world — is the
	// distributed engine's replica acquisition. The world is encoded
	// before any prober state mutates: the blob captures the fabric
	// exactly as the serial engine would first observe it.
	t0 := time.Now()
	world, err := in.EncodeWire()
	if err != nil {
		return nil, fmt.Errorf("campaign: snapshot encode: %w", err)
	}

	network, addr := dcfg.Network, dcfg.Addr
	if network == "" {
		dir, err := os.MkdirTemp("", "wormhole-dist-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		network, addr = "unix", filepath.Join(dir, "coord.sock")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: listen: %w", err)
	}
	defer ln.Close()

	for i := 0; i < workers; i++ {
		if err := dcfg.Spawn(i, network, addr); err != nil {
			return nil, fmt.Errorf("campaign: spawn worker %d: %w", i, err)
		}
	}
	var streamed atomic.Uint64
	var conns []net.Conn
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	e := &engine{in: in, cfg: cfg}
	var hf frameWriter
	hf.begin(msgHello)
	hf.hello(cfg)
	hello, err := hf.frame()
	if err != nil {
		return nil, err
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	for i := 0; i < workers; i++ {
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(time.Now().Add(joinTO))
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, &WorkerError{Worker: i, Err: fmt.Errorf("join: %w", err)}
		}
		conns = append(conns, conn)
		s := &remoteSlot{conn: &countConn{Conn: conn, n: &streamed}, step: stepTO}
		e.slots = append(e.slots, s)
		if _, err := s.conn.Write(hello); err != nil {
			return nil, &WorkerError{Worker: i, Err: err}
		}
		if err := writeFrame(s.conn, msgWorld, world); err != nil {
			return nil, &WorkerError{Worker: i, Err: err}
		}
	}
	setup := time.Since(t0)

	c, err := e.run()
	if err != nil {
		return nil, err
	}
	c.Phase.Replica = setup
	c.StreamBytes = streamed.Load()
	return c, nil
}

// ServeWorker runs the worker half of the protocol on conn: receive the
// world, then drive a localSlot on it — the bootstrap partition, sent
// back as one link map, and the assigned shards, each result streamed
// back as it completes. It returns when the session completes or the
// connection breaks; the process exit code is the caller's concern.
func ServeWorker(conn net.Conn) error {
	defer conn.Close()
	var cfg Config
	if err := readSection(conn, msgHello, func(d *frameReader) { cfg = d.hello() }); err != nil {
		return fmt.Errorf("worker: hello: %w", err)
	}
	typ, payload, err := readFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("worker: world: %w", err)
	}
	if typ != msgWorld {
		return fmt.Errorf("worker: unexpected frame type %d (want world)", typ)
	}
	win, err := gen.DecodeWire(payload)
	if err != nil {
		return fmt.Errorf("worker: decode: %w", err)
	}
	s := newLocalSlot(win, cfg, true)

	var jobs []bootJob
	if err := readSection(conn, msgBootstrap, func(d *frameReader) { jobs = getList(d, minJob, d.job) }); err != nil {
		return fmt.Errorf("worker: bootstrap jobs: %w", err)
	}
	for _, j := range jobs {
		if j.VP < 0 || j.VP >= len(win.VPs) {
			return fmt.Errorf("worker: bootstrap job for VP %d of %d", j.VP, len(win.VPs))
		}
	}
	m, boot, _ := s.traceJobs(jobs) // a local slot never fails
	var out frameWriter
	out.begin(msgBootDone)
	out.counters(boot)
	out.linkMap(m)
	if err := out.send(conn); err != nil {
		return err
	}

	var sm shardMsg
	if err := readSection(conn, msgShards, func(d *frameReader) { sm = d.shardMsg() }); err != nil {
		return fmt.Errorf("worker: shards: %w", err)
	}
	for _, sh := range sm.Shards {
		if sh.Team < 0 || len(win.VPs) == 0 {
			return fmt.Errorf("worker: shard %d for team %d", sh.Idx, sh.Team)
		}
	}
	// The symbolic churn plan compiles identically on a structural
	// replica: candidates are (AS index, core position) pairs and the
	// schedule is a pure function of (seed, shard index).
	plan := newProbePlan(sm.HDNs, gen.BuildChurnPlan(win, cfg.ChurnRate, cfg.ChurnSeed))
	err = s.probeShards(sm.Shards, plan, func(res *shardResult) error {
		out.begin(msgShardResult)
		out.shardResult(res)
		return out.send(conn)
	})
	if err != nil {
		return err
	}
	done, _ := s.finish()
	out.begin(msgWorkerDone)
	out.slotDone(done)
	return out.send(conn)
}
