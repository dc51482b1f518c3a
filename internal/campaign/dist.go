package campaign

// The multi-process transport. RunDistributed hands the coordinator one
// remoteSlot per worker process: a length-prefixed frame protocol on a
// Unix (or TCP) socket. The worker receives a replica of the fabric — the
// wire-codec snapshot blob in ReplicaSnapshot mode, the generator Params
// in ReplicaRebuild mode — and ServeWorker drives the same localSlot code
// the in-process engines use on it, streaming tracefile-format records
// back. The coordinator replays them through the shared phases, so the
// distributed output is byte-identical to Run and RunParallel at any
// worker count.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"wormhole/internal/fingerprint"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/topo"
	"wormhole/internal/tracefile"
)

// DistConfig tunes the distributed engine.
type DistConfig struct {
	// Workers is the number of worker processes (minimum 1).
	Workers int
	// Replica selects how the fabric reaches the workers: ReplicaSnapshot
	// ships the wire-codec blob (decode, no generation replay),
	// ReplicaRebuild ships the generator Params (each worker rebuilds).
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

// Frame protocol: [u32 length | u8 type | payload]. Payloads are JSON
// except msgWorld, which carries the raw snapshot blob in snapshot mode.
const (
	msgHello       byte = iota + 1 // c→w: distHello
	msgWorld                       // c→w: wire blob (snapshot) or Params JSON (rebuild)
	msgBootstrap                   // c→w: []bootJob, the worker's contiguous partition
	msgTraces                      // w→c: []tracefile.Trace chunk, partition order
	msgBootDone                    // w→c: Counters of the partition
	msgShards                      // c→w: shardMsg
	msgShardResult                 // w→c: distShardResult, assignment order
	msgWorkerDone                  // w→c: slotDone
)

// maxFrame bounds a single frame; the world blob dominates (the Large
// rung encodes to a few MB) and even the Giga rung stays far below this.
const maxFrame = 1 << 31

// frameChunk is the first read of a frame's payload. Later reads grow
// the buffer eightfold at most, so it never exceeds eight times the bytes
// actually received plus one chunk, whatever length the header claims.
const frameChunk = 64 << 10

// distTraceChunk is the bootstrap streaming granularity: traces per
// msgTraces frame. Chunking never changes output — the coordinator
// replays in partition order regardless.
const distTraceChunk = 256

// distHello opens the session: the campaign configuration, the replica
// mode of the world frame that follows, and the source's prober settings.
type distHello struct {
	Replica ReplicaMode      `json:"replica"`
	Cfg     Config           `json:"cfg"`
	Probers []proberSettings `json:"probers"`
}

// shardMsg is the probing-phase plan for one worker: the HDN set the
// candidate filter needs (distinct IDs preserved, so the same-router
// exclusion compares identically) and the worker's shards.
type shardMsg struct {
	HDNs   []*topo.Node `json:"hdns"`
	Shards []shard      `json:"shards"`
}

// distRecord is one campaign record in tracefile format, plus the
// candidate flag the coordinator needs to re-derive Record.Candidate
// (CandidateFromTrace is a pure function of the trace, so only presence
// crosses the wire).
type distRecord struct {
	tracefile.Record
	HasCandidate bool `json:"has_candidate,omitempty"`
}

// distShardResult is one shard's private output in wire form.
type distShardResult struct {
	Idx     int                     `json:"idx"`
	Stats   ShardStats              `json:"stats"`
	Records []distRecord            `json:"records"`
	Fps     []tracefile.Fingerprint `json:"fps,omitempty"`
}

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

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, 5, 5+len(payload))
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

func writeJSON(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
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

func readJSON(r io.Reader, want byte, v any) error {
	typ, payload, err := readFrame(r, nil)
	if err != nil {
		return err
	}
	return decodeJSON(typ, want, payload, v)
}

func decodeJSON(typ, want byte, payload []byte, v any) error {
	if typ != want {
		return fmt.Errorf("unexpected frame type %d (want %d)", typ, want)
	}
	return json.Unmarshal(payload, v)
}

// remoteSlot drives a worker process over its connection. Every inbound
// frame is decoded before the next is read, so one buffer serves them all.
type remoteSlot struct {
	conn net.Conn
	step time.Duration
	buf  []byte
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

func (r *remoteSlot) readJSON(want byte, v any) error {
	typ, payload, err := r.read()
	if err != nil {
		return err
	}
	return decodeJSON(typ, want, payload, v)
}

func (r *remoteSlot) traceJobs(jobs []bootJob, emit func(int, *probe.Trace) error) (Counters, error) {
	if err := writeJSON(r.conn, msgBootstrap, jobs); err != nil {
		return Counters{}, err
	}
	got := 0
	for {
		typ, payload, err := r.read()
		if err != nil {
			return Counters{}, fmt.Errorf("bootstrap: %w", err)
		}
		switch typ {
		case msgTraces:
			var chunk []tracefile.Trace
			if err := json.Unmarshal(payload, &chunk); err != nil {
				return Counters{}, err
			}
			if got+len(chunk) > len(jobs) {
				return Counters{}, fmt.Errorf("bootstrap returned over %d traces", len(jobs))
			}
			for _, wt := range chunk {
				tr, err := wt.ToTrace()
				if err != nil {
					return Counters{}, err
				}
				if err := emit(got, tr); err != nil {
					return Counters{}, err
				}
				got++
			}
		case msgBootDone:
			if got != len(jobs) {
				return Counters{}, fmt.Errorf("bootstrap returned %d traces, want %d", got, len(jobs))
			}
			var d Counters
			return d, json.Unmarshal(payload, &d)
		default:
			return Counters{}, fmt.Errorf("unexpected frame type %d in bootstrap", typ)
		}
	}
}

func (r *remoteSlot) probeShards(shards []shard, p *probePlan, emit func(*shardResult) error) error {
	if err := writeJSON(r.conn, msgShards, shardMsg{HDNs: p.hdns, Shards: shards}); err != nil {
		return err
	}
	for _, sh := range shards {
		var d distShardResult
		if err := r.readJSON(msgShardResult, &d); err != nil {
			return fmt.Errorf("shard phase: %w", err)
		}
		if d.Idx != sh.Idx {
			return fmt.Errorf("shard result %d, want %d", d.Idx, sh.Idx)
		}
		res, err := rebuildShardResult(sh, &d)
		if err != nil {
			return err
		}
		if err := emit(res); err != nil {
			return err
		}
	}
	return nil
}

func (r *remoteSlot) finish() (slotDone, error) {
	var d slotDone
	if err := r.readJSON(msgWorkerDone, &d); err != nil {
		return d, fmt.Errorf("finish: %w", err)
	}
	return d, nil
}

// rebuildShardResult reconstructs a shard's private output from its wire
// form: traces parse back hop-for-hop, Candidate re-derives from the
// identical trace, revelations parse with their technique and steps, and
// the merge then canonicalizes exactly as in-process.
func rebuildShardResult(sh shard, d *distShardResult) (*shardResult, error) {
	res := &shardResult{sh: sh, fps: make(map[netaddr.Addr]fingerprint.Result), stats: d.Stats}
	for i := range d.Records {
		dr := &d.Records[i]
		tr, err := dr.Trace.ToTrace()
		if err != nil {
			return nil, err
		}
		rec := &Record{Trace: tr}
		if dr.HasCandidate {
			cand, ok := reveal.CandidateFromTrace(tr)
			if !ok {
				return nil, fmt.Errorf("shard %d: candidate does not re-derive from trace to %s", sh.Idx, tr.Dst)
			}
			rec.Candidate = &cand
			rec.CandidateAS = dr.CandidateAS
			rec.EgressEchoTTL = dr.EgressEchoTTL
		}
		if dr.Revelation != nil {
			if rec.Revelation, err = dr.Revelation.ToRevelation(); err != nil {
				return nil, err
			}
		}
		res.records = append(res.records, rec)
	}
	for _, f := range d.Fps {
		r, err := f.ToResult()
		if err != nil {
			return nil, err
		}
		res.fps[r.Addr] = r
	}
	return res, nil
}

// RunDistributed executes the campaign with dcfg.Workers worker
// processes. Output is byte-identical to Run and RunParallel on the same
// Internet and Config, at any worker count and in both replica modes. On
// any worker failure it returns a *WorkerError and no campaign: partial
// results are discarded, never merged.
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
	var world []byte
	var err error
	if dcfg.Replica == ReplicaRebuild {
		if world, err = json.Marshal(in.Params()); err != nil {
			return nil, fmt.Errorf("campaign: params encode: %w", err)
		}
	} else if world, err = in.EncodeWire(); err != nil {
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
	hello := distHello{Replica: dcfg.Replica, Cfg: cfg, Probers: proberSettingsOf(in.VPs)}
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
		if err := writeJSON(s.conn, msgHello, hello); err != nil {
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
// world, then drive a localSlot on it — the bootstrap partition and the
// assigned shards — streaming results back. It returns when the session
// completes or the connection breaks; the process exit code is the
// caller's concern.
func ServeWorker(conn net.Conn) error {
	defer conn.Close()
	var hello distHello
	if err := readJSON(conn, msgHello, &hello); err != nil {
		return fmt.Errorf("worker: hello: %w", err)
	}
	typ, payload, err := readFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("worker: world: %w", err)
	}
	if typ != msgWorld {
		return fmt.Errorf("worker: unexpected frame type %d (want world)", typ)
	}
	var win *gen.Internet
	if hello.Replica == ReplicaRebuild {
		var p gen.Params
		if err := json.Unmarshal(payload, &p); err != nil {
			return fmt.Errorf("worker: params: %w", err)
		}
		if win, err = gen.Build(p); err != nil {
			return fmt.Errorf("worker: rebuild: %w", err)
		}
	} else if win, err = gen.DecodeWire(payload); err != nil {
		return fmt.Errorf("worker: decode: %w", err)
	}
	if len(hello.Probers) != len(win.VPs) {
		return fmt.Errorf("worker: hello carries %d probers for %d vantage points", len(hello.Probers), len(win.VPs))
	}
	s := newLocalSlot(win, hello.Cfg, hello.Probers, true)

	var jobs []bootJob
	if err := readJSON(conn, msgBootstrap, &jobs); err != nil {
		return fmt.Errorf("worker: bootstrap jobs: %w", err)
	}
	for _, j := range jobs {
		if j.VP < 0 || j.VP >= len(win.VPs) {
			return fmt.Errorf("worker: bootstrap job for VP %d of %d", j.VP, len(win.VPs))
		}
	}
	chunk := make([]tracefile.Trace, 0, distTraceChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		err := writeJSON(conn, msgTraces, chunk)
		chunk = chunk[:0]
		return err
	}
	boot, err := s.traceJobs(jobs, func(_ int, tr *probe.Trace) error {
		chunk = append(chunk, tracefile.FromTrace(tr))
		if len(chunk) < distTraceChunk {
			return nil
		}
		return flush()
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return err
	}
	if err := writeJSON(conn, msgBootDone, boot); err != nil {
		return err
	}

	var sm shardMsg
	if err := readJSON(conn, msgShards, &sm); err != nil {
		return fmt.Errorf("worker: shards: %w", err)
	}
	for i, h := range sm.HDNs {
		if h == nil {
			return fmt.Errorf("worker: null HDN %d in the shards frame", i)
		}
	}
	for _, sh := range sm.Shards {
		if sh.Team < 0 || len(win.VPs) == 0 {
			return fmt.Errorf("worker: shard %d for team %d", sh.Idx, sh.Team)
		}
	}
	// The symbolic churn plan compiles identically on a structural
	// replica: candidates are (AS index, core position) pairs and the
	// schedule is a pure function of (seed, shard index).
	plan := newProbePlan(sm.HDNs, gen.BuildChurnPlan(win, hello.Cfg.ChurnRate, hello.Cfg.ChurnSeed))
	err = s.probeShards(sm.Shards, plan, func(res *shardResult) error {
		out := distShardResult{Idx: res.sh.Idx, Stats: res.stats, Fps: tracefile.FromFingerprints(res.fps)}
		for _, rec := range res.records {
			dr := distRecord{
				Record:       tracefile.Record{Trace: tracefile.FromTrace(rec.Trace), CandidateAS: rec.CandidateAS, EgressEchoTTL: rec.EgressEchoTTL},
				HasCandidate: rec.Candidate != nil,
			}
			if rec.Revelation != nil {
				rv := tracefile.FromRevelation(rec.Revelation)
				dr.Revelation = &rv
			}
			out.Records = append(out.Records, dr)
		}
		return writeJSON(conn, msgShardResult, out)
	})
	if err != nil {
		return err
	}
	done, _ := s.finish()
	return writeJSON(conn, msgWorkerDone, done)
}
