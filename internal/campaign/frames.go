package campaign

// The worker frames' codec. Every payload of the coordinator–worker
// protocol but the world blob is one wirefmt section whose id is the
// frame type, so CRC-32C covers it as it covers the world blob. The
// encoders write the in-process values field by field: an int travels as
// an i64, a count as a u32, an address as a u32, and a trace hop as its
// address, RTT, probe and reply TTLs, ICMP type and code and its label
// stack as 4-byte LSEs (traffic class and bottom-of-stack flag
// included). The decoders read the same fields back and trust nothing:
// a count is checked against the bytes the section has left before
// anything is allocated (wirefmt.ErrTruncated), an enum or a link
// endpoint against its range (errFrameRange), and a frame with bytes
// left over after its fields is an error, so a corrupt or hostile frame
// costs an error within memory in proportion to its own size.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"wormhole/internal/fingerprint"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/topo"
	"wormhole/internal/wirefmt"
)

// The least bytes an element of each repeated kind takes on the wire,
// which bound every count before its allocation.
const (
	minJob    = 8 + 4
	minNode   = 8 + 4 + 4 + 4
	minShard  = 8 + 8 + 4
	minHop    = 1 + 4 + 8 + 1 + 1 + 1 + 4
	minTrace  = 4 + 4 + 1 + 4
	minRecord = minTrace + 1 + 4 + 1 + 1
	minFP     = 4 + 5
)

// errFrameRange is the error of a decoded field outside the range its
// frame allows.
var errFrameRange = errors.New("frame field out of range")

// frameWriter builds outbound frames in one reused buffer: the frame
// header readFrame reads, then one section whose id is the frame type.
type frameWriter struct {
	wirefmt.Writer
	mark int
	err  error // the first field that could not be encoded since begin
}

// begin starts a frame of type typ.
func (f *frameWriter) begin(typ byte) {
	f.Buf = append(f.Buf[:0], 0, 0, 0, 0, typ)
	f.mark = f.BeginSection(uint32(typ))
	f.err = nil
}

// frame closes the section and returns the whole frame, valid until the
// next begin.
func (f *frameWriter) frame() ([]byte, error) {
	if f.err != nil {
		return nil, f.err
	}
	f.EndSection(f.mark)
	binary.LittleEndian.PutUint32(f.Buf, uint32(len(f.Buf)-4))
	return f.Buf, nil
}

// send closes the frame and writes it to w.
func (f *frameWriter) send(w io.Writer) error {
	b, err := f.frame()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// frameReader decodes one inbound frame's section.
type frameReader struct {
	*wirefmt.Reader
}

// decodeFrame checks an inbound frame's type, opens its section, runs
// body over it and fails on any bytes body leaves unread.
func decodeFrame(typ, want byte, payload []byte, body func(*frameReader)) error {
	if typ != want {
		return fmt.Errorf("unexpected frame type %d (want %d)", typ, want)
	}
	r := wirefmt.NewReader(payload)
	d := &frameReader{r.Section(uint32(typ))}
	body(d)
	if d.Err() == nil && d.Len()+r.Len() > 0 {
		return fmt.Errorf("frame type %d: %d trailing bytes", typ, d.Len()+r.Len())
	}
	return d.Err()
}

func (f *frameWriter) i64(v int)           { f.I64(int64(v)) }
func (f *frameWriter) f64(v float64)       { f.U64(math.Float64bits(v)) }
func (f *frameWriter) count(n int)         { f.U32(uint32(n)) }
func (f *frameWriter) addr(a netaddr.Addr) { netaddr.AppendAddr(&f.Writer, a) }

func (d *frameReader) i64() int           { return int(d.I64()) }
func (d *frameReader) f64() float64       { return math.Float64frombits(d.U64()) }
func (d *frameReader) addr() netaddr.Addr { return netaddr.DecodeAddr(d.Reader) }

// enum reads a u8 that must not exceed top.
func (d *frameReader) enum(name string, top uint8) uint8 {
	v := d.U8()
	if v > top {
		d.Fail(fmt.Errorf("%w: %s %d", errFrameRange, name, v))
	}
	return v
}

// putList writes a list: its length, then each element with put.
func putList[T any](f *frameWriter, xs []T, put func(T)) {
	f.count(len(xs))
	for _, x := range xs {
		put(x)
	}
}

// getList reads a list whose elements take at least size bytes each,
// decoding each with get. An empty list decodes as nil, as an empty
// slice built by append is.
func getList[T any](d *frameReader, size int, get func() T) []T {
	n := d.Count(size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get()
	}
	return out
}

// hello opens the session with the campaign configuration a worker
// reads: the probing discipline (FirstTTL, Method), the flow cache switch
// and the churn schedule. The rest of Config drives the coordinator's own
// phases, and the vantage points' prober settings ride in the world blob.
func (f *frameWriter) hello(c Config) {
	f.U8(c.FirstTTL)
	f.U8(uint8(c.Method))
	f.Bool(c.DisableFlowCache)
	f.Bool(c.ChurnFlushWorld)
	f.f64(c.ChurnRate)
	f.I64(c.ChurnSeed)
}

func (d *frameReader) hello() Config {
	return Config{
		FirstTTL:         d.U8(),
		Method:           probe.Method(d.enum("probe method", uint8(probe.UDPParis))),
		DisableFlowCache: d.Bool(),
		ChurnFlushWorld:  d.Bool(),
		ChurnRate:        d.f64(),
		ChurnSeed:        d.I64(),
	}
}

func (f *frameWriter) job(j bootJob) {
	f.i64(j.VP)
	f.addr(j.Dst)
}

func (d *frameReader) job() bootJob { return bootJob{VP: d.i64(), Dst: d.addr()} }

// shardMsg is the probing-phase plan for one worker: the HDN set the
// candidate filter needs (distinct IDs preserved, so the same-router
// exclusion compares identically) and the worker's shards.
type shardMsg struct {
	HDNs   []*topo.Node
	Shards []shard
}

func (f *frameWriter) shardMsg(m shardMsg) {
	putList(f, m.HDNs, f.node)
	putList(f, m.Shards, f.shard)
}

func (d *frameReader) shardMsg() shardMsg {
	return shardMsg{HDNs: getList(d, minNode, d.node), Shards: getList(d, minShard, d.shard)}
}

// node writes what the candidate filter reads of an HDN: its identity,
// name, AS and addresses.
func (f *frameWriter) node(n *topo.Node) {
	f.i64(int(n.ID))
	f.String(n.Name)
	f.U32(n.ASN)
	putList(f, n.Addrs, f.addr)
}

func (d *frameReader) node() *topo.Node {
	return &topo.Node{ID: topo.NodeID(d.i64()), Name: d.String(), ASN: d.U32(), Addrs: getList(d, 4, d.addr)}
}

func (f *frameWriter) shard(sh shard) {
	f.i64(sh.Idx)
	f.i64(sh.Team)
	putList(f, sh.Targets, f.addr)
}

func (d *frameReader) shard() shard {
	return shard{Idx: d.i64(), Team: d.i64(), Targets: getList(d, 4, d.addr)}
}

func (f *frameWriter) trace(tr *probe.Trace) {
	f.addr(tr.Src)
	f.addr(tr.Dst)
	f.Bool(tr.Reached)
	putList(f, tr.Hops, f.hop)
}

func (d *frameReader) trace() *probe.Trace {
	return &probe.Trace{Src: d.addr(), Dst: d.addr(), Reached: d.Bool(), Hops: getList(d, minHop, d.hop)}
}

func (f *frameWriter) hop(h probe.Hop) {
	f.U8(h.ProbeTTL)
	f.addr(h.Addr)
	f.I64(int64(h.RTT))
	f.U8(h.ReplyTTL)
	f.U8(h.ICMPType)
	f.U8(h.ICMPCode)
	putList(f, h.MPLS, f.lse)
}

func (d *frameReader) hop() probe.Hop {
	return probe.Hop{
		ProbeTTL: d.U8(),
		Addr:     d.addr(),
		RTT:      time.Duration(d.I64()),
		ReplyTTL: d.U8(),
		ICMPType: d.U8(),
		ICMPCode: d.U8(),
		MPLS:     getList(d, 4, d.lse),
	}
}

// lse writes a label stack entry in its RFC 3032 form.
func (f *frameWriter) lse(e packet.LSE) {
	var err error
	if f.Buf, err = e.AppendWire(f.Buf); err != nil && f.err == nil {
		f.err = err
	}
}

func (d *frameReader) lse() packet.LSE {
	e, _ := packet.DecodeLSE(d.Bytes(4)) // a short read has failed d
	return e
}

// linkMap writes a slot's bootstrap link map: its addresses in order,
// then its links as pairs of indices into them.
func (f *frameWriter) linkMap(m *topo.LinkMap) {
	putList(f, m.Addrs, f.addr)
	putList(f, m.Links, f.link)
}

// linkMap reads a link map whose every link joins two of its addresses.
func (d *frameReader) linkMap() *topo.LinkMap {
	m := &topo.LinkMap{Addrs: getList(d, 4, d.addr)}
	m.Links = getList(d, 8, func() topo.Link {
		l := d.link()
		if n := uint32(len(m.Addrs)); (l.A >= n || l.B >= n) && d.Err() == nil {
			d.Fail(fmt.Errorf("%w: link %d–%d of a map of %d addresses", errFrameRange, l.A, l.B, n))
		}
		return l
	})
	return m
}

func (f *frameWriter) link(l topo.Link) {
	f.U32(l.A)
	f.U32(l.B)
}

func (d *frameReader) link() topo.Link { return topo.Link{A: d.U32(), B: d.U32()} }

func (f *frameWriter) counters(c Counters) {
	f.U64(c.Probes)
	f.U64(c.Replies)
	f.U64(c.BudgetHits)
	f.U64(c.LoopDrops)
	f.U64(c.FlowCache.Hits)
	f.U64(c.FlowCache.Misses)
	f.U64(c.FlowCache.FastForwards)
	f.U64(c.FlowCache.Invalidations)
	f.U64(c.ChurnEvents)
	f.i64(c.FaultIns)
	f.I64(c.FaultInNS)
}

func (d *frameReader) counters() Counters {
	return Counters{
		Probes:     d.U64(),
		Replies:    d.U64(),
		BudgetHits: d.U64(),
		LoopDrops:  d.U64(),
		FlowCache: netsim.FlowCacheStats{
			Hits:          d.U64(),
			Misses:        d.U64(),
			FastForwards:  d.U64(),
			Invalidations: d.U64(),
		},
		ChurnEvents: d.U64(),
		FaultIns:    d.i64(),
		FaultInNS:   d.I64(),
	}
}

func (f *frameWriter) shardStats(s ShardStats) {
	f.i64(s.Shard)
	f.i64(s.Team)
	f.i64(s.Worker)
	f.i64(s.Targets)
	f.counters(s.Counters)
	f.i64(s.Candidates)
	f.i64(s.Revelations)
	f.i64(s.MaxRevealDepth)
	f.I64(int64(s.Elapsed))
	f.I64(int64(s.VirtualElapsed))
}

func (d *frameReader) shardStats() ShardStats {
	return ShardStats{
		Shard:          d.i64(),
		Team:           d.i64(),
		Worker:         d.i64(),
		Targets:        d.i64(),
		Counters:       d.counters(),
		Candidates:     d.i64(),
		Revelations:    d.i64(),
		MaxRevealDepth: d.i64(),
		Elapsed:        time.Duration(d.I64()),
		VirtualElapsed: time.Duration(d.I64()),
	}
}

// shardResult writes a shard's private output: its stats, its records
// in probing order and its fingerprints. A record's candidate travels as
// a presence bit: CandidateFromTrace is a pure function of the trace.
func (f *frameWriter) shardResult(res *shardResult) {
	f.shardStats(res.stats)
	putList(f, res.records, func(rec *Record) {
		f.trace(rec.Trace)
		f.Bool(rec.Candidate != nil)
		f.U32(rec.CandidateAS)
		f.U8(rec.EgressEchoTTL)
		f.Bool(rec.Revelation != nil)
		if rec.Revelation != nil {
			f.revelation(rec.Revelation)
		}
	})
	f.count(len(res.fps))
	for _, r := range res.fps {
		f.fingerprint(r)
	}
}

// shardResult reads the result of shard sh: the stats must name it, and
// every candidate must re-derive from its record's trace.
func (d *frameReader) shardResult(sh shard) *shardResult {
	res := &shardResult{sh: sh, stats: d.shardStats()}
	if res.stats.Shard != sh.Idx {
		d.Fail(fmt.Errorf("shard result %d, want %d", res.stats.Shard, sh.Idx))
		return nil
	}
	res.records = getList(d, minRecord, func() *Record {
		rec := &Record{Trace: d.trace()}
		if d.Bool() {
			cand, ok := reveal.CandidateFromTrace(rec.Trace)
			if !ok && d.Err() == nil {
				d.Fail(fmt.Errorf("shard %d: candidate does not re-derive from trace to %s", sh.Idx, rec.Trace.Dst))
			}
			rec.Candidate = &cand
		}
		rec.CandidateAS = d.U32()
		rec.EgressEchoTTL = d.U8()
		if d.Bool() {
			rec.Revelation = d.revelation()
		}
		return rec
	})
	n := d.Count(minFP)
	res.fps = make(map[netaddr.Addr]fingerprint.Result, n)
	for range n {
		r := d.fingerprint()
		res.fps[r.Addr] = r
	}
	return res
}

func (f *frameWriter) revelation(r *reveal.Revelation) {
	f.addr(r.Ingress)
	f.addr(r.Egress)
	putList(f, r.Hops, f.addr)
	f.U8(uint8(r.Technique))
	f.i64(r.Probes)
	putList(f, r.Steps, f.i64)
}

func (d *frameReader) revelation() *reveal.Revelation {
	return &reveal.Revelation{
		Ingress:   d.addr(),
		Egress:    d.addr(),
		Hops:      getList(d, 4, d.addr),
		Technique: reveal.Technique(d.enum("revelation technique", uint8(reveal.TechHybrid))),
		Probes:    d.i64(),
		Steps:     getList(d, 8, d.i64),
	}
}

func (f *frameWriter) fingerprint(r fingerprint.Result) {
	f.addr(r.Addr)
	f.U8(r.Signature.TimeExceeded)
	f.U8(r.Signature.EchoReply)
	f.U8(uint8(r.Class))
	f.U8(r.TEReplyTTL)
	f.U8(r.EchoReplyTTL)
}

func (d *frameReader) fingerprint() fingerprint.Result {
	return fingerprint.Result{
		Addr:         d.addr(),
		Signature:    fingerprint.Signature{TimeExceeded: d.U8(), EchoReply: d.U8()},
		Class:        fingerprint.Class(d.enum("fingerprint class", uint8(fingerprint.LegacyLike))),
		TEReplyTTL:   d.U8(),
		EchoReplyTTL: d.U8(),
	}
}

func (f *frameWriter) slotDone(s slotDone) { f.i64(s.Resident) }

func (d *frameReader) slotDone() slotDone { return slotDone{Resident: d.i64()} }
