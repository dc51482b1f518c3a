// Package probe implements the measurement side of the paper: a Paris
// traceroute (stable per-flow identifier, so ECMP routers keep one path per
// trace) and ping, both running over the simulation fabric the way
// scamper's engines run over raw sockets.
package probe

import (
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// Hop is one line of traceroute output.
type Hop struct {
	// ProbeTTL is the TTL the probe carried.
	ProbeTTL uint8
	// Addr is the replying interface; zero for an anonymous hop (no reply).
	Addr netaddr.Addr
	// RTT is the virtual round-trip time.
	RTT time.Duration
	// ReplyTTL is the received IP TTL of the reply — the bracketed value
	// in the paper's figures, the raw material of FRPLA and RTLA.
	ReplyTTL uint8
	// ICMPType/ICMPCode classify the reply.
	ICMPType, ICMPCode uint8
	// MPLS is the RFC 4950 label stack quoted by the replying LSR, if any.
	MPLS packet.LabelStack
}

// Anonymous reports whether the hop went unanswered.
func (h Hop) Anonymous() bool { return h.Addr.IsUnspecified() }

// Labeled reports whether the hop exposed MPLS labels.
func (h Hop) Labeled() bool { return len(h.MPLS) > 0 }

// Trace is a complete traceroute.
type Trace struct {
	Src, Dst netaddr.Addr
	Hops     []Hop
	// Reached reports whether the destination itself replied.
	Reached bool
}

// Last returns the final responding hop, if any.
func (t *Trace) Last() (Hop, bool) {
	for i := len(t.Hops) - 1; i >= 0; i-- {
		if !t.Hops[i].Anonymous() {
			return t.Hops[i], true
		}
	}
	return Hop{}, false
}

// PingReply is the outcome of one echo probe.
type PingReply struct {
	From     netaddr.Addr
	RTT      time.Duration
	ReplyTTL uint8
	ICMPType uint8
}

// Method selects the probe type.
type Method uint8

const (
	// ICMPParis sends ICMP echo requests with a fixed identifier (the
	// paper's campaign configuration).
	ICMPParis Method = iota
	// UDPParis sends UDP probes with fixed ports (classic traceroute;
	// the destination answers with port-unreachable).
	UDPParis
)

func (m Method) String() string {
	if m == UDPParis {
		return "udp"
	}
	return "icmp"
}

// udpBasePort is the classic traceroute destination-port base; probes
// cycle over the 128 ports above it, one flow per port.
const udpBasePort = 33434

// Prober issues probes from a vantage-point host. It is not safe for
// concurrent use; campaigns run one Prober per vantage point sequentially
// over the shared fabric.
type Prober struct {
	Net  *netsim.Network
	Host *netsim.Host

	// Method selects ICMP-echo (default) or UDP probing.
	Method Method
	// FirstTTL is the TTL of the first traceroute probe (the campaign
	// uses 2, skipping the VP's own gateway, as in Sec. 4).
	FirstTTL uint8
	// MaxTTL bounds the traceroute.
	MaxTTL uint8
	// GapLimit stops a trace after this many consecutive anonymous hops.
	GapLimit int
	// Attempts retries an unanswered hop (rate-limited routers may answer
	// the second probe). Minimum 1.
	Attempts int
	// FlowID is the Paris flow identifier (ICMP echo ID / UDP source port).
	FlowID uint16

	// seq numbers probes. Each probe draws a 16-bit non-zero token from it
	// that is carried in the IP identifier and the ICMP sequence (or, mod
	// 128, the UDP destination port), so the reply-match key is unique
	// across any window of 65535 consecutive probes — the UDP port cycle
	// alone repeats every 128 and would alias distinct probes.
	seq     uint32
	waiting bool
	pending await

	// Sent counts probe packets for campaign accounting.
	Sent uint64
	// Recv counts matched replies (anonymous hops are the difference).
	Recv uint64
}

// await is the match key of the probe in flight: transport identifiers
// plus the IP-identifier token, which disambiguates probes whose
// transport fields collide (the UDP destination-port cycle).
type await struct {
	id, seq uint16
	ipid    uint16
	reply   *packet.Packet
	rtt     time.Duration
}

// New creates a prober bound to a vantage-point host with scamper-like
// defaults.
func New(net *netsim.Network, host *netsim.Host) *Prober {
	p := &Prober{Net: net, Host: host, FirstTTL: 1, MaxTTL: 30, GapLimit: 5, Attempts: 1, FlowID: 0x1234}
	host.Handler = p.handle
	return p
}

// traceSeed returns the deterministic token-stream seed of one trace
// (FNV-1a over the flow identity). Seeding per trace — rather than
// letting one sequence roll across the prober's lifetime — makes every
// trace a pure function of (source, destination, flow ID): the UDP
// destination-port sequence, and therefore the ECMP path of every UDP
// probe, no longer depends on how many probes ran before, so campaigns
// are byte-identical however bootstrap jobs and shards are partitioned
// across workers, and a re-trace of the same destination replays the
// same port slots straight into the flow cache.
func (p *Prober) traceSeed(dst netaddr.Addr) uint32 {
	h := uint32(2166136261)
	for _, w := range [3]uint32{uint32(p.Host.Addr()), uint32(dst), uint32(p.FlowID)} {
		for s := 24; s >= 0; s -= 8 {
			h = (h ^ (w >> s & 0xff)) * 16777619
		}
	}
	return h
}

// nextToken returns the next probe token: a non-zero uint16 drawn from the
// running sequence. Zero is skipped so the token never collides with the
// zero IP identifier of non-probe traffic.
func (p *Prober) nextToken() uint16 {
	p.seq++
	if uint16(p.seq) == 0 {
		p.seq++
	}
	return uint16(p.seq)
}

func (p *Prober) handle(net *netsim.Network, pkt *packet.Packet) {
	if !p.waiting || pkt.ICMP == nil {
		return
	}
	m := pkt.ICMP
	switch {
	case m.Type == packet.ICMPEchoReply:
		if m.ID == p.pending.id && m.Seq == p.pending.seq {
			// The reply outlives Receive (Traceroute reads it after the
			// drain and aliases its label stack into Hop.MPLS), so take it
			// off the fabric's free list.
			net.AdoptPacket(pkt)
			p.pending.reply = pkt
			p.Recv++
		}
	case m.IsError():
		// Error replies are matched on the quoted transport pair (echo
		// ID/Seq or UDP ports) and the quoted IP identifier, which carries
		// the full 16-bit probe token — the transport pair alone is not
		// collision-free for UDP, whose destination port cycles mod 128.
		if m.Quote != nil && m.Quote.ID == p.pending.id && m.Quote.Seq == p.pending.seq &&
			m.Quote.IP.ID == p.pending.ipid {
			net.AdoptPacket(pkt)
			p.pending.reply = pkt
			p.Recv++
		}
	}
}

// buildProbe constructs one probe packet for the given method and token.
func (p *Prober) buildProbe(dst netaddr.Addr, ttl uint8, method Method, token uint16) *packet.Packet {
	pkt := &packet.Packet{
		IP: packet.IPv4{
			ID:       token,
			TTL:      ttl,
			Protocol: packet.ProtoICMP,
			Src:      p.Host.Addr(),
			Dst:      dst,
		},
	}
	if method == UDPParis {
		pkt.IP.Protocol = packet.ProtoUDP
		pkt.UDP = &packet.UDP{SrcPort: p.FlowID, DstPort: udpBasePort + token%128}
	} else {
		pkt.ICMP = &packet.ICMP{Type: packet.ICMPEchoRequest, ID: p.FlowID, Seq: token}
	}
	return pkt
}

// replyObs converts a matched reply packet (or nil, for a timeout) into
// the observation the flow cache memoizes.
func replyObs(reply *packet.Packet, elapsed time.Duration) netsim.ProbeObs {
	obs := netsim.ProbeObs{Advance: elapsed}
	if reply != nil {
		obs.Answered = true
		obs.From = reply.IP.Src
		obs.ReplyTTL = reply.IP.TTL
		obs.ICMPType = reply.ICMP.Type
		obs.ICMPCode = reply.ICMP.Code
		if reply.ICMP.Ext != nil {
			obs.MPLS = reply.ICMP.Ext.LabelStack
		}
	}
	return obs
}

// probe issues one probe of the given method and TTL toward dst, going
// through the fabric's flow-trajectory cache: a memoized (flow, TTL)
// reply is replayed without touching the event loop; otherwise the probe
// runs live (fast-forwarded past the recorded frontier when possible) and
// its outcome is memoized. Sent/Recv and the virtual clock advance
// identically on every path.
func (p *Prober) probe(dst netaddr.Addr, ttl uint8, method Method) netsim.ProbeObs {
	// Churn ticks once per logical probe, memo hit or live — the single
	// choke point every probe passes through, so an armed schedule fires
	// its events at identical probe boundaries whether or not caching is
	// on.
	p.Net.ChurnTick()
	token := p.nextToken()
	key := netsim.FlowKey{Src: p.Host.Addr(), Dst: dst, Proto: packet.ProtoICMP, A: p.FlowID}
	if method == UDPParis {
		key.Proto = packet.ProtoUDP
		key.B = udpBasePort + token%128
	}
	if obs, ok := p.Net.FlowLookup(key, ttl); ok {
		p.Sent++
		p.Net.AdvanceClock(obs.Advance)
		if obs.Answered {
			p.Recv++
		}
		return obs
	}
	pkt := p.buildProbe(dst, ttl, method, token)
	if pkt.UDP != nil {
		p.pending = await{id: pkt.UDP.SrcPort, seq: pkt.UDP.DstPort, ipid: token}
	} else {
		p.pending = await{id: pkt.ICMP.ID, seq: pkt.ICMP.Seq, ipid: token}
	}
	p.waiting = true
	p.Sent++
	elapsed := p.Net.FlowProbe(p.Host.If, pkt, key, ttl)
	reply := p.pending.reply
	p.waiting = false
	p.pending = await{}
	obs := replyObs(reply, elapsed)
	p.Net.FlowFinish(ttl, obs)
	return obs
}

// Traceroute traces toward dst.
func (p *Prober) Traceroute(dst netaddr.Addr) *Trace {
	// Lazy fabrics materialize the destination's stub before the first
	// packet toward it exists (a no-op on eager fabrics).
	p.Net.FaultIn(dst)
	tr := &Trace{Src: p.Host.Addr(), Dst: dst}
	p.seq = p.traceSeed(dst)
	gaps := 0
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	// Count in an int: a uint8 counter wraps past MaxTTL 255 and never ends.
	for t := int(p.FirstTTL); t <= int(p.MaxTTL); t++ {
		ttl := uint8(t)
		var obs netsim.ProbeObs
		for try := 0; try < attempts && !obs.Answered; try++ {
			obs = p.probe(dst, ttl, p.Method)
		}
		hop := Hop{ProbeTTL: ttl}
		if obs.Answered {
			hop.Addr = obs.From
			hop.RTT = obs.Advance
			hop.ReplyTTL = obs.ReplyTTL
			hop.ICMPType = obs.ICMPType
			hop.ICMPCode = obs.ICMPCode
			hop.MPLS = obs.MPLS
		}
		tr.Hops = append(tr.Hops, hop)
		if hop.Anonymous() {
			gaps++
			if gaps >= p.GapLimit {
				break
			}
			continue
		}
		gaps = 0
		if hop.ICMPType == packet.ICMPEchoReply || hop.ICMPType == packet.ICMPDestUnreach {
			tr.Reached = true
			break
		}
	}
	return tr
}

// Ping sends one echo request with the given TTL (0 means 64) and reports
// the reply. Pings are always ICMP, whatever the traceroute method.
func (p *Prober) Ping(dst netaddr.Addr, ttl uint8) (PingReply, bool) {
	p.Net.FaultIn(dst)
	if ttl == 0 {
		ttl = 64
	}
	obs := p.probe(dst, ttl, ICMPParis)
	if !obs.Answered {
		return PingReply{}, false
	}
	return PingReply{
		From:     obs.From,
		RTT:      obs.Advance,
		ReplyTTL: obs.ReplyTTL,
		ICMPType: obs.ICMPType,
	}, true
}
