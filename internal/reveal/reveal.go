// Package reveal implements the paper's contribution: the four
// complementary techniques for detecting and revealing invisible MPLS
// tunnels.
//
//   - FRPLA (Forward/Return Path Length Analysis) compares forward and
//     return path lengths: invisible forward tunnels hide hops from the
//     probe TTL while the stateless min(IP-TTL, LSE-TTL) copy at the
//     return tunnel's penultimate hop leaks them into the reply TTL, so
//     the Return-Forward Asymmetry (RFA) distribution of a tunneling AS
//     shifts positive.
//   - RTLA (Return Tunnel Length Analysis) sharpens this for <255,64>
//     (Juniper-like) egress routers: time-exceeded replies start at 255
//     and pick up the min copy, echo replies start at 64 and never do, so
//     the difference of the two measured return lengths is *exactly* the
//     return tunnel length.
//   - DPR (Direct Path Revelation) targets the egress LER's incoming
//     interface: when that prefix has no LDP label (Juniper default /
//     filtered Cisco), the probe follows the plain IGP route and the
//     whole hidden LSP appears in one trace.
//   - BRPR (Backward Recursive Path Revelation) exploits PHP with
//     all-prefix LDP: tracing toward the egress reveals the LSP's last
//     hop (the penultimate router pops one FEC earlier), and recursing
//     toward each newly revealed address walks the tunnel backward to the
//     ingress.
package reveal

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
)

// Technique labels how a tunnel's content was revealed.
type Technique uint8

const (
	// TechNone: revelation failed.
	TechNone Technique = iota
	// TechDPR: the whole tunnel appeared in a single extra trace.
	TechDPR
	// TechBRPR: the tunnel was walked backward one hop per trace.
	TechBRPR
	// TechEither: a single-LSR tunnel — DPR and BRPR are
	// indistinguishable (the paper's "DPR or BRPR" row).
	TechEither
	// TechHybrid: parts came from a DPR-style multi-hop shot and parts
	// from recursion (the paper's "hybrid DPR/BRPR" row).
	TechHybrid
)

func (t Technique) String() string {
	switch t {
	case TechDPR:
		return "DPR"
	case TechBRPR:
		return "BRPR"
	case TechEither:
		return "DPR-or-BRPR"
	case TechHybrid:
		return "hybrid"
	default:
		return "none"
	}
}

// Revelation is the outcome of the recursive revelation process for one
// candidate ingress-egress pair.
type Revelation struct {
	// Ingress (X) and Egress (Y) bound the suspected invisible tunnel.
	Ingress, Egress netaddr.Addr
	// Hops are the revealed LSR addresses, ordered ingress to egress.
	Hops []netaddr.Addr
	// Technique classifies the successful method.
	Technique Technique
	// Probes counts the additional traceroutes spent.
	Probes int
	// Steps records how many new hops each re-trace contributed (used by
	// the classification and by validation).
	Steps []int
}

// maxRecursion bounds the backward walk; real LSPs rarely exceed a dozen
// hops (Fig. 5), so 32 is generous.
const maxRecursion = 32

// Reveal runs the Sec. 4 revelation process for a candidate pair (X, Y):
// trace Y; if the trace ends X, H1..Hn, Y the hops are revealed; recurse
// toward the hop nearest X until nothing new appears or the trace no
// longer passes through X.
func Reveal(p *probe.Prober, x, y netaddr.Addr) *Revelation {
	rev := &Revelation{Ingress: x, Egress: y}
	known := map[netaddr.Addr]bool{x: true, y: true}
	target := y

	for iter := 0; iter < maxRecursion; iter++ {
		tr := p.Traceroute(target)
		rev.Probes++
		newHops := hopsBetween(tr, x, target, known)
		if newHops == nil {
			break
		}
		rev.Steps = append(rev.Steps, len(newHops))
		for _, h := range newHops {
			known[h] = true
		}
		// The newly revealed hops sit between X and the previous batch.
		rev.Hops = append(newHops, rev.Hops...)
		target = newHops[0]
	}

	rev.Technique = classify(rev.Steps, len(rev.Hops))
	return rev
}

// hopsBetween extracts the responding addresses strictly between x and
// target from a completed trace, in path order, dropping already-known
// ones. It returns nil when the trace failed, did not pass through x, did
// not reach target, or revealed nothing new.
func hopsBetween(tr *probe.Trace, x, target netaddr.Addr, known map[netaddr.Addr]bool) []netaddr.Addr {
	if !tr.Reached {
		return nil
	}
	seq := make([]netaddr.Addr, 0, len(tr.Hops))
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			seq = append(seq, h.Addr)
		}
	}
	xi := -1
	ti := -1
	for i, a := range seq {
		if a == x && xi < 0 {
			xi = i
		}
		if a == target {
			ti = i
		}
	}
	if xi < 0 || ti < 0 || ti <= xi {
		return nil
	}
	var out []netaddr.Addr
	for _, a := range seq[xi+1 : ti] {
		if !known[a] {
			// Marking as we emit also dedupes within this trace: a
			// reconvergence loop (A B A B ...) captured mid-churn must not
			// inject the same LSR twice into the revealed path.
			known[a] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// classify maps the per-step revelation counts to a technique label.
func classify(steps []int, total int) Technique {
	switch {
	case total == 0:
		return TechNone
	case total == 1:
		return TechEither
	}
	if len(steps) == 1 {
		return TechDPR // everything in one extra trace
	}
	for _, s := range steps {
		if s != 1 {
			return TechHybrid
		}
	}
	return TechBRPR
}

// --- Length analyses ---

// RFASample is one Return-Forward Asymmetry observation for FRPLA.
type RFASample struct {
	// Hop is the observed interface the sample is about.
	Hop netaddr.Addr
	// Forward is the probe TTL at which the hop answered: the forward
	// path length, underestimating across invisible tunnels.
	Forward int
	// Return is the reply path length inferred from the reply TTL and the
	// router's (rounded) initial TTL, counting the responder itself so
	// that a symmetric path yields RFA 0; it includes return tunnel hops
	// when the min copy applies.
	Return int
}

// RFA returns the asymmetry (return minus forward length).
func (s RFASample) RFA() int { return s.Return - s.Forward }

// FRPLA derives an RFA sample from a traceroute hop. initialTTL is the
// router's inferred time-exceeded initial TTL (255 for Cisco/Juniper;
// fingerprinting supplies it). ok is false for anonymous hops, for
// replies that are not time-exceeded (a destination's echo reply starts
// from its echo initial TTL, which may differ), and for reply TTLs above
// initialTTL.
func FRPLA(h probe.Hop, initialTTL uint8) (RFASample, bool) {
	if h.Anonymous() || h.ICMPType != packet.ICMPTimeExceeded || initialTTL == 0 || h.ReplyTTL > initialTTL {
		return RFASample{}, false
	}
	return RFASample{
		Hop:     h.Addr,
		Forward: int(h.ProbeTTL),
		Return:  int(initialTTL-h.ReplyTTL) + 1,
	}, true
}

// RTLA computes the return tunnel length for a <255,64>-signature router
// from the reply TTLs of a time-exceeded (traceroute hop) and an
// echo-reply (ping) elicited from the same address: the time-exceeded
// return length counts the return LSP (min copy), the echo return length
// does not (64 stays below the LSE TTL), and the gap is the tunnel.
func RTLA(teReplyTTL, echoReplyTTL uint8) int {
	teLen := int(255) - int(teReplyTTL)
	echoLen := int(64) - int(echoReplyTTL)
	return teLen - echoLen
}

// --- Candidate extraction ---

// Candidate is a suspected invisible-tunnel endpoint pair taken from a
// trace per Sec. 4: the two responding hops X, Y immediately preceding the
// destination D.
type Candidate struct {
	Ingress, Egress probe.Hop
}

// CandidateFromTrace inspects the last three responding hops X, Y, D of a
// completed trace and returns (X, Y). ok is false when the trace is too
// short or did not complete.
func CandidateFromTrace(tr *probe.Trace) (Candidate, bool) {
	if !tr.Reached {
		return Candidate{}, false
	}
	var resp []probe.Hop
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			resp = append(resp, h)
		}
	}
	if len(resp) < 3 {
		return Candidate{}, false
	}
	d := resp[len(resp)-1]
	y := resp[len(resp)-2]
	x := resp[len(resp)-3]
	if d.ICMPType != packet.ICMPEchoReply && d.ICMPType != packet.ICMPDestUnreach {
		return Candidate{}, false
	}
	if x.Addr == y.Addr || y.Addr == d.Addr {
		// A reconvergence transient can make consecutive TTLs hit the same
		// router; a degenerate X==Y (or Y==D) pair would send the
		// revelation walking between an address and itself.
		return Candidate{}, false
	}
	return Candidate{Ingress: x, Egress: y}, true
}
