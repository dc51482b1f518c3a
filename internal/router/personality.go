// Package router implements the emulated router data plane: IP forwarding
// with TTL handling, the MPLS label operations (push/swap/pop, PHP and UHP,
// RFC 3443 TTL propagation and the stateless min-TTL loop guard), and ICMP
// generation including RFC 4950 label-stack quoting and the
// "time-exceeded messages generated inside a tunnel are first forwarded to
// the end of the tunnel" behaviour the paper's return-TTL analysis relies
// on.
package router

import "time"

// Personality captures the per-OS behaviours that the paper's
// fingerprinting (Table 1) and techniques distinguish.
type Personality struct {
	Name string

	// TimeExceededTTL is the initial IP TTL of ICMP time-exceeded (and
	// destination-unreachable) messages the router originates.
	TimeExceededTTL uint8
	// EchoReplyTTL is the initial IP TTL of ICMP echo replies.
	EchoReplyTTL uint8

	// RFC4950 controls whether ICMP errors generated for labeled packets
	// quote the MPLS label stack.
	RFC4950 bool

	// MinOnPop enables the stateless min(IP-TTL, LSE-TTL) copy at
	// penultimate-hop pop (RFC 3443 §5.4; "the min behavior" in the paper).
	MinOnPop bool

	// ReplyFromOutgoing sources ICMP destination-unreachable replies from
	// the interface facing the prober instead of the probed address — the
	// classic router behaviour Mercator-style alias resolution exploits.
	ReplyFromOutgoing bool
}

// The four signature rows of Table 1.
var (
	// Cisco models IOS / IOS XR: <255, 255>. IOS sources unreachables
	// from the outgoing interface, which is what makes Mercator-style
	// alias resolution work against it.
	Cisco = Personality{Name: "cisco", TimeExceededTTL: 255, EchoReplyTTL: 255, RFC4950: true, MinOnPop: true, ReplyFromOutgoing: true}
	// Juniper models Junos: <255, 64>. The echo/TE gap is what RTLA exploits.
	Juniper = Personality{Name: "juniper", TimeExceededTTL: 255, EchoReplyTTL: 64, RFC4950: true, MinOnPop: true}
	// JunosE models Juniper E-series: <128, 128>.
	JunosE = Personality{Name: "junose", TimeExceededTTL: 128, EchoReplyTTL: 128, RFC4950: true, MinOnPop: true}
	// Legacy models Brocade/Alcatel/Linux software routers: <64, 64>,
	// typically without RFC 4950 support.
	Legacy = Personality{Name: "legacy", TimeExceededTTL: 64, EchoReplyTTL: 64, RFC4950: false, MinOnPop: true}
)

// LDPPolicy selects which FECs a router allocates and advertises labels
// for (Sec. 2.1 of the paper).
type LDPPolicy uint8

const (
	// LDPAllPrefixes advertises a label for every prefix in the routing
	// table (the Cisco default).
	LDPAllPrefixes LDPPolicy = iota
	// LDPHostRoutesOnly advertises labels for loopback /32s only (the
	// Juniper default, or Cisco with
	// "mpls ldp label allocate global host-routes").
	LDPHostRoutesOnly
)

func (p LDPPolicy) String() string {
	if p == LDPHostRoutesOnly {
		return "host-routes"
	}
	return "all-prefixes"
}

// Config is the per-router configuration surface exercised by the paper's
// four emulation scenarios.
type Config struct {
	// TTLPropagate copies the IP TTL into the pushed LSE TTL at the
	// ingress ("mpls ip propagate-ttl"). Disabling it is what makes a
	// tunnel invisible.
	TTLPropagate bool
	// LDP selects the label advertising policy.
	LDP LDPPolicy
	// UHP makes the router, as an egress, advertise explicit-null so the
	// label is carried to (and popped by) the egress itself.
	UHP bool
	// MPLSEnabled gates all label processing; routers in non-MPLS ASes
	// leave it off.
	MPLSEnabled bool
	// Silent suppresses all locally-originated ICMP (anonymous-hop
	// failure injection).
	Silent bool
	// NoICMPTimeExceeded suppresses only TTL-expiry errors while still
	// answering pings (another behaviour observed in the wild).
	NoICMPTimeExceeded bool
	// ICMPInterval rate-limits locally generated ICMP: at most one
	// message per interval of virtual time (Cisco's default is 1 per
	// 500ms per destination; we model a global token). Zero disables the
	// limit. Campaign code uses this for failure injection — rate-limited
	// routers appear as anonymous hops, as in real traces.
	ICMPInterval time.Duration
}
