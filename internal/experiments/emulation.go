package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"wormhole/internal/anomaly"
	"wormhole/internal/fingerprint"
	"wormhole/internal/lab"
	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/router"
)

// renderTrace prints a trace in the paper's paris-traceroute style:
//
//	3  P1.left [247]
//	   MPLS Label 19 TTL=1
func renderTrace(l *lab.Lab, tr *probe.Trace) string {
	names := map[netaddr.Addr]string{
		l.CE1Left: "CE1.left", l.PE1Left: "PE1.left", l.P1Left: "P1.left",
		l.P2Left: "P2.left", l.P3Left: "P3.left", l.PE2Left: "PE2.left",
		l.CE2Left: "CE2.left", l.CE2Lo: "CE2.lo", l.PE2Lo: "PE2.lo",
	}
	var sb strings.Builder
	for _, h := range tr.Hops {
		if h.Anonymous() {
			fmt.Fprintf(&sb, "%2d  *\n", h.ProbeTTL)
			continue
		}
		name := names[h.Addr]
		if name == "" {
			name = h.Addr.String()
		}
		fmt.Fprintf(&sb, "%2d  %-10s [%d]\n", h.ProbeTTL, name, h.ReplyTTL)
		for _, lse := range h.MPLS {
			fmt.Fprintf(&sb, "      MPLS Label %d TTL=%d\n", lse.Label, lse.TTL)
		}
	}
	return sb.String()
}

// Fig4Emulation regenerates the four Fig. 4 traces (and implicitly Fig. 2,
// whose topology it runs on).
func Fig4Emulation() (*Report, error) {
	var sb strings.Builder
	type run struct {
		scenario lab.Scenario
		caption  string
		targets  func(l *lab.Lab) []netaddr.Addr
	}
	runs := []run{
		{lab.Default, "(a) Default configuration: explicit tunnel",
			func(l *lab.Lab) []netaddr.Addr { return []netaddr.Addr{l.CE2Left} }},
		{lab.BackwardRecursive, "(b) Backward recursive: invisible tunnel, BRPR recursion",
			func(l *lab.Lab) []netaddr.Addr {
				return []netaddr.Addr{l.CE2Left, l.PE2Left, l.P3Left, l.P2Left, l.P1Left}
			}},
		{lab.ExplicitRoute, "(c) Explicit route: DPR in a single probe",
			func(l *lab.Lab) []netaddr.Addr { return []netaddr.Addr{l.CE2Left, l.PE2Left} }},
		{lab.TotallyInvisible, "(d) Totally invisible (UHP)",
			func(l *lab.Lab) []netaddr.Addr { return []netaddr.Addr{l.CE2Left, l.PE2Left} }},
	}
	shapeOK := true
	for _, r := range runs {
		l, err := lab.Build(lab.Options{Scenario: r.scenario})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "%s\n", r.caption)
		for _, dst := range r.targets(l) {
			tr := l.Prober.Traceroute(dst)
			fmt.Fprintf(&sb, "$ pt %s\n%s\n", dst, renderTrace(l, tr))
			if !tr.Reached {
				shapeOK = false
			}
		}
	}
	check := "all traces completed; golden hop/TTL values asserted in internal/lab tests"
	if !shapeOK {
		check = "FAILED: some traces did not complete"
	}
	return &Report{ID: "fig4", Title: "Emulation results for each basic configuration", Text: sb.String(), Check: check}, nil
}

// Table1Signatures regenerates Table 1 by fingerprinting one router of
// each personality on a live testbed.
func Table1Signatures() (*Report, error) {
	rows := [][]string{}
	personalities := []struct {
		p     router.Personality
		brand string
	}{
		{router.Cisco, "Cisco (IOS, IOS XR)"},
		{router.Juniper, "Juniper (Junos)"},
		{router.JunosE, "Juniper (JunosE)"},
		{router.Legacy, "Brocade, Alcatel, Linux"},
	}
	ok := true
	for _, pc := range personalities {
		l, err := lab.Build(lab.Options{Scenario: lab.Default, AS2Personality: pc.p})
		if err != nil {
			return nil, err
		}
		// P1 answers probe TTL 3 with a time-exceeded; the fingerprinter
		// pings it for the echo half.
		p1 := hopAt(l.Prober.Traceroute(l.CE2Left), l.P1Left)
		res, found := fingerprint.New(l.Prober).FromHop(p1)
		if !found {
			ok = false
			continue
		}
		sig := res.Signature
		if sig != (fingerprint.Signature{TimeExceeded: pc.p.TimeExceededTTL, EchoReply: pc.p.EchoReplyTTL}) {
			ok = false
		}
		rows = append(rows, []string{fmt.Sprintf("<%d, %d>", sig.TimeExceeded, sig.EchoReply), pc.brand})
	}
	check := "all four signatures recovered exactly"
	if !ok {
		check = "FAILED: signature mismatch"
	}
	return &Report{
		ID:    "table1",
		Title: "Summary of main router signatures",
		Text:  table([]string{"Router Signature", "Router Brand and OS"}, rows),
		Check: check,
	}, nil
}

// Table2Visibility regenerates Table 2: for every combination of LDP
// advertising policy, TTL propagation policy, LER signature and target
// scope, classify what traceroute sees and which technique applies.
func Table2Visibility() (*Report, error) {
	type combo struct {
		ldp        router.LDPPolicy
		propagate  bool
		juniperLER bool
		internal   bool
	}
	classify := func(c combo) (string, error) {
		opts := lab.Options{Scenario: lab.BackwardRecursive, PE2Personality: router.Cisco}
		switch {
		case c.ldp == router.LDPHostRoutesOnly:
			// A propagating host-routes network is ExplicitRoute with
			// ttl-propagate switched back on after the build.
			opts.Scenario = lab.ExplicitRoute
		case c.propagate:
			opts.Scenario = lab.Default
		}
		if c.juniperLER {
			// RTLA needs a <255,64> egress.
			opts.PE2Personality = router.Juniper
		}
		l, err := lab.Build(opts)
		if err != nil {
			return "", err
		}
		if c.ldp == router.LDPHostRoutesOnly && c.propagate {
			for _, r := range []*router.Router{l.PE1, l.P1, l.P2, l.P3, l.PE2} {
				cfg := r.Config()
				cfg.TTLPropagate = true
				r.SetConfig(cfg)
			}
		}
		target := l.CE2Left
		if c.internal {
			target = l.PE2Left
		}
		tr := l.Prober.Traceroute(target)

		labeled := false
		sawP := false
		for _, h := range tr.Hops {
			if h.Labeled() {
				labeled = true
			}
			if h.Addr == l.P1Left || h.Addr == l.P2Left || h.Addr == l.P3Left {
				sawP = true
			}
		}
		switch {
		case labeled:
			return t2Explicit, nil
		case sawP:
			return t2Route, nil
		}
		// Invisible: check FRPLA shift and RTLA gap on the egress.
		shift, gap := egressSignals(l, hopAt(tr, l.PE2Left), opts.PE2Personality)
		switch {
		case shift && gap:
			return t2ShiftGap, nil
		case shift:
			return t2Shift, nil
		default:
			return "invisible LSP (no shift)", nil
		}
	}

	header := []string{"LDP policy", "target", "ttl-propagate", "no-ttl-prop <255,255>", "no-ttl-prop <255,64>"}
	var rows [][]string
	for _, ldpPol := range []router.LDPPolicy{router.LDPAllPrefixes, router.LDPHostRoutesOnly} {
		for _, internal := range []bool{false, true} {
			target := "external"
			if internal {
				target = "internal"
			}
			cells := []string{ldpPol.String(), target}
			for _, variant := range []struct {
				propagate, juniper bool
			}{{true, false}, {false, false}, {false, true}} {
				out, err := classify(combo{ldp: ldpPol, propagate: variant.propagate, juniperLER: variant.juniper, internal: internal})
				if err != nil {
					return nil, err
				}
				cells = append(cells, out)
			}
			rows = append(rows, cells)
		}
	}
	check := "propagating cells explicit except host-routes internal (route without labels); " +
		"no-propagate external cells show the FRPLA shift, the RTLA gap only at <255,64>; " +
		"no-propagate internal cells are routes without labels"
	if !table2Shape(rows) {
		check = "FAILED: a cell departs from the expected classification"
	}
	return &Report{
		ID:    "table2",
		Title: "Visibility effects of basic MPLS configurations",
		Text:  table(header, rows),
		Check: check,
	}, nil
}

// Table 2's cell classifications.
const (
	t2Explicit = "explicit LSP (no shift, no gap)"
	t2Route    = "route without labels (DPR/BRPR)"
	t2Shift    = "invisible LSP (shift FRPLA, no gap)"
	t2ShiftGap = "invisible LSP (shift FRPLA, gap RTLA)"
)

// table2Shape reports whether every cell of Table 2's rows (LDP policy,
// target, then the ttl-propagate, <255,255> and <255,64> columns) holds
// the classification EXPERIMENTS.md states: propagating cells are
// explicit, except host-routes internal, which is a route without labels;
// no-propagate external cells show the FRPLA shift, and the RTLA gap
// appears in the <255,64> external cells and nowhere else; no-propagate
// internal cells are routes without labels.
func table2Shape(rows [][]string) bool {
	for _, row := range rows {
		want := []string{t2Explicit, t2Shift, t2ShiftGap}
		if row[1] == "internal" {
			want = []string{t2Explicit, t2Route, t2Route}
			if row[0] == router.LDPHostRoutesOnly.String() {
				want[0] = t2Route
			}
		}
		if !slices.Equal(row[2:], want) {
			return false
		}
	}
	return true
}

// Fig6RTTCorrection regenerates Fig. 6: the RTT staircase across an
// invisible tunnel whose interior links are slow. The delay-anomaly
// detector runs the augmented traceroute across it and attributes the one
// large RTT jump to the hidden LSRs it reveals there.
func Fig6RTTCorrection() (*Report, error) {
	l, findings, at, err := fig6Detect()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString("augmented trace:\n")
	for _, h := range at.Hops {
		if h.Anonymous() {
			continue
		}
		fmt.Fprintf(&sb, "  hop %2d  %-14s rtt=%v\n", h.ProbeTTL, h.Addr, h.RTT)
		for _, a := range h.Hidden {
			fmt.Fprintf(&sb, "          %-14s revealed\n", a)
		}
	}
	check := fmt.Sprintf("FAILED: %d delay jumps, want one", len(findings))
	if len(findings) == 1 {
		f := findings[0]
		check = fmt.Sprintf("the %v jump after %s decomposes across %d revealed hops, ~%v per link", f.Jump, f.After, f.HiddenHops, f.PerHop)
		if f.Attribution != anomaly.InvisibleTunnel || f.After != l.PE1Left || f.HiddenHops != 3 || f.PerHop >= f.Jump {
			check = fmt.Sprintf("FAILED: attributed %s: %s", f.Attribution, check)
		}
	}
	return &Report{ID: "fig6", Title: "RTT correction with hop revelation", Text: sb.String(), Check: check}, nil
}

// fig6Detect builds Fig. 6's testbed, an invisible tunnel over 8 ms
// links, and runs the delay-anomaly detector to CE2 across it.
func fig6Detect() (*lab.Lab, []anomaly.Finding, *reveal.AugmentedTrace, error) {
	l, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive, TunnelDelay: 8 * time.Millisecond})
	if err != nil {
		return nil, nil, nil, err
	}
	findings, at := anomaly.Detect(l.Prober, l.CE2Left, 10*time.Millisecond)
	return l, findings, at, nil
}

// hopAt returns the hop of tr that replied from addr, or an anonymous hop
// if none did.
func hopAt(tr *probe.Trace, addr netaddr.Addr) probe.Hop {
	for _, h := range tr.Hops {
		if h.Addr == addr {
			return h
		}
	}
	return probe.Hop{}
}

// egressSignals reports the two signals an invisible tunnel leaves on its
// egress LER's hop: the FRPLA shift (a return path longer than the
// forward one) and, when the LER's echo and time-exceeded initial TTLs
// differ, the RTLA gap between a ping to PE2 and the hop's reply.
func egressSignals(l *lab.Lab, egress probe.Hop, pers router.Personality) (shift, gap bool) {
	if egress.Anonymous() {
		return false, false
	}
	s, ok := reveal.FRPLA(egress, pers.TimeExceededTTL)
	shift = ok && s.RFA() > 0
	if pers.EchoReplyTTL != pers.TimeExceededTTL {
		echo, ok := l.Prober.Ping(l.PE2Left, 64)
		gap = ok && reveal.RTLA(egress.ReplyTTL, echo.ReplyTTL) > 0
	}
	return shift, gap
}

// Table6Applicability regenerates Table 6: which techniques fire for the
// two default vendor configurations.
func Table6Applicability() (*Report, error) {
	type outcome struct{ frpla, rtla, dpr, brpr bool }
	analyze := func(scenario lab.Scenario, pers router.Personality) (outcome, error) {
		var o outcome
		l, err := lab.Build(lab.Options{Scenario: scenario, AS2Personality: pers})
		if err != nil {
			return o, err
		}
		egress := hopAt(l.Prober.Traceroute(l.CE2Left), l.PE2Left)
		o.frpla, o.rtla = egressSignals(l, egress, pers)
		rev := reveal.Reveal(l.Prober, l.PE1Left, l.PE2Left)
		switch rev.Technique {
		case reveal.TechDPR:
			o.dpr = true
		case reveal.TechBRPR:
			o.brpr = true
		case reveal.TechEither, reveal.TechHybrid:
			o.dpr, o.brpr = true, true
		}
		return o, nil
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	cisco, err := analyze(lab.BackwardRecursive, router.Cisco)
	if err != nil {
		return nil, err
	}
	jun, err := analyze(lab.ExplicitRoute, router.Juniper)
	if err != nil {
		return nil, err
	}
	rows := [][]string{
		{"Cisco", "all prefixes", "PHP", mark(cisco.frpla), mark(cisco.rtla), mark(cisco.dpr), mark(cisco.brpr)},
		{"Juniper", "loopback", "PHP", mark(jun.frpla), mark(jun.rtla), mark(jun.dpr), mark(jun.brpr)},
	}
	ok := cisco.frpla && cisco.brpr && !cisco.rtla && jun.rtla && jun.dpr
	check := "Cisco row triggers FRPLA+BRPR; Juniper row triggers RTLA+DPR (and FRPLA), matching Table 6"
	if !ok {
		check = "FAILED: applicability matrix diverges from Table 6"
	}
	return &Report{
		ID:    "table6",
		Title: "Measurement techniques applicability",
		Text:  table([]string{"Brand", "LDP", "Popping", "FRPLA", "RTLA", "DPR", "BRPR"}, rows),
		Check: check,
	}, nil
}
