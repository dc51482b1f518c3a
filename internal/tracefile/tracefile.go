// Package tracefile persists and reloads campaign datasets — traces,
// fingerprints, revelations — as JSON, the role the paper's published
// dataset (and scamper's warts files) play: analyses can rerun offline
// without re-probing.
package tracefile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"wormhole/internal/fingerprint"
	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
)

// Format versioning: bump on breaking schema changes.
const formatVersion = 1

// Header opens every dataset file.
type Header struct {
	Format  int    `json:"format"`
	Tool    string `json:"tool"`
	Comment string `json:"comment,omitempty"`
}

// Hop mirrors probe.Hop with stringly addresses for stable JSON.
type Hop struct {
	ProbeTTL uint8         `json:"probe_ttl"`
	Addr     string        `json:"addr,omitempty"`
	RTTNs    time.Duration `json:"rtt_ns,omitempty"`
	ReplyTTL uint8         `json:"reply_ttl,omitempty"`
	ICMPType uint8         `json:"icmp_type"`
	ICMPCode uint8         `json:"icmp_code,omitempty"`
	Labels   []LSE         `json:"labels,omitempty"`
}

// LSE is a serialized label stack entry.
type LSE struct {
	Label uint32 `json:"label"`
	TTL   uint8  `json:"ttl"`
}

// Trace is a serialized traceroute.
type Trace struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Reached bool   `json:"reached"`
	Hops    []Hop  `json:"hops"`
}

// Fingerprint is a serialized TTL signature.
type Fingerprint struct {
	Addr         string `json:"addr"`
	TimeExceeded uint8  `json:"te_initial"`
	EchoReply    uint8  `json:"echo_initial"`
	TEReplyTTL   uint8  `json:"te_reply_ttl"`
	EchoReplyTTL uint8  `json:"echo_reply_ttl"`
	Class        string `json:"class"`
}

// Revelation is a serialized tunnel revelation.
type Revelation struct {
	Ingress   string   `json:"ingress"`
	Egress    string   `json:"egress"`
	Hops      []string `json:"hops,omitempty"`
	Technique string   `json:"technique"`
	Probes    int      `json:"probes"`
	// Steps records the per-iteration probe counts of the recursive
	// revelation (its depth is len(Steps)). Older files omit it; the
	// format version is unchanged because absent means empty.
	Steps []int `json:"steps,omitempty"`
}

// Record pairs a trace with its candidate/revelation context.
type Record struct {
	Trace         Trace       `json:"trace"`
	CandidateAS   uint32      `json:"candidate_as,omitempty"`
	EgressEchoTTL uint8       `json:"egress_echo_ttl,omitempty"`
	Revelation    *Revelation `json:"revelation,omitempty"`
}

// Dataset is a full campaign's output.
type Dataset struct {
	Header       Header        `json:"header"`
	Records      []Record      `json:"records"`
	Fingerprints []Fingerprint `json:"fingerprints"`
}

// NewDataset starts an empty dataset with a well-formed header.
func NewDataset(comment string) *Dataset {
	return &Dataset{Header: Header{Format: formatVersion, Tool: "wormhole", Comment: comment}}
}

// FromFingerprints serializes a fingerprint index in address order.
func FromFingerprints(m map[netaddr.Addr]fingerprint.Result) []Fingerprint {
	var out []Fingerprint
	for _, fp := range sortedFingerprints(m) {
		out = append(out, FromResult(fp))
	}
	return out
}

// FromResult serializes one fingerprint.
func FromResult(fp fingerprint.Result) Fingerprint {
	return Fingerprint{
		Addr:         fp.Addr.String(),
		TimeExceeded: fp.Signature.TimeExceeded,
		EchoReply:    fp.Signature.EchoReply,
		TEReplyTTL:   fp.TEReplyTTL,
		EchoReplyTTL: fp.EchoReplyTTL,
		Class:        fp.Class.String(),
	}
}

func sortedFingerprints(m map[netaddr.Addr]fingerprint.Result) []fingerprint.Result {
	keys := make([]netaddr.Addr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: small n, no extra imports
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]fingerprint.Result, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// FromTrace serializes a traceroute.
func FromTrace(tr *probe.Trace) Trace {
	out := Trace{Src: tr.Src.String(), Dst: tr.Dst.String(), Reached: tr.Reached}
	for _, h := range tr.Hops {
		sh := Hop{
			ProbeTTL: h.ProbeTTL,
			RTTNs:    h.RTT,
			ReplyTTL: h.ReplyTTL,
			ICMPType: h.ICMPType,
			ICMPCode: h.ICMPCode,
		}
		if !h.Anonymous() {
			sh.Addr = h.Addr.String()
		}
		for _, lse := range h.MPLS {
			sh.Labels = append(sh.Labels, LSE{Label: lse.Label, TTL: lse.TTL})
		}
		out.Hops = append(out.Hops, sh)
	}
	return out
}

// FromRevelation serializes a tunnel revelation.
func FromRevelation(r *reveal.Revelation) Revelation {
	out := Revelation{
		Ingress:   r.Ingress.String(),
		Egress:    r.Egress.String(),
		Technique: r.Technique.String(),
		Probes:    r.Probes,
		Steps:     r.Steps,
	}
	for _, h := range r.Hops {
		out.Hops = append(out.Hops, h.String())
	}
	return out
}

// ToTrace reverses fromTrace.
func (t Trace) ToTrace() (*probe.Trace, error) {
	src, err := netaddr.ParseAddr(t.Src)
	if err != nil {
		return nil, fmt.Errorf("tracefile: bad src: %w", err)
	}
	dst, err := netaddr.ParseAddr(t.Dst)
	if err != nil {
		return nil, fmt.Errorf("tracefile: bad dst: %w", err)
	}
	out := &probe.Trace{Src: src, Dst: dst, Reached: t.Reached}
	for _, h := range t.Hops {
		ph := probe.Hop{
			ProbeTTL: h.ProbeTTL,
			RTT:      h.RTTNs,
			ReplyTTL: h.ReplyTTL,
			ICMPType: h.ICMPType,
			ICMPCode: h.ICMPCode,
		}
		if h.Addr != "" {
			if ph.Addr, err = netaddr.ParseAddr(h.Addr); err != nil {
				return nil, fmt.Errorf("tracefile: bad hop addr: %w", err)
			}
		}
		for _, l := range h.Labels {
			ph.MPLS = append(ph.MPLS, packet.LSE{Label: l.Label, TTL: l.TTL})
		}
		out.Hops = append(out.Hops, ph)
	}
	return out, nil
}

// Write streams the dataset as line-delimited JSON: one header line, then
// one line per record, then one line per fingerprint (large datasets load
// incrementally).
func Write(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(line{Header: &ds.Header}); err != nil {
		return err
	}
	for i := range ds.Records {
		if err := enc.Encode(line{Record: &ds.Records[i]}); err != nil {
			return err
		}
	}
	for i := range ds.Fingerprints {
		if err := enc.Encode(line{Fingerprint: &ds.Fingerprints[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// line is the tagged union used per JSONL line.
type line struct {
	Header      *Header      `json:"header,omitempty"`
	Record      *Record      `json:"record,omitempty"`
	Fingerprint *Fingerprint `json:"fingerprint,omitempty"`
}

// Read parses a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	ds := &Dataset{}
	sawHeader := false
	for {
		var l line
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("tracefile: %w", err)
		}
		switch {
		case l.Header != nil:
			if l.Header.Format != formatVersion {
				return nil, fmt.Errorf("tracefile: unsupported format %d", l.Header.Format)
			}
			ds.Header = *l.Header
			sawHeader = true
		case l.Record != nil:
			ds.Records = append(ds.Records, *l.Record)
		case l.Fingerprint != nil:
			ds.Fingerprints = append(ds.Fingerprints, *l.Fingerprint)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("tracefile: missing header")
	}
	return ds, nil
}

// Save writes the dataset to a file.
func Save(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, ds); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
