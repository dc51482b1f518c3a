package tracefile_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/reveal"
	"wormhole/internal/tracefile"
)

func smallCampaign(t *testing.T) *campaign.Campaign {
	t.Helper()
	p := gen.DefaultParams(404)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 4, 8, 4
	p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac = 1.0, 0.8, 0
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Run(in, campaign.DefaultConfig())
}

func TestRoundTrip(t *testing.T) {
	c := smallCampaign(t)
	ds := c.Dataset("unit test")
	if len(ds.Records) == 0 || len(ds.Fingerprints) == 0 {
		t.Fatalf("empty dataset: %d records %d fingerprints", len(ds.Records), len(ds.Fingerprints))
	}

	var buf bytes.Buffer
	if err := tracefile.Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := tracefile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(ds.Records) {
		t.Fatalf("records %d -> %d", len(ds.Records), len(back.Records))
	}
	if len(back.Fingerprints) != len(ds.Fingerprints) {
		t.Fatalf("fingerprints %d -> %d", len(ds.Fingerprints), len(back.Fingerprints))
	}
	if back.Header.Comment != "unit test" {
		t.Errorf("comment = %q", back.Header.Comment)
	}
	for i := range ds.Records {
		a, b := ds.Records[i], back.Records[i]
		if a.Trace.Dst != b.Trace.Dst || len(a.Trace.Hops) != len(b.Trace.Hops) {
			t.Fatalf("record %d differs", i)
		}
		if (a.Revelation == nil) != (b.Revelation == nil) {
			t.Fatalf("record %d revelation presence differs", i)
		}
		if a.Revelation != nil && a.Revelation.Technique != b.Revelation.Technique {
			t.Fatalf("record %d technique differs", i)
		}
	}
}

func TestTraceConversionRoundTrip(t *testing.T) {
	c := smallCampaign(t)
	for _, rec := range c.Records[:10] {
		st := tracefile.FromTrace(rec.Trace)
		back, err := st.ToTrace()
		if err != nil {
			t.Fatal(err)
		}
		if back.Src != rec.Trace.Src || back.Dst != rec.Trace.Dst || back.Reached != rec.Trace.Reached {
			t.Fatal("trace metadata changed")
		}
		for i, h := range rec.Trace.Hops {
			bh := back.Hops[i]
			if bh.Addr != h.Addr || bh.ReplyTTL != h.ReplyTTL || bh.RTT != h.RTT ||
				bh.ICMPType != h.ICMPType || len(bh.MPLS) != len(h.MPLS) {
				t.Fatalf("hop %d changed: %+v vs %+v", i, bh, h)
			}
		}
	}
}

// TestFingerprintConversionRoundTrip pins the fingerprint lines: each
// serializes its fingerprint's fields, in address order, and reads back
// from a written dataset unchanged.
func TestFingerprintConversionRoundTrip(t *testing.T) {
	c := smallCampaign(t)
	ds := tracefile.NewDataset("fingerprints")
	ds.Fingerprints = tracefile.FromFingerprints(c.Fingerprints)
	if len(ds.Fingerprints) != len(c.Fingerprints) {
		t.Fatalf("%d fingerprints serialized of %d", len(ds.Fingerprints), len(c.Fingerprints))
	}
	var prev netaddr.Addr
	for i, sf := range ds.Fingerprints {
		a, err := netaddr.ParseAddr(sf.Addr)
		if err != nil || i > 0 && a <= prev {
			t.Fatalf("fingerprint %d: address %q malformed or out of order", i, sf.Addr)
		}
		prev = a
		fp := c.Fingerprints[a]
		if fp.Class.String() != sf.Class || fp.Signature.TimeExceeded != sf.TimeExceeded ||
			fp.Signature.EchoReply != sf.EchoReply || fp.TEReplyTTL != sf.TEReplyTTL || fp.EchoReplyTTL != sf.EchoReplyTTL {
			t.Fatalf("fingerprint mangled: %+v vs %+v", sf, fp)
		}
	}
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := tracefile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Fingerprints, ds.Fingerprints) {
		t.Fatal("fingerprints changed through Write and Read")
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := smallCampaign(t)
	ds := c.Dataset("file test")
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := tracefile.Save(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(ds.Records) {
		t.Fatalf("records %d -> %d", len(ds.Records), len(back.Records))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := tracefile.Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := tracefile.Read(strings.NewReader(`{"record":{}}`)); err == nil {
		t.Error("headerless stream accepted")
	}
	if _, err := tracefile.Read(strings.NewReader(`{"header":{"format":99}}`)); err == nil {
		t.Error("future format accepted")
	}
}

func TestToTraceRejectsBadAddrs(t *testing.T) {
	bad := tracefile.Trace{Src: "x", Dst: "10.0.0.1"}
	if _, err := bad.ToTrace(); err == nil {
		t.Error("bad src accepted")
	}
	bad = tracefile.Trace{Src: "10.0.0.1", Dst: "10.0.0.2", Hops: []tracefile.Hop{{Addr: "nope"}}}
	if _, err := bad.ToTrace(); err == nil {
		t.Error("bad hop accepted")
	}
}

func TestRevelationSerialization(t *testing.T) {
	c := smallCampaign(t)
	found := false
	for _, rev := range c.Revelations() {
		if rev.Technique == reveal.TechNone || len(rev.Hops) == 0 {
			continue
		}
		sr := tracefile.FromRevelation(rev)
		if sr.Ingress != rev.Ingress.String() || len(sr.Hops) != len(rev.Hops) {
			t.Fatalf("revelation mangled: %+v", sr)
		}
		if len(sr.Steps) != len(rev.Steps) {
			t.Fatalf("steps dropped: %v vs %v", sr.Steps, rev.Steps)
		}
		if sr.Egress != rev.Egress.String() || sr.Technique != rev.Technique.String() || sr.Probes != rev.Probes {
			t.Fatalf("revelation mangled: %+v vs %+v", sr, rev)
		}
		found = true
		break
	}
	if !found {
		t.Skip("no successful revelation in this seed")
	}
}
