package pcap

import (
	"bytes"
	"strings"
	"testing"

	"wormhole/internal/lab"
	"wormhole/internal/packet"
)

// TestCaptureRoundTrip attaches a capture to the testbed, runs a trace
// through the explicit tunnel, and re-parses every frame: the wire
// encodings must survive the trip, labels included.
func TestCaptureRoundTrip(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	Attach(l.Net, pw)

	tr := l.Prober.Traceroute(l.CE2Left)
	if !tr.Reached {
		t.Fatal("trace failed")
	}
	if pw.Packets == 0 {
		t.Fatal("nothing captured")
	}

	records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != pw.Packets {
		t.Fatalf("read %d records, wrote %d", len(records), pw.Packets)
	}

	sawMPLS, sawIP, sawICMPExt := false, false, false
	for _, rec := range records {
		switch rec.EtherType {
		case etherTypeMPLS:
			sawMPLS = true
			if !rec.Packet.Labeled() {
				t.Error("MPLS ethertype without label stack")
			}
		case etherTypeIPv4:
			sawIP = true
			if rec.Packet.Labeled() {
				t.Error("IP ethertype with label stack")
			}
		default:
			t.Errorf("unexpected ethertype %#x", rec.EtherType)
		}
		if rec.Packet.ICMP != nil && rec.Packet.ICMP.Ext != nil {
			sawICMPExt = true
		}
	}
	if !sawMPLS || !sawIP {
		t.Errorf("capture lacked variety: mpls=%v ip=%v", sawMPLS, sawIP)
	}
	if !sawICMPExt {
		t.Error("no RFC4950-extended ICMP captured despite explicit tunnel")
	}

	// Timestamps must be monotonically non-decreasing.
	for i := 1; i < len(records); i++ {
		if records[i].TS < records[i-1].TS {
			t.Fatalf("timestamps regressed at %d", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("short")); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, 24)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestWriterCountsAndHeaderOnce(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	p := &packet.Packet{
		IP:   packet.IPv4{TTL: 4, Protocol: packet.ProtoICMP},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
	}
	for i := 0; i < 3; i++ {
		if err := pw.WritePacket(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if pw.Packets != 3 {
		t.Errorf("Packets = %d", pw.Packets)
	}
	records, err := Read(&buf)
	if err != nil || len(records) != 3 {
		t.Fatalf("read back %d records, err %v", len(records), err)
	}
}

// TestReadLabelsWithIPv4Nibble round-trips labels whose first nibble is 4,
// the version nibble of an IPv4 header: only the frame's ethertype says
// that a label stack comes first.
func TestReadLabelsWithIPv4Nibble(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	labels := []uint32{0x40000, 0x4FFFF}
	for _, label := range labels {
		p := &packet.Packet{
			MPLS: packet.LabelStack{{Label: label, TTL: 7, Bottom: true}},
			IP:   packet.IPv4{TTL: 4, Protocol: packet.ProtoICMP},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
		}
		if err := pw.WritePacket(0, p); err != nil {
			t.Fatal(err)
		}
	}
	records, err := Read(&buf)
	if err != nil || len(records) != len(labels) {
		t.Fatalf("read back %d records, err %v", len(records), err)
	}
	for i, rec := range records {
		if len(rec.Packet.MPLS) != 1 || rec.Packet.MPLS[0].Label != labels[i] || rec.Packet.IP.TTL != 4 {
			t.Errorf("frame %d read back as %v, want label %#x over IP TTL 4", i, rec.Packet, labels[i])
		}
	}
}
