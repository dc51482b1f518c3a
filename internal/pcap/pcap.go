// Package pcap writes simulator traffic as standard libpcap capture
// files (Ethernet link type, ethertype 0x0800 for IP and 0x8847 for MPLS
// unicast), so captures taken from the fabric can be opened by ordinary
// tooling. It exists both as a debugging aid and as the proof that the
// wire encodings in internal/packet are the real formats.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

const (
	magicMicros   = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	linkEthernet  = 1
	etherTypeIPv4 = 0x0800
	etherTypeMPLS = 0x8847
	snapLen       = 65535
)

// Writer emits one pcap stream.
type Writer struct {
	w        io.Writer
	wroteHdr bool
	// Packets counts frames written.
	Packets int
}

// NewWriter wraps w; the file header is written lazily with the first
// packet.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (pw *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket serializes pkt at virtual time ts and appends it as one
// Ethernet frame.
func (pw *Writer) WritePacket(ts time.Duration, pkt *packet.Packet) error {
	if !pw.wroteHdr {
		if err := pw.writeHeader(); err != nil {
			return err
		}
		pw.wroteHdr = true
	}
	body, err := pkt.Serialize()
	if err != nil {
		return fmt.Errorf("pcap: %w", err)
	}
	etherType := uint16(etherTypeIPv4)
	if pkt.Labeled() {
		etherType = etherTypeMPLS
	}
	frame := make([]byte, 14+len(body))
	// Zero MACs; real enough for dissectors.
	binary.BigEndian.PutUint16(frame[12:], etherType)
	copy(frame[14:], body)

	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ts%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(frame)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := pw.w.Write(frame); err != nil {
		return err
	}
	pw.Packets++
	return nil
}

// Attach hooks the writer into a network's trace callback, capturing every
// delivery. It returns the previous trace hook so callers can chain.
func Attach(net *netsim.Network, pw *Writer) func(time.Duration, *netsim.Iface, *packet.Packet) {
	prev := net.Trace
	net.Trace = func(ts time.Duration, to *netsim.Iface, pkt *packet.Packet) {
		// Capture errors are unrecoverable mid-simulation; drop the frame
		// but keep simulating (matching tcpdump's behaviour on a full
		// disk would abort the experiment instead).
		_ = pw.WritePacket(ts, pkt)
		if prev != nil {
			prev(ts, to, pkt)
		}
	}
	return prev
}

// Record is one parsed capture record (reader side, used by tests).
type Record struct {
	TS        time.Duration
	EtherType uint16
	Packet    *packet.Packet
}

// Read parses a capture produced by Writer.
func Read(r io.Reader) ([]Record, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicros {
		return nil, fmt.Errorf("pcap: bad magic")
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	var out []Record
	for {
		var rec [16]byte
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("pcap: short record header: %w", err)
		}
		caplen := binary.LittleEndian.Uint32(rec[8:])
		frame := make([]byte, caplen)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("pcap: short frame: %w", err)
		}
		if len(frame) < 14 {
			return nil, fmt.Errorf("pcap: frame below Ethernet header size")
		}
		ts := time.Duration(binary.LittleEndian.Uint32(rec[0:]))*time.Second +
			time.Duration(binary.LittleEndian.Uint32(rec[4:]))*time.Microsecond
		etherType := binary.BigEndian.Uint16(frame[12:])
		pkt, err := packet.Decode(frame[14:], etherType == etherTypeMPLS)
		if err != nil {
			return nil, fmt.Errorf("pcap: frame %d: %w", len(out), err)
		}
		out = append(out, Record{TS: ts, EtherType: etherType, Packet: pkt})
	}
}
