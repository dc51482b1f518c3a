package netsim

import (
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// FuzzLineageBackwardScan fuzzes the backward scan that derives
// smaller-TTL observations from a swept trajectory (sweep.go). The fuzzer
// decodes arbitrary bytes into a synthetic flowEntry — mixed Host and
// router steps, 0–3 label stack entries, arbitrary lineage bits, TTL
// floors — and checks sweepScan against two independent oracles of the
// affine lineage model:
//
//   - a forward reference interpreter that re-derives each patched TTL
//     field as recorded + slope·(ttl − t0) and frames inner-LSE underflow
//     as "the patch newly exhausted a field the walk itself saw alive";
//   - the monotonicity theorem: shrinking the initial TTL only lowers
//     propagated fields, so the expiry step is non-increasing as the
//     derived TTL decreases, and an expiring trajectory can never flip
//     back to reach.
//
// Any disagreement means a derived observation would diverge from what a
// live per-probe run produces — exactly the bug class the equivalence
// golden test would only catch if a campaign happened to hit it. A
// verdict of scanInvalid (fall back to a live probe) is always sound and
// is only checked for agreement, never required.
func FuzzLineageBackwardScan(f *testing.F) {
	// Seeds: a plain unlabeled path, a labeled path with propagated top,
	// a non-propagated tunnel with an inner LSE, a host-only path, and a
	// floor-violating trajectory.
	f.Add([]byte{8, 0, 3, 0x00, 8, 0, 0x00, 7, 0})
	f.Add([]byte{12, 0, 1, 0x0a, 12, 0, 0x1a, 10, 0, 200, 0x1c, 9, 0, 200, 199})
	f.Add([]byte{6, 1, 0, 0x01, 6, 0, 0x04, 5, 0, 255})
	f.Add([]byte{30, 0, 0, 0x08, 30, 25, 0x08, 29, 28})
	f.Add([]byte{0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, ok := decodeFuzzEntry(data)
		if !ok {
			return
		}
		net := New()
		prevExpire := -1 // expiry step at the previous (larger) ttl
		sawExpire := false
		for ttl := int(e.t0) - 1; ttl >= 0; ttl-- {
			got := net.sweepScan(e, uint8(ttl)) // must not panic, whatever the bytes
			want := refScan(e, uint8(ttl))
			if got != want {
				t.Fatalf("ttl %d (t0 %d, %d steps): sweepScan %+v, reference %+v",
					ttl, e.t0, len(e.steps), got, want)
			}
			switch got.kind {
			case scanExpire:
				if sawExpire && got.step > prevExpire {
					t.Fatalf("ttl %d: expiry step %d after step %d at a larger ttl — monotonicity broken",
						ttl, got.step, prevExpire)
				}
				prevExpire, sawExpire = got.step, true
			case scanReach:
				if sawExpire {
					t.Fatalf("ttl %d: reach below a ttl that already expired at step %d", ttl, prevExpire)
				}
			}
		}
	})
}

// decodeFuzzEntry builds a synthetic swept flowEntry from fuzz bytes:
// header [t0, terminalLocal, tailMinT], then per step
// [flags, ipTTL, minT, labelTTLs...] with flags packing the owner kind,
// label count and lineage bits. Returns ok=false when the bytes cannot
// fund a single step.
func decodeFuzzEntry(data []byte) (*flowEntry, bool) {
	if len(data) < 4 {
		return nil, false
	}
	e := &flowEntry{
		t0:            data[0],
		swept:         true,
		terminalLocal: data[1]&1 != 0,
		tailMinT:      data[2],
	}
	hostPfx := netaddr.MustParsePrefix("10.99.0.0/24")
	host := NewHost("fz", hostPfx.Nth(1), hostPfx)
	rtr := &opaqueNode{}
	data = data[3:]
	for len(data) >= 3 && len(e.steps) < 8 {
		flags := data[0]
		nlab := int(flags>>1) & 3
		if len(data) < 3+nlab {
			break
		}
		st := trajStep{
			ip:   packet.IPv4{TTL: data[1]},
			minT: data[2],
		}
		if flags&1 != 0 {
			st.to = &Iface{Owner: host}
		} else {
			st.to = &Iface{Owner: rtr}
		}
		if flags&0x08 != 0 {
			st.lineage |= uint32(1) << 31 // IP TTL propagated
		}
		for i := 0; i < nlab; i++ {
			st.mpls = append(st.mpls, packet.LSE{Label: 100 + uint32(i), TTL: data[3+i]})
			if flags&(0x10<<uint(i)) != 0 {
				st.lineage |= 1 << uint(i)
			}
		}
		e.steps = append(e.steps, st)
		data = data[3+nlab:]
	}
	if len(e.steps) == 0 {
		return nil, false
	}
	return e, true
}

// FuzzUDPSlotClasses fuzzes the UDP port-cycle branch-class algebra that
// lets one walk cover many slots (sweep.go): a walk from some slot
// records its ECMP decisions as (fan-out, index) pairs, and any slot
// whose own flow hash reproduces every index is aliased onto the walk's
// trajectory, with reply shapes keyed on the class's canonical port. The
// fuzzer builds the branch list a walk from an arbitrary slot would
// record — arbitrary flow identity, arbitrary fan-out widths, indices
// from the real packet.FlowHash — and checks the invariants the aliasing
// relies on:
//
//   - reflexivity: the walking slot satisfies its own recording;
//   - the canonical port is an in-cycle slot that itself satisfies the
//     recording (the canonPort scan can never fall through);
//   - class consistency: every satisfying slot would have recorded the
//     identical branch list, and resolves to the identical canonical
//     port — whichever slot of a class walks first, aliases adopt the
//     same trajectory and learn shapes under the same key.
//
// A violation of the last invariant means a reply shape learned under
// one trace could be served to a slot on a different ECMP path — the
// silent cross-path corruption the equivalence goldens would only catch
// if a campaign happened to roll the colliding ports.
func FuzzUDPSlotClasses(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a630007), uint16(0x1234), byte(3), []byte{2, 4, 3})
	f.Add(uint32(0xc0a80101), uint32(0x08080808), uint16(0xbeef), byte(127), []byte{})
	f.Add(uint32(1), uint32(2), uint16(0), byte(0), []byte{16, 16, 2, 5, 9})
	f.Fuzz(func(t *testing.T, src, dst uint32, flowID uint16, slot byte, fans []byte) {
		key := FlowKey{
			Src:   netaddr.Addr(src),
			Dst:   netaddr.Addr(dst),
			Proto: packet.ProtoUDP,
			A:     flowID,
			B:     UDPBasePort + uint16(slot)%udpCycle,
		}
		// Record the walk the way NoteFlowBranch would: fan-outs are 2–8
		// wide, deduplicated by width (one walk has one hash, so equal
		// widths always repeat the same index).
		record := func(port uint16) []branchRec {
			h := slotHash(key, port)
			var bs []branchRec
			for _, fb := range fans {
				n := uint16(2 + fb%7)
				dup := false
				for _, b := range bs {
					if b.n == n {
						dup = true
						break
					}
				}
				if !dup {
					bs = append(bs, branchRec{n: n, idx: uint16(h % uint32(n))})
				}
			}
			return bs
		}
		branches := record(key.B)
		if !slotSatisfies(key, key.B, branches) {
			t.Fatalf("walking slot %d fails its own recording %+v", key.B, branches)
		}
		cp := canonPort(key, branches)
		if cp < UDPBasePort || cp >= UDPBasePort+udpCycle {
			t.Fatalf("canonical port %d outside the cycle", cp)
		}
		if !slotSatisfies(key, cp, branches) {
			t.Fatalf("canonical port %d does not satisfy %+v", cp, branches)
		}
		for s := 0; s < udpCycle; s++ {
			p := uint16(UDPBasePort + s)
			if !slotSatisfies(key, p, branches) {
				continue
			}
			peer := record(p)
			if len(peer) != len(branches) {
				t.Fatalf("slot %d records %d branches, walker recorded %d", p, len(peer), len(branches))
			}
			for i := range peer {
				if peer[i] != branches[i] {
					t.Fatalf("slot %d records %+v at %d, walker recorded %+v — same class, different decisions",
						p, peer[i], i, branches[i])
				}
			}
			if cp2 := canonPort(key, peer); cp2 != cp {
				t.Fatalf("slot %d resolves canonical port %d, walker resolved %d — shape keys would fragment",
					p, cp2, cp)
			}
		}
	})
}

// refScan is the reference interpreter: a forward walk over the recorded
// trajectory with every propagated field re-derived from the affine
// model, value(ttl) = recorded + (ttl − t0) when the lineage bit is set
// and value(ttl) = recorded when it is not. It is written against the
// model, not the implementation: inner-LSE underflow is framed as "the
// patch newly exhausted a field the recorded walk saw alive", which for
// non-propagated fields is impossible by construction.
func refScan(e *flowEntry, ttl uint8) scanResult {
	shift := int(ttl) - int(e.t0)
	if shift >= 0 || len(e.steps) == 0 {
		return scanResult{kind: scanInvalid}
	}
	val := func(rec uint8, prop bool) int {
		if prop {
			return int(rec) + shift
		}
		return int(rec)
	}
	for k := range e.steps {
		st := &e.steps[k]
		if ttl < st.minT {
			// The recorded branch decisions are only trusted down to the
			// step's NoteTTLMin floor.
			return scanResult{kind: scanInvalid}
		}
		if _, isHost := st.to.Owner.(*Host); isHost {
			continue
		}
		if len(st.mpls) > 0 {
			top := val(st.mpls[0].TTL, packet.LineageLSEPropagated(st.lineage, 0))
			ip := val(st.ip.TTL, packet.LineageIPPropagated(st.lineage))
			newlyDead := false
			for i := 1; i < len(st.mpls); i++ {
				rec := int(st.mpls[i].TTL)
				if v := val(st.mpls[i].TTL, packet.LineageLSEPropagated(st.lineage, i)); v <= 0 && v < rec {
					newlyDead = true
				}
			}
			if top <= 1 || ip <= 0 || newlyDead {
				return scanResult{kind: scanExpire, step: k, exact: top == 1 && ip >= 1 && !newlyDead}
			}
		} else if !(k == len(e.steps)-1 && e.terminalLocal) {
			if ip := val(st.ip.TTL, packet.LineageIPPropagated(st.lineage)); ip <= 1 {
				return scanResult{kind: scanExpire, step: k, exact: ip == 1}
			}
		}
	}
	if ttl < e.tailMinT {
		return scanResult{kind: scanInvalid}
	}
	return scanResult{kind: scanReach}
}
