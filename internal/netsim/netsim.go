// Package netsim is the packet-level simulation fabric the emulated
// network runs on: nodes joined by point-to-point links with one-way
// delays, driven by a virtual clock.
//
// The fabric is deliberately synchronous and single-goroutine: probing
// workloads inject a packet and drain the event queue to completion, which
// keeps per-probe behaviour deterministic (a property the paper's emulation
// validation depends on) and makes millions of probes cheap. Concurrency
// belongs to the layers above (the prober rate-limits and parallelizes
// whole probes, never individual hops).
//
// # Shard ownership
//
// Parallel campaign drivers scale out by building one independent fabric
// replica per worker (gen.Internet.Snapshot) and driving each replica from
// exactly one goroutine — shard-per-worker, no shared fabric. Two
// invariants make that safe:
//
//  1. a Network and everything attached to it (nodes, links, probers) is
//     driven by at most one goroutine at a time, and
//  2. once a worker adopts a replica with BindOwner, only that goroutine
//     ever drives it again.
//
// Both are enforced here as cheap debug assertions: Run always detects
// concurrent drives (an atomic busy flag), and a bound network verifies
// the caller's goroutine identity on its first drain after BindOwner.
// Resolving that identity walks the runtime stack, which costs more than
// a short drain, so only -race builds (where TestRaceTier runs the
// campaign and netsim tests) re-verify it, every ownerCheckInterval
// drains. Violations are programming errors in the driver, so they
// panic.
package netsim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// Node is anything attached to the fabric: routers and hosts.
type Node interface {
	// Name returns a unique human-readable identifier ("PE1", "vp0", ...).
	Name() string
	// Receive handles a packet arriving over in. Implementations forward
	// by calling net.Transmit and must not retain pkt after returning
	// unless they clone it.
	Receive(net *Network, in *Iface, pkt *packet.Packet)
}

// Iface is one end of a point-to-point link.
type Iface struct {
	Owner  Node
	Name   string // "left", "right", "lo0", ...
	Addr   netaddr.Addr
	Prefix netaddr.Prefix // subnet shared with the far end
	Link   *Link          // nil for loopbacks

	// ownerIdx memoizes the fabric node index of Owner, offset by one so
	// the zero value means "not resolved yet". Touch attribution (see
	// flowcache.go) resolves it once per interface and then never hits
	// the node-index map again.
	ownerIdx int32
}

// Remote returns the interface at the other end of the attached link, or
// nil for loopback interfaces.
func (i *Iface) Remote() *Iface {
	if i.Link == nil {
		return nil
	}
	return i.Link.other(i)
}

func (i *Iface) String() string {
	if i == nil {
		return "<nil>"
	}
	return i.Owner.Name() + "." + i.Name
}

// Link is a bidirectional point-to-point link.
type Link struct {
	a, b  *Iface
	Delay time.Duration // one-way propagation delay
	Up    bool
}

func (l *Link) other(i *Iface) *Iface {
	if i == l.a {
		return l.b
	}
	return l.a
}

// Endpoints returns both interfaces of the link.
func (l *Link) Endpoints() (*Iface, *Iface) { return l.a, l.b }

// Network is the simulation fabric: the set of nodes, links, the virtual
// clock, and the pending-delivery queue.
type Network struct {
	nodes []Node
	links []*Link

	clock  time.Duration
	queue  eventQueue
	seq    uint64 // tiebreaker for deterministic ordering
	budget int    // remaining deliveries for the current drain (loop guard)
	stats  FabricStats

	// pool recycles the fabric's per-hop packet clones; single-goroutine
	// use is guaranteed by the same ownership discipline as the fabric
	// itself.
	pool packet.Pool

	// owner is the goroutine bound via BindOwner (0 = unbound); driving
	// flags an in-progress drain for concurrent-drive detection. checkTick
	// counts down the drives to the next goroutine-identity check, and is
	// negative when none is due: the id is verified on the first drive
	// after a bind and, in -race builds, every ownerCheckInterval drives
	// after that (see the package comment). The concurrent-drive CAS below
	// stays on every drain.
	owner     uint64
	driving   int32
	checkTick int32

	// flows is the flow-trajectory cache (see flowcache.go). By-value so
	// fresh replicas start with it disabled and empty.
	flows FlowCache

	// topoGen counts control-plane mutations (every flush of the flow
	// cache, whether or not the cache is enabled). Replica pools compare it
	// to decide whether a cached replica still matches its source fabric.
	// Churn events that mask instead (see churn.go) leave topoGen — and
	// pooled replicas — warm.
	topoGen uint64

	// nodeIdx maps each registered node to its index in nodes; touched
	// sets and churn scopes are bitmaps over these indices.
	nodeIdx map[Node]int32

	// churn is the churn-engine state (see churn.go). By-value so fresh
	// replicas start quiescent.
	churn churnState

	// faultIn, when set, is the lazy-fabric materialization hook: probers
	// call FaultIn(dst) before injecting a trace's first probe, giving the
	// generator the chance to materialize the stub AS owning dst before
	// any packet can enter its address block. faultInDepth brackets an
	// in-progress materialization (see BeginFaultIn in churn.go).
	faultIn      func(netaddr.Addr)
	faultInDepth int

	// linkBlock is the tail of the fabric's link arena: Connect carves
	// Link structs out of append-within-capacity blocks, so a fabric with
	// L links costs O(L/blockSize) allocations instead of L. Blocks are
	// never reallocated once handed out, keeping *Link pointers stable.
	linkBlock []Link

	// Trace, when non-nil, observes every delivery (pcap-ish hook).
	Trace func(at time.Duration, to *Iface, pkt *packet.Packet)
}

// DefaultEventBudget bounds deliveries per Run call; a forwarding loop in a
// misconfigured topology exhausts it instead of hanging the process.
const DefaultEventBudget = 1 << 20

// New creates an empty network.
func New() *Network {
	return &Network{nodeIdx: make(map[Node]int32)}
}

// FabricStats counts event-loop occurrences that individual nodes cannot
// see. All counters are cumulative over the network's lifetime.
type FabricStats struct {
	// Deliveries is the number of events handed to Node.Receive.
	Deliveries uint64
	// BudgetExhausted counts Run calls that hit the event budget — each one
	// is a detected forwarding loop.
	BudgetExhausted uint64
	// DroppedEvents is the number of queued events discarded by those
	// budget-exhausted drains. A healthy fabric keeps this at zero.
	DroppedEvents uint64
}

// FabricStats returns the event-loop counters.
func (n *Network) FabricStats() FabricStats { return n.stats }

// PacketPool returns the fabric's packet free-list. Nodes use it for
// per-hop clones and generated replies; everything obtained from it is
// recycled after the receiving node returns.
func (n *Network) PacketPool() *packet.Pool { return &n.pool }

// SetFaultInHook installs (or clears) the lazy-fabric fault-in hook.
// A prober invokes it through FaultIn with a trace's destination before
// the first probe toward it is injected.
func (n *Network) SetFaultInHook(h func(netaddr.Addr)) { n.faultIn = h }

// FaultIn gives the fabric's owner a chance to materialize lazily-built
// state covering addr before a probe is sent toward it. A no-op unless a
// hook is installed (eager fabrics never pay for it).
func (n *Network) FaultIn(addr netaddr.Addr) {
	if n.faultIn != nil {
		n.faultIn(addr)
	}
}

// AddNode registers a node with the fabric.
func (n *Network) AddNode(node Node) {
	n.nodeIdx[node] = int32(len(n.nodes))
	n.nodes = append(n.nodes, node)
}

// Nodes returns all registered nodes.
func (n *Network) Nodes() []Node { return n.nodes }

// Connect joins two interfaces with a link of the given one-way delay.
func (n *Network) Connect(a, b *Iface, delay time.Duration) *Link {
	l := n.allocLink()
	l.a, l.b, l.Delay, l.Up = a, b, delay, true
	a.Link, b.Link = l, l
	n.links = append(n.links, l)
	return l
}

// allocLink hands out one Link from the arena, opening a fresh block when
// the current one is full. Block size scales with the fabric so far, so a
// million-link build settles into a handful of large blocks.
func (n *Network) allocLink() *Link {
	if len(n.linkBlock) == cap(n.linkBlock) {
		size := 64
		if have := len(n.links); have > size {
			size = have
		}
		n.linkBlock = make([]Link, 0, size)
	}
	n.linkBlock = append(n.linkBlock, Link{})
	return &n.linkBlock[len(n.linkBlock)-1]
}

// Presize sizes an empty fabric for a replica whose node and link counts
// are known: the node index and the link arena (one block for the whole
// link table) are allocated once, so building the replica never grows
// them.
func (n *Network) Presize(nodes, links int) {
	if len(n.nodes) > 0 || len(n.links) > 0 {
		panic("netsim: Presize on a fabric that is not empty")
	}
	n.nodes = make([]Node, 0, nodes)
	n.nodeIdx = make(map[Node]int32, nodes)
	n.links = make([]*Link, 0, links)
	n.linkBlock = make([]Link, 0, links)
}

// IndexOf returns a node's stable fabric index (its position in Nodes()).
// Snapshot replicas preserve indices, so an index recorded against the
// source fabric resolves to the corresponding node on any replica.
func (n *Network) IndexOf(node Node) (int32, bool) {
	i, ok := n.nodeIdx[node]
	return i, ok
}

// Links returns all links.
func (n *Network) Links() []*Link { return n.links }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.clock }

// Transmit sends pkt out of interface out. Delivery to the remote end is
// scheduled after the link's propagation delay; a down link silently
// drops the packet, as a cut wire would.
func (n *Network) Transmit(out *Iface, pkt *packet.Packet) {
	l := out.Link
	if l == nil || !l.Up {
		n.pool.Release(pkt) // ownership transferred to the wire; recycle drops
		return
	}
	n.seq++
	n.queue.push(event{
		at:  n.clock + l.Delay,
		seq: n.seq,
		to:  l.other(out),
		pkt: pkt,
	})
}

// Inject introduces a packet as if node src emitted it from iface out at
// the current virtual time, then drains the queue until the fabric is idle.
// It returns the virtual time consumed.
func (n *Network) Inject(out *Iface, pkt *packet.Packet) time.Duration {
	start := n.clock
	n.Transmit(out, pkt)
	n.Run()
	return n.clock - start
}

// BindOwner adopts the fabric for the calling goroutine: every subsequent
// Run (and therefore Inject) must come from this goroutine. Parallel
// campaign workers call it right after cloning their replica; the serial
// engine never binds and only the concurrent-drive check applies.
func (n *Network) BindOwner() { n.owner, n.checkTick = gid(), 0 }

// ReleaseOwner clears the ownership binding (handing a replica to another
// worker requires the old owner to release it first).
func (n *Network) ReleaseOwner() { n.owner = 0 }

// ownerCheckInterval is how many drives may pass between goroutine-identity
// verifications of a bound fabric in -race builds. The first drive after
// BindOwner is verified in every build, so handing a bound replica to the
// wrong goroutine trips the assertion immediately; under -race a
// long-lived foreign driver is caught within one interval.
const ownerCheckInterval = 64

// assertDriver panics when the fabric is driven from a goroutine other
// than its bound owner (verified on the schedule checkTick keeps), or
// from two goroutines at once.
func (n *Network) assertDriver() {
	if n.owner != 0 && n.checkTick >= 0 {
		n.checkTick--
		if n.checkTick < 0 {
			if g := gid(); g != n.owner {
				panic(fmt.Sprintf("netsim: fabric owned by goroutine %d driven from goroutine %d", n.owner, g))
			}
			if RaceEnabled {
				n.checkTick = ownerCheckInterval - 1
			}
		}
	}
	if !atomic.CompareAndSwapInt32(&n.driving, 0, 1) {
		panic("netsim: fabric driven concurrently (one fabric per worker, no shared fabric)")
	}
}

// gid returns the calling goroutine's id, parsed from the runtime stack
// header ("goroutine N [running]:"). Debug-assertion use only.
func gid() uint64 {
	var buf [32]byte
	m := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):m] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Run drains the event queue until idle (or until the event budget is
// exhausted, which indicates a forwarding loop; the discarded events are
// counted in FabricStats so campaigns can surface the loop post-mortem).
func (n *Network) Run() {
	n.assertDriver()
	defer atomic.StoreInt32(&n.driving, 0)
	n.budget = DefaultEventBudget
	for n.queue.len() > 0 {
		if n.budget == 0 {
			// A loop was detected: account for and drop the remaining
			// events so the next Run starts clean. A trajectory recorded
			// from a looping probe is poisoned — it must re-run live (and
			// re-count the loop) every time.
			n.stats.BudgetExhausted++
			n.stats.DroppedEvents += uint64(n.queue.len())
			if n.flows.rec.active {
				n.flows.rec.bad = true
			}
			for _, ev := range n.queue.ev {
				n.pool.Release(ev.pkt)
			}
			n.queue.clear()
			return
		}
		n.budget--
		ev := n.queue.pop()
		if ev.at > n.clock {
			n.clock = ev.at
		}
		if n.Trace != nil {
			n.Trace(n.clock, ev.to, ev.pkt)
		}
		n.stats.Deliveries++
		if n.flows.rec.active {
			// Attribute every delivery of the recorded drain — forward
			// packet, replies, everything — to the probe's touched set.
			n.touchDelivery(ev.to)
			if ev.pkt.Mark != 0 {
				// The marked forward packet of a recorded probe: capture it
				// as delivered, before the node transforms it.
				n.flows.record(ev.to, n.clock, ev.pkt)
			}
		}
		ev.to.Owner.Receive(n, ev.to, ev.pkt)
		// Receive must not retain pkt (the prober copies what it keeps of
		// a reply), so the clone can go straight back to the free list.
		n.pool.Release(ev.pkt)
	}
}

type event struct {
	at  time.Duration
	seq uint64
	to  *Iface
	pkt *packet.Packet
}

// eventQueue is a binary min-heap of events ordered by (at, seq). Events
// are stored by value and the sift routines are hand-rolled: pushing and
// popping touches no allocator, unlike container/heap whose interface
// methods box every element. Because (at, seq) is a strict total order,
// pop order — and therefore simulation output — is identical to any other
// correct heap over the same inserts.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) clear() {
	for i := range q.ev {
		q.ev[i] = event{} // drop pkt references
	}
	q.ev = q.ev[:0]
}

func (q *eventQueue) less(i, j int) bool {
	if q.ev[i].at != q.ev[j].at {
		return q.ev[i].at < q.ev[j].at
	}
	return q.ev[i].seq < q.ev[j].seq
}

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev[last] = event{} // drop pkt reference
	q.ev = q.ev[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.ev[i], q.ev[smallest] = q.ev[smallest], q.ev[i]
		i = smallest
	}
	return top
}
