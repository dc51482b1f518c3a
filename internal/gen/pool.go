package gen

import "sync"

// This file implements the replica pool: built replicas of an Internet
// are kept across parallel campaigns so steady-state runs pay no replica
// construction at all. Validity is keyed to netsim's topology generation
// counter — a control-plane mutation on the source drops the whole pool
// (the replicas no longer mirror it), and a mutation on a replica while
// leased drops that replica at release (it no longer mirrors anything).
// Pooled replicas retain their probers' counters, virtual clocks, and
// flow caches; campaign accounting is delta-based throughout, so reuse is
// observationally identical to a fresh clone for deterministic probing.

// replicaPool is embedded by value in Internet.
type replicaPool struct {
	mu sync.Mutex
	// entries are idle replicas in stable order: acquire pops from the
	// front, release appends in worker order, so worker i sees the same
	// replica (and its warm flow cache) run after run.
	entries []*Internet
	// leased maps a replica handed out by Acquire to its topology
	// generation at that moment and the pool epoch it was leased under;
	// ReleaseReplicas compares both to detect replicas mutated during the
	// campaign and replicas that outlived a pool reseed.
	leased map[*Internet]lease
	// srcGen keys the pool's validity: the source fabric's topology
	// generation when the pool was (re)seeded. epoch increments on every
	// reseed.
	srcGen uint64
	seeded bool
	epoch  uint64
}

// lease records what must still hold at release for a replica to re-enter
// the pool.
type lease struct {
	gen   uint64 // the replica's own TopoGen at acquire
	epoch uint64 // the pool epoch at acquire
}

// AcquireReplicas returns n independent replicas of this Internet, reusing
// pooled ones when neither the source nor the replica has mutated since
// they were built, and building the rest (concurrently) via Snapshot.
// Replicas come back in stable order — slot i holds the same replica
// across successive acquisitions — and must be returned with
// ReleaseReplicas. The second parameter is ignored; it stays only because
// the frozen perfbench module passes it.
func (in *Internet) AcquireReplicas(n int, _ bool) ([]*Internet, error) {
	p := &in.pool
	p.mu.Lock()
	cur := in.Net.TopoGen()
	if !p.seeded || p.srcGen != cur {
		p.entries = nil
		p.srcGen = cur
		p.seeded = true
		p.epoch++
		// Leases from earlier epochs can never re-enter the pool (the
		// epoch check at release drops them), so purge them now instead of
		// letting an abandoned lease pin its replica in the map forever —
		// the leak a crashed worker used to leave behind.
		for r, l := range p.leased {
			if l.epoch != p.epoch {
				delete(p.leased, r)
			}
		}
	}
	if p.leased == nil {
		p.leased = make(map[*Internet]lease)
	}
	out := make([]*Internet, 0, n)
	for len(out) < n && len(p.entries) > 0 {
		r := p.entries[0]
		p.entries = p.entries[1:]
		p.leased[r] = lease{gen: r.Net.TopoGen(), epoch: p.epoch}
		out = append(out, r)
	}
	need := n - len(out)
	p.mu.Unlock()
	if need == 0 {
		return out, nil
	}

	built := make([]*Internet, need)
	errs := make([]error, need)
	var wg sync.WaitGroup
	for i := 0; i < need; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			built[i], errs[i] = in.Snapshot()
		}(i)
	}
	wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	for i, r := range built {
		if errs[i] != nil {
			if err == nil {
				err = errs[i]
			}
			continue
		}
		if err != nil {
			// A sibling build failed; keep the survivor for next time.
			p.entries = append(p.entries, r)
			continue
		}
		p.leased[r] = lease{gen: r.Net.TopoGen(), epoch: p.epoch}
		out = append(out, r)
	}
	if err != nil {
		// Return the already-leased replicas too; the campaign is not
		// starting.
		for _, r := range out {
			delete(p.leased, r)
			p.entries = append(p.entries, r)
		}
		return nil, err
	}
	return out, nil
}

// ReleaseReplicas returns leased replicas to the pool in the given order.
// A replica whose fabric mutated while leased is dropped: it no longer
// mirrors the source topology.
func (in *Internet) ReleaseReplicas(rs []*Internet) {
	p := &in.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range rs {
		l, ok := p.leased[r]
		if !ok {
			continue
		}
		delete(p.leased, r)
		if l.epoch != p.epoch || r.Net.TopoGen() != l.gen || r.Net.ChurnDeviant() {
			// TopoGen catches whole-fabric flushes; ChurnDeviant catches a
			// churn schedule that somehow ended without restoring the
			// pristine control plane (masking churn events leave TopoGen
			// untouched by design).
			continue
		}
		p.entries = append(p.entries, r)
	}
}

// LeasedReplicas reports how many replicas are currently out on lease —
// the observable the leak regression pins: after every campaign (error
// paths included) it must return to zero.
func (in *Internet) LeasedReplicas() int {
	p := &in.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leased)
}
