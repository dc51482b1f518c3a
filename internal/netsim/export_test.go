package netsim

// FlowFootprint reports what the flow cache holds for key: the recorded
// trajectory steps (its frontier, or none), the memoized replies and the
// reply memo's capacity. ok is false when the flow has no pristine entry.
func (n *Network) FlowFootprint(key FlowKey) (steps, replies, replyCap int, ok bool) {
	e := n.flows.entries[key]
	if e == nil {
		return 0, 0, 0, false
	}
	if e.hasFrontier {
		steps = 1
	}
	return steps, len(e.replies), cap(e.replies), true
}
