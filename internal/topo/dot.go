package topo

import (
	"fmt"
	"io"
)

// WriteDOT renders the graph in Graphviz DOT form, one node per router
// (labeled with its name and degree) and one edge per router-level link.
// Nodes satisfying highlight (may be nil) are drawn filled — campaigns use
// it to mark HDNs or revealed LSRs.
func (g *Graph) WriteDOT(w io.Writer, name string, highlight func(*Node) bool) error {
	if _, err := fmt.Fprintf(w, "graph %q {\n  node [shape=ellipse fontsize=10];\n", name); err != nil {
		return err
	}
	for _, n := range g.nodes {
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("%s (%d)", n.Name, n.Degree()))
		if highlight != nil && highlight(n) {
			attrs += ` style=filled fillcolor=lightcoral`
		}
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", n.ID, attrs); err != nil {
			return err
		}
	}
	// Nodes and neighbor lists ascend by ID, so edges come out sorted.
	for _, n := range g.nodes {
		for _, nb := range n.nbrs {
			if n.ID < nb.ID {
				if _, err := fmt.Fprintf(w, "  n%d -- n%d;\n", n.ID, nb.ID); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
