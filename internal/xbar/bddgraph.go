package xbar

import (
	"fmt"

	"compact/internal/bdd"
	"compact/internal/graph"
	"compact/internal/labeling"
)

// RootKind classifies a function output's BDD root.
type RootKind uint8

// Root kinds. Constant outputs need no graph node: a constant-1 output is
// sensed on the input wordline itself, a constant-0 output on a dedicated
// never-connected wordline.
const (
	RootNode RootKind = iota
	RootConst0
	RootConst1
)

// Root describes one function output in the graph.
type Root struct {
	Kind   RootKind
	NodeID int // graph node id; valid when Kind == RootNode
	Name   string
}

// BDDGraph is the undirected graph derived from a (shared) BDD per the
// paper's graph pre-processing step: the 0-terminal and its incoming edges
// removed, every remaining node and edge carried over, and each edge
// annotated with the literal that will program its memristor (variable of
// the parent node, negated on low edges).
type BDDGraph struct {
	G *graph.Graph
	// EdgeLit maps each undirected edge {u,v} (key with u < v) to its
	// memristor literal.
	EdgeLit map[[2]int]Entry
	// Level holds each graph node's BDD variable level; the 1-terminal
	// carries -1.
	Level []int
	// TerminalID is the graph node of the 1-terminal (the input port).
	TerminalID int
	Roots      []Root
	VarNames   []string
}

// FromBDD converts the BDDs rooted at roots (in manager m) into the
// undirected labeled graph. outNames provides one name per root.
func FromBDD(m *bdd.Manager, roots []bdd.Node, outNames []string) (*BDDGraph, error) {
	if len(outNames) != len(roots) {
		return nil, fmt.Errorf("xbar: %d names for %d roots", len(outNames), len(roots))
	}
	// Collect reachable non-Zero nodes.
	var keep []bdd.Node
	for _, n := range m.Reachable(roots...) {
		if n != bdd.Zero {
			keep = append(keep, n)
		}
	}
	// Graph ids by handle: handles are dense arena indices.
	id := make([]int32, m.Size())
	// The 1-terminal is always present (it is the input port), even for
	// all-constant-0 functions.
	hasOne := false
	for _, n := range keep {
		if n == bdd.One {
			hasOne = true
		}
	}
	if !hasOne {
		keep = append([]bdd.Node{bdd.One}, keep...)
	}
	// Deterministic ids in ascending handle order (One first).
	for i, n := range keep {
		id[n] = int32(i)
	}

	bg := &BDDGraph{
		G: graph.New(len(keep)),
		// A reduced BDD has at most two edges per kept node.
		EdgeLit: make(map[[2]int]Entry, 2*len(keep)),
		Level:   make([]int, len(keep)),
	}
	names := make([]string, m.NumVars())
	for i := range names {
		names[i] = m.VarName(i)
	}
	bg.VarNames = names
	for _, n := range keep {
		gi := int(id[n])
		if n == bdd.One {
			bg.Level[gi] = -1
			bg.TerminalID = gi
			continue
		}
		bg.Level[gi] = m.Level(n)
		var edgeErr error
		addEdge := func(child bdd.Node, neg bool) {
			if edgeErr != nil || child == bdd.Zero {
				return
			}
			u, v := gi, int(id[child])
			if err := bg.G.AddEdge(u, v); err != nil {
				edgeErr = err
				return
			}
			k := edgeKey(u, v)
			if _, dup := bg.EdgeLit[k]; dup {
				// Cannot happen in a reduced BDD (low != high, DAG), but
				// guard against manager bugs.
				edgeErr = fmt.Errorf("xbar: duplicate edge literal for (%d,%d)", u, v)
				return
			}
			bg.EdgeLit[k] = Entry{Kind: Lit, Var: int32(m.Level(n)), Neg: neg}
		}
		addEdge(m.Low(n), true)
		addEdge(m.High(n), false)
		if edgeErr != nil {
			return nil, edgeErr
		}
	}
	for i, r := range roots {
		switch r {
		case bdd.Zero:
			bg.Roots = append(bg.Roots, Root{Kind: RootConst0, NodeID: -1, Name: outNames[i]})
		case bdd.One:
			bg.Roots = append(bg.Roots, Root{Kind: RootConst1, NodeID: bg.TerminalID, Name: outNames[i]})
		default:
			bg.Roots = append(bg.Roots, Root{Kind: RootNode, NodeID: int(id[r]), Name: outNames[i]})
		}
	}
	return bg, nil
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// AlignNodes returns the nodes that the paper's Eq. 7 forces onto
// wordlines: every root node and the 1-terminal.
func (bg *BDDGraph) AlignNodes() []int {
	seen := map[int]bool{bg.TerminalID: true}
	out := []int{bg.TerminalID}
	for _, r := range bg.Roots {
		if r.Kind == RootNode && !seen[r.NodeID] {
			seen[r.NodeID] = true
			out = append(out, r.NodeID)
		}
	}
	return out
}

// Problem builds the VH-labeling instance for this graph, with or without
// the alignment constraints.
func (bg *BDDGraph) Problem(align bool) labeling.Problem {
	p := labeling.Problem{G: bg.G}
	if align {
		p.AlignH = bg.AlignNodes()
	}
	return p
}

// NumNodes returns the graph's node count n (the paper's S = n + k basis).
func (bg *BDDGraph) NumNodes() int { return bg.G.N() }

// NumEdges returns the graph's edge count.
func (bg *BDDGraph) NumEdges() int { return bg.G.M() }
