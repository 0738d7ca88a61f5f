// Package bigraph provides the bipartite graph container used across the
// repository: construction, validation, CSR adjacency, degree utilities,
// k-core filtering, train/test edge splitting, and plain-text edge-list
// IO compatible with the formats the paper's datasets ship in.
package bigraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Edge is a weighted inter-set edge between node U ∈ [0,|U|) and node
// V ∈ [0,|V|).
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected bipartite graph G = (U, V, E). Node identities
// are dense integer indices; string identifiers from input files live in
// the optional label tables.
type Graph struct {
	NU, NV int
	Edges  []Edge

	// ULabels/VLabels optionally map indices back to source identifiers;
	// nil when the graph was generated synthetically.
	ULabels, VLabels []string

	// Weighted records whether edge weights carry information (false means
	// every weight is 1).
	Weighted bool
}

// ErrBadWeight is wrapped by every error New and ReadEdgeList return for
// an edge weight that is not a positive finite number. A NaN or infinite
// weight would pass a plain w <= 0 test and turn every embedding
// coordinate into NaN.
var ErrBadWeight = errors.New("edge weight must be positive and finite")

// validWeight reports whether w is a usable edge weight.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// New validates and constructs a graph. It rejects out-of-range endpoints
// and weights that are not positive and finite (ErrBadWeight); duplicate
// (u,v) pairs are allowed here and summed when the weight matrix is
// built.
func New(nu, nv int, edges []Edge) (*Graph, error) {
	if nu < 0 || nv < 0 {
		return nil, fmt.Errorf("bigraph: negative node count |U|=%d |V|=%d", nu, nv)
	}
	weighted := false
	for i, e := range edges {
		if e.U < 0 || e.U >= nu {
			return nil, fmt.Errorf("bigraph: edge %d has U endpoint %d outside [0,%d)", i, e.U, nu)
		}
		if e.V < 0 || e.V >= nv {
			return nil, fmt.Errorf("bigraph: edge %d has V endpoint %d outside [0,%d)", i, e.V, nv)
		}
		if !validWeight(e.W) {
			return nil, fmt.Errorf("bigraph: edge %d (%d,%d): %w, got %g", i, e.U, e.V, ErrBadWeight, e.W)
		}
		if e.W != 1 {
			weighted = true
		}
	}
	return &Graph{NU: nu, NV: nv, Edges: edges, Weighted: weighted}, nil
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// UDegrees returns the number of incident edges per node in U.
func (g *Graph) UDegrees() []int {
	d := make([]int, g.NU)
	for _, e := range g.Edges {
		d[e.U]++
	}
	return d
}

// VDegrees returns the number of incident edges per node in V.
func (g *Graph) VDegrees() []int {
	d := make([]int, g.NV)
	for _, e := range g.Edges {
		d[e.V]++
	}
	return d
}

// HasEdgeSet returns a membership set keyed by packed (u,v); useful for
// negative sampling. Packing is safe for |V| < 2³¹.
func (g *Graph) HasEdgeSet() map[int64]bool {
	s := make(map[int64]bool, len(g.Edges))
	for _, e := range g.Edges {
		s[PackEdge(e.U, e.V)] = true
	}
	return s
}

// PackEdge packs a (u,v) pair into one int64 key.
func PackEdge(u, v int) int64 { return int64(u)<<32 | int64(uint32(v)) }

// UnpackEdge reverses PackEdge.
func UnpackEdge(key int64) (u, v int) { return int(key >> 32), int(uint32(key)) }

// Adjacency holds per-node neighbor lists for both sides, used by random
// walk baselines. Neighbor order follows edge insertion order.
type Adjacency struct {
	// UNbrs[u] lists v-indices adjacent to u; UW the matching weights.
	UNbrs [][]int32
	UW    [][]float64
	// VNbrs[v] lists u-indices adjacent to v; VW the matching weights.
	VNbrs [][]int32
	VW    [][]float64
}

// BuildAdjacency materializes neighbor lists for both node sets.
func (g *Graph) BuildAdjacency() *Adjacency {
	a := &Adjacency{
		UNbrs: make([][]int32, g.NU), UW: make([][]float64, g.NU),
		VNbrs: make([][]int32, g.NV), VW: make([][]float64, g.NV),
	}
	ud, vd := g.UDegrees(), g.VDegrees()
	for u, d := range ud {
		a.UNbrs[u] = make([]int32, 0, d)
		a.UW[u] = make([]float64, 0, d)
	}
	for v, d := range vd {
		a.VNbrs[v] = make([]int32, 0, d)
		a.VW[v] = make([]float64, 0, d)
	}
	for _, e := range g.Edges {
		a.UNbrs[e.U] = append(a.UNbrs[e.U], int32(e.V))
		a.UW[e.U] = append(a.UW[e.U], e.W)
		a.VNbrs[e.V] = append(a.VNbrs[e.V], int32(e.U))
		a.VW[e.V] = append(a.VW[e.V], e.W)
	}
	return a
}

// Split partitions the edges into a training graph and a held-out test
// edge list: trainFrac of the edges (uniformly at random, deterministic in
// seed) stay in the training graph, which keeps the full node universe so
// embeddings stay index-compatible with the test set.
func (g *Graph) Split(trainFrac float64, seed uint64) (train *Graph, test []Edge) {
	if trainFrac <= 0 || trainFrac > 1 {
		panic(fmt.Sprintf("bigraph: trainFrac %g outside (0,1]", trainFrac))
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	perm := rng.Perm(len(g.Edges))
	nTrain := int(float64(len(g.Edges)) * trainFrac)
	trainEdges := make([]Edge, 0, nTrain)
	test = make([]Edge, 0, len(g.Edges)-nTrain)
	for i, p := range perm {
		if i < nTrain {
			trainEdges = append(trainEdges, g.Edges[p])
		} else {
			test = append(test, g.Edges[p])
		}
	}
	train = &Graph{NU: g.NU, NV: g.NV, Edges: trainEdges,
		ULabels: g.ULabels, VLabels: g.VLabels, Weighted: g.Weighted}
	return train, test
}

// KCore returns the subgraph where every remaining node (on both sides)
// has degree ≥ k, computed by iterative peeling — the "10-core setting"
// the paper applies before the recommendation experiments. Node indices
// are re-densified; the returned mappings give, for each new index, the
// old index it came from.
func (g *Graph) KCore(k int) (core *Graph, uMap, vMap []int) {
	ud, vd := g.UDegrees(), g.VDegrees()
	uAlive := make([]bool, g.NU)
	vAlive := make([]bool, g.NV)
	for i := range uAlive {
		uAlive[i] = true
	}
	for i := range vAlive {
		vAlive[i] = true
	}
	adj := g.BuildAdjacency()
	// Iterative peeling with a simple worklist.
	changed := true
	for changed {
		changed = false
		for u := 0; u < g.NU; u++ {
			if uAlive[u] && ud[u] < k {
				uAlive[u] = false
				changed = true
				for _, v := range adj.UNbrs[u] {
					if vAlive[v] {
						vd[v]--
					}
				}
				ud[u] = 0
			}
		}
		for v := 0; v < g.NV; v++ {
			if vAlive[v] && vd[v] < k {
				vAlive[v] = false
				changed = true
				for _, u := range adj.VNbrs[v] {
					if uAlive[u] {
						ud[u]--
					}
				}
				vd[v] = 0
			}
		}
	}
	uNew := make([]int, g.NU)
	vNew := make([]int, g.NV)
	for i := range uNew {
		uNew[i] = -1
	}
	for i := range vNew {
		vNew[i] = -1
	}
	for u := 0; u < g.NU; u++ {
		if uAlive[u] {
			uNew[u] = len(uMap)
			uMap = append(uMap, u)
		}
	}
	for v := 0; v < g.NV; v++ {
		if vAlive[v] {
			vNew[v] = len(vMap)
			vMap = append(vMap, v)
		}
	}
	var edges []Edge
	for _, e := range g.Edges {
		if uAlive[e.U] && vAlive[e.V] {
			edges = append(edges, Edge{U: uNew[e.U], V: vNew[e.V], W: e.W})
		}
	}
	var ul, vl []string
	if g.ULabels != nil {
		ul = make([]string, len(uMap))
		for i, old := range uMap {
			ul[i] = g.ULabels[old]
		}
	}
	if g.VLabels != nil {
		vl = make([]string, len(vMap))
		for i, old := range vMap {
			vl[i] = g.VLabels[old]
		}
	}
	core = &Graph{NU: len(uMap), NV: len(vMap), Edges: edges,
		ULabels: ul, VLabels: vl, Weighted: g.Weighted}
	return core, uMap, vMap
}

// Stats summarizes a graph for logging and dataset tables.
type Stats struct {
	NU, NV, NE         int
	AvgUDeg, AvgVDeg   float64
	MaxUDeg, MaxVDeg   int
	Weighted           bool
	MinW, MaxW, TotalW float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{NU: g.NU, NV: g.NV, NE: len(g.Edges), Weighted: g.Weighted}
	if len(g.Edges) == 0 {
		return s
	}
	ud, vd := g.UDegrees(), g.VDegrees()
	for _, d := range ud {
		if d > s.MaxUDeg {
			s.MaxUDeg = d
		}
	}
	for _, d := range vd {
		if d > s.MaxVDeg {
			s.MaxVDeg = d
		}
	}
	s.MinW = g.Edges[0].W
	for _, e := range g.Edges {
		if e.W < s.MinW {
			s.MinW = e.W
		}
		if e.W > s.MaxW {
			s.MaxW = e.W
		}
		s.TotalW += e.W
	}
	if g.NU > 0 {
		s.AvgUDeg = float64(len(g.Edges)) / float64(g.NU)
	}
	if g.NV > 0 {
		s.AvgVDeg = float64(len(g.Edges)) / float64(g.NV)
	}
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	kind := "unweighted"
	if s.Weighted {
		kind = "weighted"
	}
	return fmt.Sprintf("|U|=%d |V|=%d |E|=%d %s avgdeg(U)=%.1f avgdeg(V)=%.1f",
		s.NU, s.NV, s.NE, kind, s.AvgUDeg, s.AvgVDeg)
}
