package bigraph

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, nu, nv int, edges []Edge) *Graph {
	t.Helper()
	g, err := New(nu, nv, edges)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func triangleGraph(t *testing.T) *Graph {
	return mustNew(t, 3, 2, []Edge{
		{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 1},
		{U: 1, V: 0, W: 1}, {U: 2, V: 1, W: 1},
	})
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		nu, nv int
		edges  []Edge
	}{
		{-1, 2, nil},
		{2, 2, []Edge{{U: 2, V: 0, W: 1}}},
		{2, 2, []Edge{{U: 0, V: 2, W: 1}}},
		{2, 2, []Edge{{U: 0, V: 0, W: 0}}},
		{2, 2, []Edge{{U: 0, V: 0, W: -1}}},
	}
	for i, c := range cases {
		if _, err := New(c.nu, c.nv, c.edges); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWeightedDetection(t *testing.T) {
	g := mustNew(t, 1, 1, []Edge{{U: 0, V: 0, W: 1}})
	if g.Weighted {
		t.Error("all-ones graph flagged weighted")
	}
	g2 := mustNew(t, 1, 1, []Edge{{U: 0, V: 0, W: 2.5}})
	if !g2.Weighted {
		t.Error("weighted graph not flagged")
	}
}

func TestDegrees(t *testing.T) {
	g := triangleGraph(t)
	ud := g.UDegrees()
	vd := g.VDegrees()
	if ud[0] != 2 || ud[1] != 1 || ud[2] != 1 {
		t.Errorf("UDegrees=%v", ud)
	}
	if vd[0] != 2 || vd[1] != 2 {
		t.Errorf("VDegrees=%v", vd)
	}
}

func TestPackUnpackEdge(t *testing.T) {
	f := func(u, v uint16) bool {
		uu, vv := UnpackEdge(PackEdge(int(u), int(v)))
		return uu == int(u) && vv == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildAdjacency(t *testing.T) {
	g := triangleGraph(t)
	a := g.BuildAdjacency()
	if len(a.UNbrs[0]) != 2 || a.UNbrs[0][0] != 0 || a.UNbrs[0][1] != 1 {
		t.Errorf("UNbrs[0]=%v", a.UNbrs[0])
	}
	if len(a.VNbrs[1]) != 2 || a.VNbrs[1][0] != 0 || a.VNbrs[1][1] != 2 {
		t.Errorf("VNbrs[1]=%v", a.VNbrs[1])
	}
	if a.UW[0][0] != 1 {
		t.Errorf("UW[0]=%v", a.UW[0])
	}
}

func TestSplitPartitionsAllEdges(t *testing.T) {
	edges := make([]Edge, 100)
	for i := range edges {
		edges[i] = Edge{U: i % 10, V: i % 7, W: 1}
	}
	g := mustNew(t, 10, 7, edges)
	train, test := g.Split(0.6, 42)
	if len(train.Edges) != 60 || len(test) != 40 {
		t.Fatalf("split sizes %d/%d want 60/40", len(train.Edges), len(test))
	}
	if train.NU != 10 || train.NV != 7 {
		t.Error("train graph must keep the node universe")
	}
	// Deterministic in seed.
	train2, _ := g.Split(0.6, 42)
	for i := range train.Edges {
		if train.Edges[i] != train2.Edges[i] {
			t.Fatal("split not deterministic")
		}
	}
	// Different seed, different split (overwhelmingly likely).
	train3, _ := g.Split(0.6, 43)
	same := true
	for i := range train.Edges {
		if train.Edges[i] != train3.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical splits")
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	g := triangleGraph(t)
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("frac=%v: expected panic", f)
				}
			}()
			g.Split(f, 1)
		}()
	}
}

func TestKCore(t *testing.T) {
	// u0 connects to v0,v1; u1 connects to v0,v1; u2 connects only to v2.
	// In the 2-core: u0,u1,v0,v1 survive; u2,v2 peel away.
	g := mustNew(t, 3, 3, []Edge{
		{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 1},
		{U: 1, V: 0, W: 1}, {U: 1, V: 1, W: 1},
		{U: 2, V: 2, W: 1},
	})
	core, uMap, vMap := g.KCore(2)
	if core.NU != 2 || core.NV != 2 || len(core.Edges) != 4 {
		t.Fatalf("2-core wrong: %v (uMap=%v vMap=%v)", core.Stats(), uMap, vMap)
	}
	if uMap[0] != 0 || uMap[1] != 1 || vMap[0] != 0 || vMap[1] != 1 {
		t.Errorf("maps wrong: %v %v", uMap, vMap)
	}
	// Every node in the core has degree >= 2.
	for _, d := range append(core.UDegrees(), core.VDegrees()...) {
		if d < 2 {
			t.Errorf("core node with degree %d < 2", d)
		}
	}
}

func TestKCoreCascades(t *testing.T) {
	// A chain where removing one endpoint cascades: u0-v0, u0-v1, u1-v1.
	// 2-core is empty (v0 has degree 1 -> u0 drops to 1 -> all peel).
	g := mustNew(t, 2, 2, []Edge{
		{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 1},
	})
	core, _, _ := g.KCore(2)
	if core.NumEdges() != 0 || core.NU != 0 || core.NV != 0 {
		t.Errorf("expected empty 2-core, got %v", core.Stats())
	}
}

func TestStats(t *testing.T) {
	g := mustNew(t, 3, 2, []Edge{
		{U: 0, V: 0, W: 2}, {U: 0, V: 1, W: 3}, {U: 1, V: 0, W: 1},
	})
	s := g.Stats()
	if s.NE != 3 || s.MaxUDeg != 2 || s.MaxVDeg != 2 || s.MinW != 1 || s.MaxW != 3 || s.TotalW != 6 {
		t.Errorf("stats: %+v", s)
	}
	if !strings.Contains(s.String(), "weighted") {
		t.Errorf("String()=%q", s.String())
	}
	empty := mustNew(t, 0, 0, nil)
	if es := empty.Stats(); es.NE != 0 {
		t.Errorf("empty stats: %+v", es)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
alice	movie1	3.5
bob	movie1
% another comment

alice	movie2	1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NU != 2 || g.NV != 2 || len(g.Edges) != 3 {
		t.Fatalf("parsed %v", g.Stats())
	}
	if g.ULabels[0] != "alice" || g.VLabels[1] != "movie2" {
		t.Errorf("labels: %v %v", g.ULabels, g.VLabels)
	}
	if !g.Weighted {
		t.Error("graph with weight 3.5 must be weighted")
	}
	if g.Edges[0].W != 3.5 || g.Edges[1].W != 1 {
		t.Errorf("weights: %+v", g.Edges)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"a\n",           // one field
		"a b c d\n",     // four fields
		"a b notanum\n", // bad weight
		"a b 0\n",       // zero weight
		"a b -2\n",      // negative weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestNonFiniteWeightsRejected: NaN and ±Inf fail a plain w <= 0 test
// (NaN compares false), so they used to load as weighted graphs and one
// of them turned the whole embedding into NaN. Both entry points must
// refuse them with ErrBadWeight.
func TestNonFiniteWeightsRejected(t *testing.T) {
	for _, in := range []string{
		"a x NaN\nb y 1\n",
		"a x Inf\n",
		"a x +Inf\n",
		"a x -inf\n",
		"b y 1\na x infinity\n",
		"a x 0\n",
		"a x -2\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); !errors.Is(err, ErrBadWeight) {
			t.Errorf("ReadEdgeList(%q) = %v, want ErrBadWeight", in, err)
		}
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := New(2, 2, []Edge{{U: 0, V: 0, W: 1}, {U: 1, V: 1, W: w}}); !errors.Is(err, ErrBadWeight) {
			t.Errorf("New with weight %g = %v, want ErrBadWeight", w, err)
		}
	}
	// Huge but finite weights stay accepted.
	if _, err := New(1, 1, []Edge{{U: 0, V: 0, W: math.MaxFloat64}}); err != nil {
		t.Errorf("New with weight MaxFloat64: %v", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustNew(t, 2, 2, []Edge{
		{U: 0, V: 0, W: 2}, {U: 1, V: 1, W: 0.5}, {U: 0, V: 1, W: 1},
	})
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NU != g.NU || g2.NV != g.NV || len(g2.Edges) != len(g.Edges) {
		t.Fatalf("round trip changed shape: %v vs %v", g2.Stats(), g.Stats())
	}
	for i := range g.Edges {
		if g2.Edges[i].W != g.Edges[i].W {
			t.Errorf("edge %d weight %v != %v", i, g2.Edges[i].W, g.Edges[i].W)
		}
	}
}

func TestSaveLoadEdgeList(t *testing.T) {
	g := triangleGraph(t)
	path := t.TempDir() + "/graph.tsv"
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
}
