package gebe

import (
	"math"
	"strings"
	"testing"
)

func smallGraph(t testing.TB) *Graph {
	t.Helper()
	var edges []Edge
	for u := 0; u < 12; u++ {
		for d := 0; d < 4; d++ {
			edges = append(edges, Edge{U: u, V: (u*3 + d) % 10, W: float64(1 + d)})
		}
	}
	g, err := NewGraph(12, 10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmbedDefaultIsGEBEP(t *testing.T) {
	g := smallGraph(t)
	e, err := Embed(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Method != "gebep" {
		t.Errorf("Embed method = %q", e.Method)
	}
	if e.U.Rows != 12 || e.V.Rows != 10 || e.K() != 4 {
		t.Errorf("shape wrong: %dx%d / %dx%d", e.U.Rows, e.K(), e.V.Rows, e.V.Cols)
	}
}

func TestAllEntryPoints(t *testing.T) {
	g := smallGraph(t)
	type entry struct {
		name string
		fn   func(*Graph, Options) (*Embedding, error)
	}
	for _, ep := range []entry{
		{"GEBE", GEBE}, {"GEBEP", GEBEP}, {"MHPBNE", MHPBNE}, {"MHSBNE", MHSBNE},
	} {
		e, err := ep.fn(g, Options{K: 3, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		if e.U.Rows != g.NU || e.V.Rows != g.NV {
			t.Errorf("%s: wrong shapes", ep.name)
		}
	}
}

func TestPMFConstructors(t *testing.T) {
	if Uniform(5).Name() != "uniform" || Geometric(0.3).Name() != "geometric" || Poisson(2).Name() != "poisson" {
		t.Error("PMF constructor names wrong")
	}
	g := smallGraph(t)
	for _, p := range []PMF{Uniform(5), Geometric(0.3), Poisson(2)} {
		if _, err := GEBE(g, Options{K: 3, PMF: p, Seed: 3}); err != nil {
			t.Errorf("GEBE with %s: %v", p.Name(), err)
		}
	}
}

func TestReadGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("a x 2\nb x\nb y 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NU != 2 || g.NV != 2 || g.NumEdges() != 3 {
		t.Errorf("parsed %v", g.Stats())
	}
}

func TestEmbeddingRoundTrip(t *testing.T) {
	g := smallGraph(t)
	e, err := Embed(g, Options{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteEmbedding(&sb, e); err != nil {
		t.Fatal(err)
	}
	e2, err := ReadEmbedding(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Method != e.Method || e2.K() != e.K() || e2.U.Rows != e.U.Rows || e2.V.Rows != e.V.Rows {
		t.Fatal("round trip changed metadata")
	}
	for i := range e.U.Data {
		if math.Abs(e.U.Data[i]-e2.U.Data[i]) > 1e-9*(1+math.Abs(e.U.Data[i])) {
			t.Fatalf("U[%d] %v != %v", i, e.U.Data[i], e2.U.Data[i])
		}
	}
	for i := range e.V.Data {
		if math.Abs(e.V.Data[i]-e2.V.Data[i]) > 1e-9*(1+math.Abs(e.V.Data[i])) {
			t.Fatalf("V[%d] %v != %v", i, e.V.Data[i], e2.V.Data[i])
		}
	}
}

func TestSaveLoadEmbedding(t *testing.T) {
	g := smallGraph(t)
	e, err := Embed(g, Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/emb.tsv"
	if err := SaveEmbedding(path, e); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEmbedding(path)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Score(0, 0) != e2.Score(0, 0) { // NaN guard
		t.Fatal("NaN after load")
	}
	if math.Abs(e.Score(1, 2)-e2.Score(1, 2)) > 1e-9 {
		t.Error("scores changed across save/load")
	}
}

func TestReadEmbeddingErrors(t *testing.T) {
	cases := []string{
		"",                                       // empty
		"#nope 1 1 1 1\n",                        // bad magic
		"#gebe m 1 1\n",                          // short header
		"#gebe m 1 1 0\n",                        // zero k
		"#gebe m 1 1 2\nu 0 1\n",                 // short row
		"#gebe m 1 1 2\nw 0 1 2\n",               // bad side
		"#gebe m 1 1 2\nu 5 1 2\n",               // index out of range
		"#gebe m 1 1 2\nu 0 1 zap\n",             // bad float
		"#gebe m 1 1 2\n#meta\n",                 // meta without key/value
		"#gebe m 1 1 2\n#meta sweeps zap\n",      // bad meta int
		"#gebe m 1 1 2\n#meta values 1 zap\n",    // bad meta float
		"#gebe m 1 1 2\n#meta converged maybe\n", // bad meta bool
	}
	for _, in := range cases {
		if _, err := ReadEmbedding(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEmbeddingMetaRoundTrip(t *testing.T) {
	g := smallGraph(t)
	e, err := GEBE(g, Options{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Force every diagnostic field to a distinctive value so the round
	// trip covers the whole #meta vocabulary.
	e.SigmaScale = 1.25
	e.Sweeps = 42
	e.SweepsSaved = 158
	e.Converged = true
	e.StopReason = "stagnated"
	e.WarmStarted = true
	e.Values = []float64{0.123456789012345678, 3.0000000001e-7, 0}

	var sb strings.Builder
	if err := WriteEmbedding(&sb, e); err != nil {
		t.Fatal(err)
	}
	e2, err := ReadEmbedding(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if e2.SigmaScale != e.SigmaScale || e2.Sweeps != e.Sweeps || e2.SweepsSaved != e.SweepsSaved ||
		e2.Converged != e.Converged || e2.StopReason != e.StopReason || e2.WarmStarted != e.WarmStarted {
		t.Errorf("meta changed: %+v", e2)
	}
	if len(e2.Values) != len(e.Values) {
		t.Fatalf("values count %d, want %d", len(e2.Values), len(e.Values))
	}
	for i := range e.Values {
		// %.17g is lossless for float64, so equality must be exact.
		if e2.Values[i] != e.Values[i] {
			t.Errorf("values[%d] %v != %v", i, e2.Values[i], e.Values[i])
		}
	}

	// Unknown #meta keys and bare comment lines must be skipped, not fatal.
	tolerant := "#gebe m 1 1 2\n#meta frobnicate 7\n# future extension\nu 0 1 2\nv 0 3 4\n"
	if _, err := ReadEmbedding(strings.NewReader(tolerant)); err != nil {
		t.Errorf("unknown meta key rejected: %v", err)
	}
}
