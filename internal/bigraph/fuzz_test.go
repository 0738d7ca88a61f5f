package bigraph

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzReadEdgeList runs arbitrary bytes through ReadEdgeList: no input
// may panic, a rejection returns an error and no graph, and an accepted
// graph holds only in-range, positive, finite edges and survives
// WriteEdgeList → ReadEdgeList with the same edges (weights bit for bit:
// the writer's %g is the shortest exact form) and the same labels. Seed
// corpus: testdata/fuzz/FuzzReadEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatalf("rejected %q (%v) but returned a graph", data, err)
			}
			return
		}
		if g == nil {
			t.Fatalf("accepted %q without a graph", data)
		}
		if len(g.ULabels) != g.NU || len(g.VLabels) != g.NV {
			t.Fatalf("%q: %d/%d labels for %dx%d nodes", data, len(g.ULabels), len(g.VLabels), g.NU, g.NV)
		}
		for _, e := range g.Edges {
			if e.U < 0 || e.U >= g.NU || e.V < 0 || e.V >= g.NV || !(e.W > 0) || math.IsInf(e.W, 0) {
				t.Fatalf("%q: accepted bad edge %+v", data, e)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q rewritten as %q does not read back: %v", data, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(g2, g) {
			t.Fatalf("%q rewritten as %q reads back as %+v, want %+v", data, buf.Bytes(), g2, g)
		}
	})
}
