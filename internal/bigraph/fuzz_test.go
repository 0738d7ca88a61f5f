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

// FuzzReadEdgeListMatchesReference: ReadEdgeList, which splits fields in
// place in the scanner's buffer, accepts exactly what the string-based
// referenceReadEdgeList accepts, with the same error text (line numbers
// included) and the same graph: edges, weights bit for bit, labels.
// Seed corpus: testdata/fuzz/FuzzReadEdgeListMatchesReference (Unicode
// spaces U+00A0 and U+0085, CRLF, indented comments, 1 and 4 fields,
// bad, NaN and overflowing weights).
func FuzzReadEdgeListMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceReadEdgeList(bytes.NewReader(data))
		got, err := ReadEdgeList(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, reference %v", data, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: read %+v, reference %+v", data, got, want)
		}
	})
}
