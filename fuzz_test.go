package gebe

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxCells bounds the embedding a fuzzed header may make
// ReadEmbedding allocate. The reader sizes both sides from the header
// before it sees a row, so a few bytes such as "#gebe m 9999999 0 64"
// would otherwise cost gigabytes per input and stall or kill the
// fuzzer; headers between this bound and the reader's own cap are
// skipped, not run.
const fuzzMaxCells = 1 << 20

// fuzzHeader parses the first line the way ReadEmbedding does and
// reports the side sizes and width it asks for; ok is false when the
// line is not a well-formed header.
func fuzzHeader(data []byte) (nu, nv, k uint64, ok bool) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) != 5 || f[0] != "#gebe" {
		return 0, 0, 0, false
	}
	u, err1 := strconv.Atoi(f[2])
	v, err2 := strconv.Atoi(f[3])
	w, err3 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil || err3 != nil || u < 0 || v < 0 || w <= 0 {
		return 0, 0, 0, false
	}
	return uint64(u), uint64(v), uint64(w), true
}

// FuzzReadEmbedding runs arbitrary bytes — header, #meta and #meta shard
// lines, rows — through ReadEmbedding: no input may panic, a rejection
// returns an error and no embedding, a header above the per-side cap is
// refused with ErrEmbeddingTooLarge, and an accepted embedding is stable
// under write → read → write (both writes byte-equal; the first write
// already rounds vectors to the writer's %.10g, so only the second pass
// can be compared exactly). Seed corpus: testdata/fuzz/FuzzReadEmbedding.
func FuzzReadEmbedding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if nu, nv, k, ok := fuzzHeader(data); ok && nu+nv > fuzzMaxCells/k {
			if lim := maxSideCells / k; nu <= lim && nv <= lim {
				t.Skip("header allocates more than fuzzMaxCells")
			}
			if _, err := ReadEmbedding(bytes.NewReader(data)); !errors.Is(err, ErrEmbeddingTooLarge) {
				t.Fatalf("header above the cap gave %v, want ErrEmbeddingTooLarge", err)
			}
			return
		}
		e, err := ReadEmbedding(bytes.NewReader(data))
		if err != nil {
			if e != nil {
				t.Fatalf("rejected %q (%v) but returned an embedding", data, err)
			}
			return
		}
		if e == nil {
			t.Fatalf("accepted %q without an embedding", data)
		}
		var first, second bytes.Buffer
		if err := WriteEmbedding(&first, e); err != nil {
			t.Fatal(err)
		}
		e2, err := ReadEmbedding(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%q rewritten as %q does not read back: %v", data, first.Bytes(), err)
		}
		if err := WriteEmbedding(&second, e2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%q: rewrite is unstable:\n%s\nthen\n%s", data, first.Bytes(), second.Bytes())
		}
	})
}

// fuzzPlans are the block plans FuzzReadEmbeddingMatchesReference reads
// every input with: ReadEmbedding's own, and two whose blocks and
// worker ranges are a few bytes long, so fuzz-sized inputs cross block
// and worker boundaries mid-file.
var fuzzPlans = []blockPlan{
	readPlan(),
	{block: 32, minPart: 1, workers: 3},
	{block: 128, minPart: 8, workers: 2},
}

// FuzzReadEmbeddingMatchesReference reads arbitrary bytes with
// ReadEmbedding's block-parallel parser under every plan in fuzzPlans
// and with the line-at-a-time reader it replaced: both must accept or
// reject alike, with the same error text (the first error in file
// order, with its line number), and fill U, V and every #meta field
// with the same bits. Seed corpus:
// testdata/fuzz/FuzzReadEmbeddingMatchesReference.
func FuzzReadEmbeddingMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if nu, nv, k, ok := fuzzHeader(data); ok && nu+nv > fuzzMaxCells/k {
			if lim := maxSideCells / k; nu <= lim && nv <= lim {
				t.Skip("header allocates more than fuzzMaxCells")
			}
		}
		want, wantErr := referenceReadEmbedding(bytes.NewReader(data))
		for _, plan := range fuzzPlans {
			got, err := readEmbedding(bytes.NewReader(data), plan)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("plan %+v on %q: error %v, reference %v", plan, data, err, wantErr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("plan %+v on %q: rejected (%v) but returned an embedding", plan, data, err)
				}
				continue
			}
			if d := embeddingDiff(got, want); d != "" {
				t.Fatalf("plan %+v on %q: %s", plan, data, d)
			}
		}
	})
}

// embeddingDiff describes the first difference between two embeddings,
// comparing floats by their bits; "" when they are the same.
func embeddingDiff(a, b *Embedding) string {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.U.Rows != b.U.Rows || a.U.Cols != b.U.Cols || !sameBits(a.U.Data, b.U.Data):
		return "U differs"
	case a.V.Rows != b.V.Rows || a.V.Cols != b.V.Cols || !sameBits(a.V.Data, b.V.Data):
		return "V differs"
	case !sameBits(a.Values, b.Values):
		return fmt.Sprintf("values %v, want %v", a.Values, b.Values)
	case math.Float64bits(a.SigmaScale) != math.Float64bits(b.SigmaScale):
		return fmt.Sprintf("sigma_scale %v, want %v", a.SigmaScale, b.SigmaScale)
	}
	ma, mb := *a, *b
	ma.U, ma.V, ma.Values, ma.SigmaScale = nil, nil, nil, 0
	mb.U, mb.V, mb.Values, mb.SigmaScale = nil, nil, nil, 0
	if !reflect.DeepEqual(ma, mb) {
		return fmt.Sprintf("meta %+v, want %+v", ma, mb)
	}
	return ""
}

// FuzzParseDecimal checks parseFloat, the exact decimal fast path with
// its strconv fallback, against strconv.ParseFloat bit for bit and
// error for error, and that the fast path never takes an input
// ParseFloat rejects. Seed corpus: testdata/fuzz/FuzzParseDecimal.
func FuzzParseDecimal(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := strconv.ParseFloat(s, 64)
		got, err := parseFloat([]byte(s))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (%#x), ParseFloat %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("parseFloat(%q) error %v, ParseFloat %v", s, err, wantErr)
		}
		if x, ok := parseDecimal([]byte(s)); ok && (wantErr != nil || math.Float64bits(x) != math.Float64bits(want)) {
			t.Fatalf("fast path took %q as %v; ParseFloat gives %v, %v", s, x, want, wantErr)
		}
	})
}
