package gebe

import (
	"bytes"
	"errors"
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
