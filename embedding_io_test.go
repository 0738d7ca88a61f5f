package gebe

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"gebe/internal/dense"
)

// TestReadEmbeddingHardening exercises the strict-parse paths the
// serving layer depends on: a malformed file must fail at load, never
// produce an embedding that scores wrong (NaN/Inf), silently drops
// rows (truncation), or lets a later duplicate overwrite an earlier
// row. Each case names the defect and the fragment of the error that
// must identify it.
func TestReadEmbeddingHardening(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{
			name:    "NaN value",
			in:      "#gebe m 1 1 2\nu 0 NaN 1\nv 0 1 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "positive Inf value",
			in:      "#gebe m 1 1 2\nu 0 +Inf 1\nv 0 1 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "negative Inf value",
			in:      "#gebe m 1 1 2\nu 0 1 2\nv 0 -Inf 2\n",
			wantErr: "non-finite",
		},
		{
			name:    "duplicate u row",
			in:      "#gebe m 2 1 2\nu 0 1 2\nu 0 3 4\nu 1 5 6\nv 0 7 8\n",
			wantErr: "duplicate u row 0",
		},
		{
			name:    "duplicate v row",
			in:      "#gebe m 1 2 2\nu 0 1 2\nv 1 3 4\nv 1 5 6\nv 0 7 8\n",
			wantErr: "duplicate v row 1",
		},
		{
			name:    "truncated u side",
			in:      "#gebe m 3 1 2\nu 0 1 2\nu 1 3 4\nv 0 5 6\n",
			wantErr: "truncated embedding: 2 of 3 u rows",
		},
		{
			name:    "truncated v side (stream cut mid-file)",
			in:      "#gebe m 1 4 2\nu 0 1 2\nv 0 1 2\nv 1 3 4\n",
			wantErr: "truncated embedding: 2 of 4 v rows",
		},
		{
			name:    "rows only from header",
			in:      "#gebe m 1 1 2\n",
			wantErr: "truncated",
		},
		{
			name:    "short row",
			in:      "#gebe m 1 1 2\nu 0 1\nv 0 1 2\n",
			wantErr: "want 4 fields",
		},
		{
			name:    "overlong row",
			in:      "#gebe m 1 1 2\nu 0 1 2 3\nv 0 1 2\n",
			wantErr: "want 4 fields",
		},
		{
			name:    "header dimension overflow",
			in:      "#gebe m 4611686018427387904 1 4\n",
			wantErr: "too large",
		},
		{
			name:    "non-finite sigma_scale meta",
			in:      "#gebe m 1 1 2\n#meta sigma_scale NaN\nu 0 1 2\nv 0 1 2\n",
			wantErr: "bad #meta sigma_scale",
		},
		{
			name:    "non-finite values meta",
			in:      "#gebe m 1 1 2\n#meta values 1 +Inf\nu 0 1 2\nv 0 1 2\n",
			wantErr: "bad #meta values",
		},
		{
			name:    "shard meta arity",
			in:      "#gebe m 1 1 2\n#meta shard 0 2 0\nu 0 1 2\nv 0 1 2\n",
			wantErr: "#meta shard needs 4 values",
		},
		{
			name:    "shard index outside count",
			in:      "#gebe m 1 1 2\n#meta shard 2 2 0 4\nu 0 1 2\nv 0 1 2\n",
			wantErr: "inconsistent #meta shard",
		},
		{
			name:    "shard slice outside total",
			in:      "#gebe m 1 2 2\n#meta shard 1 2 3 4\nu 0 1 2\nv 0 1 2\nv 1 3 4\n",
			wantErr: "covers rows [3,5) of only 4 items",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEmbedding(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("input accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// Rows may arrive in any order and interleaved across sides; a
	// complete, finite file must still load.
	ok := "#gebe m 2 2 2\nv 1 1 2\nu 1 3 4\nv 0 5 6\nu 0 7 8\n"
	e, err := ReadEmbedding(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("interleaved complete embedding rejected: %v", err)
	}
	if e.U.At(1, 0) != 3 || e.V.At(0, 1) != 6 {
		t.Errorf("rows landed wrong: U=%v V=%v", e.U, e.V)
	}
}

// TestReadEmbeddingHeaderTooLarge: a header whose cell count fits in an
// int but not in memory (2·(2⁶²−1) cells; the old overflow guard let it
// through to a makeslice panic) must be refused with
// ErrEmbeddingTooLarge before anything is allocated, on either side.
func TestReadEmbeddingHeaderTooLarge(t *testing.T) {
	for _, in := range []string{
		"#gebe x 4611686018427387903 0 2\n",
		"#gebe x 0 4611686018427387903 2\n",
		"#gebe x 1 1 4294967297\n",
		"#gebe x 65537 0 65536\n",
	} {
		if _, err := ReadEmbedding(strings.NewReader(in)); !errors.Is(err, ErrEmbeddingTooLarge) {
			t.Errorf("ReadEmbedding(%q) = %v, want ErrEmbeddingTooLarge", in, err)
		}
	}
	// Small headers are untouched by the cap: an empty embedding loads.
	if _, err := ReadEmbedding(strings.NewReader("#gebe x 0 0 1\n")); err != nil {
		t.Errorf("empty embedding header rejected: %v", err)
	}
}

// TestShardMetaRoundTrip: a shard identity stamped by the splitter must
// survive write → read, and an unsharded embedding must not grow one.
func TestShardMetaRoundTrip(t *testing.T) {
	in := "#gebe m 2 3 2\nu 0 1 2\nu 1 3 4\nv 0 5 6\nv 1 7 8\nv 2 9 10\n"
	e, err := ReadEmbedding(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e.Sharded() {
		t.Fatalf("unsharded embedding parsed as shard: %+v", e)
	}
	e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardTotal = 1, 3, 4, 9
	var sb strings.Builder
	if err := WriteEmbedding(&sb, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "#meta shard 1 3 4 9\n") {
		t.Fatalf("shard meta line missing:\n%s", sb.String())
	}
	back, err := ReadEmbedding(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.ShardIndex != 1 || back.ShardCount != 3 || back.ShardOffset != 4 || back.ShardTotal != 9 {
		t.Fatalf("shard meta did not round-trip: %+v", back)
	}
}

// TestWriteEmbeddingMatchesFmt: the writer's AppendFloat rows are byte
// for byte what one fmt.Fprintf("\t%.10g") per value wrote, over random
// bit patterns and the special values: ±Inf, NaN, ±0, subnormals and
// the extremes.
func TestWriteEmbeddingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	special := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e21, 1e-5, 123456789012, 1e10, 9999999999.5,
	}
	e := &Embedding{U: dense.New(3000, 7), V: dense.New(2000, 7), Method: "m", Values: []float64{1, 2}}
	for i := range e.U.Data {
		e.U.Data[i] = math.Float64frombits(rng.Uint64())
	}
	for i := range e.V.Data {
		if i < len(special) {
			e.V.Data[i] = special[i]
		} else {
			e.V.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20))
		}
	}
	var want bytes.Buffer
	bw := bufio.NewWriter(&want)
	fmt.Fprintf(bw, "#gebe %s %d %d %d\n", e.Method, e.U.Rows, e.V.Rows, e.K())
	if err := writeMeta(bw, e); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		m    *dense.Matrix
	}{{"u", e.U}, {"v", e.V}} {
		for i := 0; i < side.m.Rows; i++ {
			fmt.Fprintf(bw, "%s\t%d", side.name, i)
			for _, x := range side.m.Row(i) {
				fmt.Fprintf(bw, "\t%.10g", x)
			}
			bw.WriteByte('\n')
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteEmbedding(&got, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("output has %d lines, fmt wrote %d", len(g), len(w))
	}
}

// TestReadEmbeddingMatchesReferenceLarge reads a written embedding of
// about 1 MiB, and copies of it with one defect each, with
// ReadEmbedding's plan and with a plan of many small blocks, against
// the reference reader: the accepted files load bit for bit the same
// and the rejected ones fail with the same first error. The defects
// sit far apart in the file, so the parallel pass meets them in
// different blocks and worker ranges from their first copies.
func TestReadEmbeddingMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 23))
	e := &Embedding{U: dense.Random(3000, 16, rng), V: dense.Random(3000, 16, rng), Method: "m", Sweeps: 4}
	var buf bytes.Buffer
	if err := WriteEmbedding(&buf, e); err != nil {
		t.Fatal(err)
	}
	file := buf.String()
	// edit replaces the first line starting with prefix (from the back
	// when last) by repl.
	edit := func(prefix, repl string, last bool) string {
		i := strings.Index(file, "\n"+prefix)
		if last {
			i = strings.LastIndex(file, "\n"+prefix)
		}
		if i < 0 {
			t.Fatalf("no line starts with %q", prefix)
		}
		j := i + 1 + strings.IndexByte(file[i+1:], '\n')
		return file[:i+1] + repl + file[j:]
	}
	row := func(side string, idx int, val string) string {
		return side + "\t" + strconv.Itoa(idx) + strings.Repeat("\t"+val, 16)
	}
	cases := map[string]string{
		"valid":                 file,
		"crlf":                  strings.ReplaceAll(file, "\n", "\r\n"),
		"meta at the end":       file + "#meta stop_reason tol\n#meta values 1 2 3\n",
		"duplicate across file": edit("v\t2999\t", row("v", 3, "1"), false),
		"duplicate then NaN":    edit("v\t2999\t", row("v", 3, "NaN"), false),
		"early duplicate":       edit("u\t7\t", row("u", 2998, "1"), false),
		"two defects":           edit("u\t5\t", row("u", 5, "x"), false)[:len(file)/2] + "#meta sweeps x\n" + file[len(file)/2:],
		"NaN late":              edit("v\t2500\t", row("v", 2500, "NaN"), false),
		"short row":             edit("u\t1500\t", "u\t1500\t1", false),
		"cut mid-line":          file[:len(file)-40],
		"bad meta late":         file + "#meta sigma_scale NaN\n",
		"nbsp separators":       edit("v\t100\t", strings.ReplaceAll(row("v", 100, "0.5"), "\t", "\u00a0"), false),
	}
	plans := []blockPlan{readPlan(), {block: 1 << 16, minPart: 1024, workers: 4}}
	for name, in := range cases {
		want, wantErr := referenceReadEmbedding(strings.NewReader(in))
		for _, plan := range plans {
			got, err := readEmbedding(strings.NewReader(in), plan)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("%s, plan %+v: error %v, reference %v", name, plan, err, wantErr)
				continue
			}
			if err == nil {
				if d := embeddingDiff(got, want); d != "" {
					t.Errorf("%s, plan %+v: %s", name, plan, d)
				}
			}
		}
	}
}

// TestReadEmbeddingLineCap: a line of 64 MiB with its newline still
// reads, one byte more fails with bufio.ErrTooLong, as the reference
// reader's Scanner limit has it.
func TestReadEmbeddingLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 64 MiB lines")
	}
	for _, n := range []int{maxLineBytes - 1, maxLineBytes} {
		in := "#gebe m 1 1 1\nu 0 1\n#" + strings.Repeat("x", n-1) + "\nv 0 2\n"
		_, wantErr := referenceReadEmbedding(strings.NewReader(in))
		_, err := ReadEmbedding(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("line of %d bytes: error %v, reference %v", n, err, wantErr)
		}
		if n == maxLineBytes && !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("line of %d bytes: error %v, want bufio.ErrTooLong", n, err)
		}
	}
}

// BenchmarkReadEmbedding times one load of a written 40000×32 item side
// (17 MB, serve-exact's item count doubled) against the reference
// reader, and one write of it.
func BenchmarkReadEmbedding(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	e := &Embedding{U: dense.Random(0, 32, rng), V: dense.Random(40000, 32, rng), Method: "m"}
	var buf bytes.Buffer
	if err := WriteEmbedding(&buf, e); err != nil {
		b.Fatal(err)
	}
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := ReadEmbedding(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := referenceReadEmbedding(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			if err := WriteEmbedding(io.Discard, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadEmbeddingReaderErrors: streams that arrive a byte at a time,
// stall, or fail part-way read as under the reference reader — what
// arrived before a read error is parsed, its partial last line
// included, and then the error is reported with the same text. Both
// readers first ask for 64 KiB, so a stream that fails on its second
// read has handed both the same bytes.
func TestReadEmbeddingReaderErrors(t *testing.T) {
	valid := "#gebe m 2 1 2\nu 0 1 2\nu 1 3 4\nv 0 5 6\n"
	gone := errors.New("disk gone")
	failAfter := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(gone))
	}
	cases := map[string]func() io.Reader{
		"one byte at a time":   func() io.Reader { return iotest.OneByteReader(strings.NewReader(valid)) },
		"half reads":           func() io.Reader { return iotest.HalfReader(strings.NewReader(valid)) },
		"EOF with the data":    func() io.Reader { return iotest.DataErrReader(strings.NewReader(valid)) },
		"timeout after data":   func() io.Reader { return iotest.TimeoutReader(strings.NewReader(valid)) },
		"fails at once":        func() io.Reader { return iotest.ErrReader(gone) },
		"fails after rows":     func() io.Reader { return failAfter(valid) },
		"fails mid-line":       func() io.Reader { return failAfter(valid[:len(valid)-3]) },
		"fails after bad line": func() io.Reader { return failAfter("#gebe m 2 1 2\nu 0 1\n") },
		"never makes progress": func() io.Reader { return emptyReader{} },
		"stalls after header":  func() io.Reader { return io.MultiReader(strings.NewReader("#gebe m 1 1 1\n"), emptyReader{}) },
	}
	for name, r := range cases {
		_, wantErr := referenceReadEmbedding(r())
		_, err := ReadEmbedding(r())
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, reference %v", name, err, wantErr)
		}
	}
}

// emptyReader returns no bytes and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }
