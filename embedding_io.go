package gebe

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"gebe/internal/core"
	"gebe/internal/dense"
)

// WriteEmbedding serializes an embedding as TSV: a header line
// "#gebe <method> <|U|> <|V|> <k>", optional "#meta <key> <values...>"
// lines carrying the solver diagnostics (eigenvalues, σ₁ scale, sweep
// counts, convergence, stop reason), then one line per node —
// "u <idx> <k floats>" for the U side followed by "v <idx> <k floats>".
func WriteEmbedding(w io.Writer, e *Embedding) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#gebe %s %d %d %d\n", e.Method, e.U.Rows, e.V.Rows, e.K()); err != nil {
		return fmt.Errorf("gebe: writing embedding: %w", err)
	}
	if err := writeMeta(bw, e); err != nil {
		return fmt.Errorf("gebe: writing embedding: %w", err)
	}
	write := func(side string, m *dense.Matrix) error {
		for i := 0; i < m.Rows; i++ {
			if _, err := fmt.Fprintf(bw, "%s\t%d", side, i); err != nil {
				return err
			}
			for _, x := range m.Row(i) {
				if _, err := fmt.Fprintf(bw, "\t%.10g", x); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("u", e.U); err != nil {
		return fmt.Errorf("gebe: writing embedding: %w", err)
	}
	if err := write("v", e.V); err != nil {
		return fmt.Errorf("gebe: writing embedding: %w", err)
	}
	return bw.Flush()
}

// writeMeta emits the optional "#meta" diagnostic lines. Zero-valued
// fields are omitted so embeddings from external tools stay minimal.
func writeMeta(bw *bufio.Writer, e *Embedding) error {
	if e.SigmaScale != 0 {
		if _, err := fmt.Fprintf(bw, "#meta sigma_scale %.17g\n", e.SigmaScale); err != nil {
			return err
		}
	}
	if e.Sweeps != 0 {
		if _, err := fmt.Fprintf(bw, "#meta sweeps %d\n", e.Sweeps); err != nil {
			return err
		}
	}
	if e.SweepsSaved != 0 {
		if _, err := fmt.Fprintf(bw, "#meta sweeps_saved %d\n", e.SweepsSaved); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "#meta converged %t\n", e.Converged); err != nil {
		return err
	}
	if e.WarmStarted {
		if _, err := fmt.Fprintf(bw, "#meta warm_start true\n"); err != nil {
			return err
		}
	}
	if e.StopReason != "" {
		if _, err := fmt.Fprintf(bw, "#meta stop_reason %s\n", e.StopReason); err != nil {
			return err
		}
	}
	if e.Sharded() {
		if _, err := fmt.Fprintf(bw, "#meta shard %d %d %d %d\n",
			e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardTotal); err != nil {
			return err
		}
	}
	if len(e.Values) > 0 {
		if _, err := fmt.Fprintf(bw, "#meta values"); err != nil {
			return err
		}
		for _, v := range e.Values {
			if _, err := fmt.Fprintf(bw, " %.17g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// parseMeta applies one "#meta" line to e. Unknown keys are ignored so
// newer writers stay readable by older readers and vice versa.
func parseMeta(e *core.Embedding, fields []string, line int) error {
	if len(fields) < 3 {
		return fmt.Errorf("gebe: line %d: #meta needs a key and a value", line)
	}
	key, vals := fields[1], fields[2:]
	bad := func(v string) error {
		return fmt.Errorf("gebe: line %d: bad #meta %s value %q", line, key, v)
	}
	switch key {
	case "sigma_scale":
		x, err := strconv.ParseFloat(vals[0], 64)
		if err != nil || !isFinite(x) {
			return bad(vals[0])
		}
		e.SigmaScale = x
	case "sweeps":
		n, err := strconv.Atoi(vals[0])
		if err != nil {
			return bad(vals[0])
		}
		e.Sweeps = n
	case "sweeps_saved":
		n, err := strconv.Atoi(vals[0])
		if err != nil {
			return bad(vals[0])
		}
		e.SweepsSaved = n
	case "converged":
		b, err := strconv.ParseBool(vals[0])
		if err != nil {
			return bad(vals[0])
		}
		e.Converged = b
	case "warm_start":
		b, err := strconv.ParseBool(vals[0])
		if err != nil {
			return bad(vals[0])
		}
		e.WarmStarted = b
	case "stop_reason":
		e.StopReason = vals[0]
	case "shard":
		// "#meta shard <index> <count> <offset> <total>": the item-side
		// shard identity cmd/gebe-shard stamps into split embeddings.
		if len(vals) != 4 {
			return fmt.Errorf("gebe: line %d: #meta shard needs 4 values, got %d", line, len(vals))
		}
		ns := make([]int, 4)
		for i, v := range vals {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return bad(v)
			}
			ns[i] = n
		}
		idx, count, offset, total := ns[0], ns[1], ns[2], ns[3]
		if count == 0 || idx >= count || offset > total {
			return fmt.Errorf("gebe: line %d: inconsistent #meta shard %d %d %d %d", line, idx, count, offset, total)
		}
		e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardTotal = idx, count, offset, total
	case "values":
		e.Values = make([]float64, len(vals))
		for i, v := range vals {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || !isFinite(x) {
				return bad(v)
			}
			e.Values[i] = x
		}
	}
	return nil
}

// SaveEmbedding writes an embedding to a file.
func SaveEmbedding(path string, e *Embedding) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gebe: %w", err)
	}
	if err := WriteEmbedding(f, e); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxSideCells caps rows×k per side of an embedding ReadEmbedding will
// allocate: 2³² float64 cells (32 GiB), about three times the paper's
// largest graph at k=128 (MAG, 10.5M users × 128 ≈ 1.35·10⁹ cells). The
// reader allocates both sides from the header before it sees a row, so
// without a cap a one-line header could ask for more memory than any
// machine has.
const maxSideCells uint64 = 1 << 32

// ErrEmbeddingTooLarge is wrapped by the error ReadEmbedding returns for
// a header whose U or V side exceeds maxSideCells.
var ErrEmbeddingTooLarge = errors.New("gebe: embedding dimensions too large")

// ReadEmbedding parses the format written by WriteEmbedding. The parser
// is strict — this is the load path of the serving layer, where a
// malformed file must fail at startup, not at query time:
// non-finite vector entries, duplicate (side, index) rows, and
// truncated streams (fewer rows than the header promises) are all
// errors, as are header dimensions above maxSideCells
// (ErrEmbeddingTooLarge).
func ReadEmbedding(r io.Reader) (*Embedding, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("gebe: empty embedding stream")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 5 || header[0] != "#gebe" {
		return nil, fmt.Errorf("gebe: bad embedding header %q", sc.Text())
	}
	nu, err1 := strconv.Atoi(header[2])
	nv, err2 := strconv.Atoi(header[3])
	k, err3 := strconv.Atoi(header[4])
	if err1 != nil || err2 != nil || err3 != nil || nu < 0 || nv < 0 || k <= 0 {
		return nil, fmt.Errorf("gebe: bad embedding dimensions in header %q", sc.Text())
	}
	// Dividing keeps the check itself from overflowing rows×k.
	if lim := maxSideCells / uint64(k); uint64(nu) > lim || uint64(nv) > lim {
		return nil, fmt.Errorf("%w: %dx%d and %dx%d, limit %d cells per side",
			ErrEmbeddingTooLarge, nu, k, nv, k, maxSideCells)
	}
	e := &core.Embedding{
		U:      dense.New(nu, k),
		V:      dense.New(nv, k),
		Method: header[1],
	}
	seen := map[string]*rowSet{"u": newRowSet(nu), "v": newRowSet(nv)}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "#meta" {
			if err := parseMeta(e, fields, line); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(fields[0], "#") {
			continue // future header extensions
		}
		if len(fields) != k+2 {
			return nil, fmt.Errorf("gebe: line %d: want %d fields, got %d", line, k+2, len(fields))
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("gebe: line %d: bad index %q", line, fields[1])
		}
		var m *dense.Matrix
		switch fields[0] {
		case "u":
			m = e.U
		case "v":
			m = e.V
		default:
			return nil, fmt.Errorf("gebe: line %d: bad side %q", line, fields[0])
		}
		if idx < 0 || idx >= m.Rows {
			return nil, fmt.Errorf("gebe: line %d: index %d outside %d rows", line, idx, m.Rows)
		}
		if !seen[fields[0]].mark(idx) {
			return nil, fmt.Errorf("gebe: line %d: duplicate %s row %d", line, fields[0], idx)
		}
		row := m.Row(idx)
		for j := 0; j < k; j++ {
			x, err := strconv.ParseFloat(fields[j+2], 64)
			if err != nil {
				return nil, fmt.Errorf("gebe: line %d: bad value %q", line, fields[j+2])
			}
			if !isFinite(x) {
				return nil, fmt.Errorf("gebe: line %d: non-finite value %q", line, fields[j+2])
			}
			row[j] = x
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gebe: reading embedding: %w", err)
	}
	if got := seen["u"].count; got != nu {
		return nil, fmt.Errorf("gebe: truncated embedding: %d of %d u rows", got, nu)
	}
	if got := seen["v"].count; got != nv {
		return nil, fmt.Errorf("gebe: truncated embedding: %d of %d v rows", got, nv)
	}
	// A shard's slice must fit inside the full item side it claims to be
	// cut from; a violation means the file was truncated or hand-edited.
	if e.Sharded() && e.ShardOffset+nv > e.ShardTotal {
		return nil, fmt.Errorf("gebe: shard %d/%d covers rows [%d,%d) of only %d items",
			e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardOffset+nv, e.ShardTotal)
	}
	return e, nil
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// rowSet tracks which row indices have been filled — one bit per row,
// so duplicate and truncation detection cost |rows|/8 bytes.
type rowSet struct {
	bits  []uint64
	count int
}

func newRowSet(n int) *rowSet {
	return &rowSet{bits: make([]uint64, (n+63)/64)}
}

// mark records idx and reports whether it was fresh.
func (s *rowSet) mark(idx int) bool {
	w, b := idx/64, uint64(1)<<(idx%64)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.count++
	return true
}

// LoadEmbedding reads an embedding from a file.
func LoadEmbedding(path string) (*Embedding, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gebe: %w", err)
	}
	defer f.Close()
	e, err := ReadEmbedding(f)
	if err != nil {
		return nil, fmt.Errorf("gebe: %s: %w", path, err)
	}
	return e, nil
}
