package gebe

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/par"
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
	// Each row is formatted into one reused line buffer; AppendFloat's
	// 'g' at precision 10 writes what "%.10g" does.
	var line []byte
	write := func(side byte, m *dense.Matrix) error {
		for i := 0; i < m.Rows; i++ {
			line = append(line[:0], side, '\t')
			line = strconv.AppendInt(line, int64(i), 10)
			for _, x := range m.Row(i) {
				line = append(line, '\t')
				line = strconv.AppendFloat(line, x, 'g', 10, 64)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write('u', e.U); err != nil {
		return fmt.Errorf("gebe: writing embedding: %w", err)
	}
	if err := write('v', e.V); err != nil {
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

// maxLineBytes caps one line, its newline included; a longer line
// fails with bufio.ErrTooLong.
const maxLineBytes = 64 << 20

// firstBlock is the reader's first buffer: a small file costs no more.
const firstBlock = 64 << 10

// blockPlan sizes ReadEmbedding's blocks and their split across
// workers. The buffer starts at min(firstBlock, block) bytes and grows
// fourfold to block while the stream keeps filling it, and beyond that
// only to fit one line.
type blockPlan struct {
	block   int
	minPart int // fewest bytes one worker parses
	workers int
}

// readPlan is ReadEmbedding's plan: 4 MiB blocks parsed by up to
// GOMAXPROCS workers, at least 64 KiB each, so a small block costs no
// fork/join.
func readPlan() blockPlan {
	return blockPlan{block: 4 << 20, minPart: 64 << 10, workers: runtime.GOMAXPROCS(0)}
}

// ReadEmbedding parses the format written by WriteEmbedding. The parser
// is strict — this is the load path of the serving layer, where a
// malformed file must fail at startup, not at query time:
// non-finite vector entries, duplicate (side, index) rows, and
// truncated streams (fewer rows than the header promises) are all
// errors, as are header dimensions above maxSideCells
// (ErrEmbeddingTooLarge) and lines over 64 MiB. An invalid file is
// reported by its first error in file order.
//
// The stream is read in blocks of whole lines, each split into
// contiguous line ranges parsed on the shared worker pool (DESIGN.md §4,
// "Embedding load, bit for bit"); the values are strconv.ParseFloat's
// bit for bit.
func ReadEmbedding(r io.Reader) (*Embedding, error) {
	return readEmbedding(r, readPlan())
}

func readEmbedding(r io.Reader, plan blockPlan) (*Embedding, error) {
	lb := &lineBlocks{r: r, buf: make([]byte, min(firstBlock, plan.block)), block: plan.block}
	block, err := lb.next()
	if err != nil || block == nil {
		return nil, fmt.Errorf("gebe: empty embedding stream")
	}
	first, rest, _ := bytes.Cut(block, []byte{'\n'})
	text := string(bytes.TrimSuffix(first, []byte("\r")))
	header := strings.Fields(text)
	if len(header) != 5 || header[0] != "#gebe" {
		return nil, fmt.Errorf("gebe: bad embedding header %q", text)
	}
	nu, err1 := strconv.Atoi(header[2])
	nv, err2 := strconv.Atoi(header[3])
	k, err3 := strconv.Atoi(header[4])
	if err1 != nil || err2 != nil || err3 != nil || nu < 0 || nv < 0 || k <= 0 {
		return nil, fmt.Errorf("gebe: bad embedding dimensions in header %q", text)
	}
	// Dividing keeps the check itself from overflowing rows×k.
	if lim := maxSideCells / uint64(k); uint64(nu) > lim || uint64(nv) > lim {
		return nil, fmt.Errorf("%w: %dx%d and %dx%d, limit %d cells per side",
			ErrEmbeddingTooLarge, nu, k, nv, k, maxSideCells)
	}
	rd := &embeddingReader{
		e: &core.Embedding{
			U:      dense.New(nu, k),
			V:      dense.New(nv, k),
			Method: header[1],
		},
		seenU: make(rowBits, (nu+63)/64),
		seenV: make(rowBits, (nv+63)/64),
	}
	parsers := make([]lineParser, max(plan.workers, 1))
	for i := range parsers {
		parsers[i].rd = rd
	}
	line := 1
	for block = rest; ; {
		if line, err = rd.parseBlock(block, line, parsers, plan.minPart); err != nil {
			return nil, err
		}
		if block, err = lb.next(); err != nil {
			return nil, fmt.Errorf("gebe: reading embedding: %w", err)
		}
		if block == nil {
			break
		}
	}
	e := rd.e
	if got := rd.seenU.count(); got != nu {
		return nil, fmt.Errorf("gebe: truncated embedding: %d of %d u rows", got, nu)
	}
	if got := rd.seenV.count(); got != nv {
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

// lineBlocks cuts a stream into blocks of whole lines without ever
// holding more than one block and one partial line.
type lineBlocks struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read but not yet handed out
	block    int // the size the buffer grows to while blocks fill it
	err      error
}

// next returns the next block: every whole line in a full buffer, each
// ending in '\n', or, once the stream has ended or failed, all that is
// left, whose last line may have none. The block is valid until the
// next call. next returns nil at a clean end, the read error after the
// last block of a failed stream, and bufio.ErrTooLong when one line
// fills maxLineBytes.
func (lb *lineBlocks) next() ([]byte, error) {
	for {
		if lb.err != nil {
			rest := lb.buf[lb.off:lb.end]
			lb.off = lb.end
			if len(rest) > 0 {
				return rest, nil
			}
			if lb.err == io.EOF {
				return nil, nil
			}
			return nil, lb.err
		}
		if lb.end == len(lb.buf) {
			if lb.off == 0 {
				if i := bytes.LastIndexByte(lb.buf, '\n'); i >= 0 {
					lb.off = i + 1
					return lb.buf[:i+1], nil
				}
				// One line fills the buffer.
				if len(lb.buf) >= maxLineBytes {
					return nil, bufio.ErrTooLong
				}
				lb.resize(min(2*len(lb.buf), maxLineBytes))
			} else {
				lb.resize(min(4*len(lb.buf), max(lb.block, len(lb.buf))))
			}
		}
		lb.fill()
	}
}

// resize moves the unread bytes to the front of a buffer of n bytes,
// reallocating only when n differs from the current size.
func (lb *lineBlocks) resize(n int) {
	buf := lb.buf
	if n != len(buf) {
		buf = make([]byte, n)
	}
	lb.end = copy(buf, lb.buf[lb.off:lb.end])
	lb.buf, lb.off = buf, 0
}

// fill reads once into the free tail of the buffer, retrying empty
// reads as bufio.Scanner does.
func (lb *lineBlocks) fill() {
	for empties := 0; ; empties++ {
		n, err := lb.r.Read(lb.buf[lb.end:])
		if n < 0 || n > len(lb.buf)-lb.end {
			lb.err = bufio.ErrBadReadCount
			return
		}
		lb.end += n
		if err != nil {
			lb.err = err
			return
		}
		if n > 0 {
			return
		}
		if empties == 100 {
			lb.err = io.ErrNoProgress
			return
		}
	}
}

// embeddingReader is the state one ReadEmbedding call shares between
// its line parsers.
type embeddingReader struct {
	e            *core.Embedding
	seenU, seenV rowBits
}

// lineParser parses lines for one worker. Its scratch is reused from
// line to line and block to block.
type lineParser struct {
	rd     *embeddingReader
	fields [][]byte
	claims []int      // rows claimed in the current lines: u row i as i, v row i as ^i
	metas  []metaLine // #meta lines set aside, in order
}

// metaLine is a #meta line set aside for the sequential step: its line
// number within its range, and its text (valid for the block).
type metaLine struct {
	line int
	text []byte
}

// parseBlock parses the lines of one block, the first of which follows
// line number `line`, and returns the number of the block's last line.
//
// A block large enough to share is cut at line boundaries into one
// range per parser, parsed on the par pool, and its #meta lines are
// applied in file order after the join. A parser stops at its range's
// first error, whose line number it cannot know; then the block's
// claims are released and the block is parsed again on one goroutine,
// which finds the first error in file order with its line number — the
// parallel pass cannot tell which of two duplicate lines came first.
func (rd *embeddingReader) parseBlock(block []byte, line int, parsers []lineParser, minPart int) (int, error) {
	parts := min(len(parsers), len(block)/max(minPart, 1))
	if parts <= 1 {
		return parsers[0].parseLines(block, line, true)
	}
	ranges := make([][]byte, parts)
	lo := 0
	for i := range ranges {
		hi := len(block)
		if i < parts-1 {
			hi = max(lo, len(block)*(i+1)/parts)
			if j := bytes.IndexByte(block[hi:], '\n'); j >= 0 {
				hi += j + 1
			} else {
				hi = len(block)
			}
		}
		ranges[i], lo = block[lo:hi], hi
	}
	lines := make([]int, parts)
	errs := make([]error, parts)
	par.Parts(parts, func(i int) {
		lines[i], errs[i] = parsers[i].parseLines(ranges[i], 0, false)
	})
	if slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		for i := range parsers[:parts] {
			for _, c := range parsers[i].claims {
				if c >= 0 {
					rd.seenU.release(c)
				} else {
					rd.seenV.release(^c)
				}
			}
		}
		return parsers[0].parseLines(block, line, true)
	}
	for i := range parsers[:parts] {
		for _, m := range parsers[i].metas {
			if err := parseMeta(rd.e, strings.Fields(string(m.text)), line+m.line); err != nil {
				return 0, err
			}
		}
		line += lines[i]
	}
	return line, nil
}

// parseLines parses the lines of b in order, numbering them from
// line+1, and returns the last line's number; it stops at the first
// error. #meta lines are applied as they come when apply is set, and
// set aside in p.metas otherwise.
func (p *lineParser) parseLines(b []byte, line int, apply bool) (int, error) {
	p.claims, p.metas = p.claims[:0], p.metas[:0]
	for len(b) > 0 {
		var text []byte
		text, b, _ = bytes.Cut(b, []byte{'\n'})
		line++
		meta, err := p.parseLine(text, line)
		if err != nil {
			return 0, err
		}
		switch {
		case meta && apply:
			if err := parseMeta(p.rd.e, strings.Fields(string(text)), line); err != nil {
				return 0, err
			}
		case meta:
			p.metas = append(p.metas, metaLine{line, text})
		}
	}
	return line, nil
}

// parseLine checks one line and stores it if it is a vector row,
// reporting whether it is a #meta line, which the caller applies. Blank
// lines and other "#" lines are skipped. The checks run in a fixed
// order, which decides the error a line with several defects reports:
// field count, index syntax, side, index range, duplicate row, then each
// value's syntax and finiteness. line is the line number the error
// names.
func (p *lineParser) parseLine(text []byte, line int) (meta bool, err error) {
	f := bigraph.SplitFields(p.fields[:0], text)
	p.fields = f
	if len(f) == 0 {
		return false, nil
	}
	if string(f[0]) == "#meta" {
		return true, nil
	}
	if f[0][0] == '#' {
		return false, nil // future header extensions
	}
	e := p.rd.e
	k := e.U.Cols
	if len(f) != k+2 {
		return false, fmt.Errorf("gebe: line %d: want %d fields, got %d", line, k+2, len(f))
	}
	idx, err := atoi(f[1])
	if err != nil {
		return false, fmt.Errorf("gebe: line %d: bad index %q", line, f[1])
	}
	var (
		m    *dense.Matrix
		seen rowBits
		tag  int
	)
	switch {
	case string(f[0]) == "u":
		m, seen, tag = e.U, p.rd.seenU, idx
	case string(f[0]) == "v":
		m, seen, tag = e.V, p.rd.seenV, ^idx
	default:
		return false, fmt.Errorf("gebe: line %d: bad side %q", line, f[0])
	}
	if idx < 0 || idx >= m.Rows {
		return false, fmt.Errorf("gebe: line %d: index %d outside %d rows", line, idx, m.Rows)
	}
	if !seen.claim(idx) {
		return false, fmt.Errorf("gebe: line %d: duplicate %s row %d", line, f[0], idx)
	}
	p.claims = append(p.claims, tag)
	row := m.Row(idx)
	for j, b := range f[2:] {
		x, err := parseFloat(b)
		if err != nil {
			return false, fmt.Errorf("gebe: line %d: bad value %q", line, b)
		}
		if !isFinite(x) {
			return false, fmt.Errorf("gebe: line %d: non-finite value %q", line, b)
		}
		row[j] = x
	}
	return false, nil
}

// atoi is strconv.Atoi(string(b)), without the conversion for the
// plain digit strings of row indices.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.Atoi(string(b))
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// rowBits tracks which row indices have been filled, one bit per row,
// so duplicate and truncation detection cost |rows|/8 bytes. Parsers on
// several goroutines claim rows through it: a row is written only by
// the parser whose claim set its bit, so no row is written twice.
type rowBits []atomic.Uint64

// claim sets idx's bit and reports whether it was clear.
func (s rowBits) claim(idx int) bool {
	w, b := &s[idx/64], uint64(1)<<(idx%64)
	for {
		old := w.Load()
		if old&b != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|b) {
			return true
		}
	}
}

// release clears idx's bit; it is called with no claim in flight.
func (s rowBits) release(idx int) {
	w := &s[idx/64]
	w.Store(w.Load() &^ (uint64(1) << (idx % 64)))
}

// count returns the number of rows claimed.
func (s rowBits) count() int {
	n := 0
	for i := range s {
		n += bits.OnesCount64(s[i].Load())
	}
	return n
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
