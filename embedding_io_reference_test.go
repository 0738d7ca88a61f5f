package gebe

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gebe/internal/core"
	"gebe/internal/dense"
)

// referenceReadEmbedding is the line-at-a-time reader ReadEmbedding
// replaced, kept as the oracle it must match: a bufio.Scanner over
// lines of at most 64 MiB, strings.Fields per line and
// strconv.ParseFloat per value. ReadEmbedding must accept and reject
// the same inputs, with the same error text, and fill U, V and the
// #meta fields with the same bits.
func referenceReadEmbedding(r io.Reader) (*Embedding, error) {
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
	if lim := maxSideCells / uint64(k); uint64(nu) > lim || uint64(nv) > lim {
		return nil, fmt.Errorf("%w: %dx%d and %dx%d, limit %d cells per side",
			ErrEmbeddingTooLarge, nu, k, nv, k, maxSideCells)
	}
	e := &core.Embedding{
		U:      dense.New(nu, k),
		V:      dense.New(nv, k),
		Method: header[1],
	}
	seen := map[string]*refRowSet{"u": newRefRowSet(nu), "v": newRefRowSet(nv)}
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
			continue
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
	if e.Sharded() && e.ShardOffset+nv > e.ShardTotal {
		return nil, fmt.Errorf("gebe: shard %d/%d covers rows [%d,%d) of only %d items",
			e.ShardIndex, e.ShardCount, e.ShardOffset, e.ShardOffset+nv, e.ShardTotal)
	}
	return e, nil
}

// refRowSet is the oracle's duplicate and truncation tracker, one bit
// per row.
type refRowSet struct {
	bits  []uint64
	count int
}

func newRefRowSet(n int) *refRowSet {
	return &refRowSet{bits: make([]uint64, (n+63)/64)}
}

func (s *refRowSet) mark(idx int) bool {
	w, b := idx/64, uint64(1)<<(idx%64)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.count++
	return true
}
