package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list: one edge per line
// as "u v" or "u v w", where u and v are arbitrary string identifiers and
// w is an optional positive finite weight (default 1). Lines starting with '#'
// or '%' and blank lines are skipped. Node identifiers are densified in
// first-appearance order and preserved in ULabels/VLabels.
//
// Fields are split in place in the scanner's buffer (SplitFields) and a
// label string is allocated only on its first appearance, so a line that
// names known nodes allocates nothing.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	uIdx := make(map[string]int)
	vIdx := make(map[string]int)
	var uLabels, vLabels []string
	var edges []Edge
	var fields [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields = SplitFields(fields[:0], sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' || fields[0][0] == '%' {
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("bigraph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		w := 1.0
		if len(fields) == 3 {
			var err error
			w, err = strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			if !validWeight(w) {
				return nil, fmt.Errorf("bigraph: line %d: %w, got %g", lineNo, ErrBadWeight, w)
			}
		}
		u, ok := uIdx[string(fields[0])]
		if !ok {
			label := string(fields[0])
			u = len(uLabels)
			uIdx[label] = u
			uLabels = append(uLabels, label)
		}
		v, ok := vIdx[string(fields[1])]
		if !ok {
			label := string(fields[1])
			v = len(vLabels)
			vIdx[label] = v
			vLabels = append(vLabels, label)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bigraph: reading edge list: %w", err)
	}
	g, err := New(len(uLabels), len(vLabels), edges)
	if err != nil {
		return nil, err
	}
	g.ULabels = uLabels
	g.VLabels = vLabels
	return g, nil
}

// Byte classes for SplitFields: the ASCII bytes strings.Fields splits
// on, and the bytes ≥ 0x80 that may start a Unicode space.
const (
	byteField = iota
	byteSpace
	byteHigh
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = byteSpace
	}
	for b := 0x80; b < 0x100; b++ {
		c[b] = byteHigh
	}
	return c
}()

// SplitFields appends the whitespace-separated fields of line to f, in
// place. They are strings.Fields' fields: a line holding a byte ≥ 0x80,
// which may encode a Unicode space, goes through strings.Fields itself.
// The text readers of edge lists and embeddings split their lines here.
func SplitFields(f [][]byte, line []byte) [][]byte {
	for i := 0; i < len(line); {
		for i < len(line) && byteClass[line[i]] == byteSpace {
			i++
		}
		j := i
		for j < len(line) && byteClass[line[j]] == byteField {
			j++
		}
		if j < len(line) && byteClass[line[j]] == byteHigh {
			f = f[:0]
			for _, s := range strings.Fields(string(line)) {
				f = append(f, []byte(s))
			}
			return f
		}
		if j > i {
			f = append(f, line[i:j])
		}
		i = j
	}
	return f
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bigraph: %w", err)
	}
	defer f.Close()
	g, err := ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("bigraph: %s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes the graph in the format ReadEdgeList accepts.
// Labels are used when present, plain indices otherwise; weights are
// emitted only for weighted graphs.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges {
		uName := strconv.Itoa(e.U)
		vName := strconv.Itoa(e.V)
		if g.ULabels != nil {
			uName = g.ULabels[e.U]
		}
		if g.VLabels != nil {
			vName = g.VLabels[e.V]
		}
		var err error
		if g.Weighted {
			_, err = fmt.Fprintf(bw, "%s\t%s\t%g\n", uName, vName, e.W)
		} else {
			_, err = fmt.Fprintf(bw, "%s\t%s\n", uName, vName)
		}
		if err != nil {
			return fmt.Errorf("bigraph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file on disk.
func (g *Graph) SaveEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bigraph: %w", err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
