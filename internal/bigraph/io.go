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
func ReadEdgeList(r io.Reader) (*Graph, error) {
	uIdx := make(map[string]int)
	vIdx := make(map[string]int)
	var uLabels, vLabels []string
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("bigraph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		w := 1.0
		if len(fields) == 3 {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			if !validWeight(w) {
				return nil, fmt.Errorf("bigraph: line %d: %w, got %g", lineNo, ErrBadWeight, w)
			}
		}
		u, ok := uIdx[fields[0]]
		if !ok {
			u = len(uLabels)
			uIdx[fields[0]] = u
			uLabels = append(uLabels, fields[0])
		}
		v, ok := vIdx[fields[1]]
		if !ok {
			v = len(vLabels)
			vIdx[fields[1]] = v
			vLabels = append(vLabels, fields[1])
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
