package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceReadEdgeList is ReadEdgeList as it read before it split
// fields in place: strings.TrimSpace and strings.Fields on each line's
// string, and one string per label per line. It is the oracle of
// FuzzReadEdgeListMatchesReference.
func referenceReadEdgeList(r io.Reader) (*Graph, error) {
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
