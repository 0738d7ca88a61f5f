package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"gebe"
	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/gen"
)

// Every input is a file generated from the run's seed alone; the
// program under test sees only these files. The edge-list writers keep
// track of the order in which node labels first appear, because that is
// the index order gebe.LoadGraph assigns (bigraph.ReadEdgeList's
// documented rule); the benchmark gates that the loaded graph agrees.

// trainInput is the training workloads' input: the 5-core of the mag
// stand-in split 60/40, the training part written as an edge list.
type trainInput struct {
	path string
	hash string
	// uLabels/vLabels list the original node ids in file index order.
	uLabels, vLabels []int
	// test holds the held-out edges in file index order; edges touching
	// a node absent from the training file are dropped.
	test []bigraph.Edge
}

const (
	trainDataset = "mag"
	trainFrac    = 0.6
	// splitSalt decorrelates the split from the generator's own stream.
	splitSalt = 0x517cc1b727220a95
)

func makeTrainInput(dir string, seed uint64) (*trainInput, error) {
	d, err := gen.ByName(trainDataset)
	if err != nil {
		return nil, err
	}
	full, err := d.Build(seed)
	if err != nil {
		return nil, err
	}
	core, _, _ := full.KCore(d.CoreK)
	train, test := core.Split(trainFrac, seed^splitSalt)
	in := &trainInput{path: filepath.Join(dir, "train.tsv")}
	uIdx, vIdx := map[int]int{}, map[int]int{}
	err = writeFile(in.path, func(w *bufio.Writer) error {
		for _, e := range train.Edges {
			if _, ok := uIdx[e.U]; !ok {
				uIdx[e.U] = len(in.uLabels)
				in.uLabels = append(in.uLabels, e.U)
			}
			if _, ok := vIdx[e.V]; !ok {
				vIdx[e.V] = len(in.vLabels)
				in.vLabels = append(in.vLabels, e.V)
			}
			if _, err := fmt.Fprintf(w, "%d\t%d\t%s\n", e.U, e.V, strconv.FormatFloat(e.W, 'g', -1, 64)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range test {
		u, okU := uIdx[e.U]
		v, okV := vIdx[e.V]
		if okU && okV {
			in.test = append(in.test, bigraph.Edge{U: u, V: v, W: e.W})
		}
	}
	in.hash, err = hashFile(in.path)
	return in, err
}

// serveInput is the serving workloads' input: an embedding with planted
// clusters and a training edge list for mask_train, both index-aligned.
type serveInput struct {
	embPath, trainPath string
	embHash, trainHash string
	uLabels, vLabels   []int
	nu, trainEdges     int
}

const (
	serveUsers    = 20000
	serveItems    = 20000
	serveK        = 32
	serveClusters = 64
	// Each user gets serveDegree training items, serveInCluster of them
	// (in expectation) from its own cluster.
	serveDegree    = 5
	serveInCluster = 0.8
	// serveNoise is the spread of a vector around its cluster centroid.
	serveNoise = 0.6
)

func makeServeInput(dir string, seed uint64) (*serveInput, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	centroids := make([][]float64, serveClusters)
	for c := range centroids {
		centroids[c] = make([]float64, serveK)
		for j := range centroids[c] {
			centroids[c][j] = rng.NormFloat64()
		}
	}
	planted := func(n int) ([][]float64, []int) {
		vecs := make([][]float64, n)
		cl := make([]int, n)
		for i := range vecs {
			cl[i] = rng.IntN(serveClusters)
			vecs[i] = make([]float64, serveK)
			for j := range vecs[i] {
				vecs[i][j] = centroids[cl[i]][j] + serveNoise*rng.NormFloat64()
			}
		}
		return vecs, cl
	}
	userVecs, userCl := planted(serveUsers)
	itemVecs, itemCl := planted(serveItems)
	byCluster := make([][]int, serveClusters)
	for i, c := range itemCl {
		byCluster[c] = append(byCluster[c], i)
	}

	var edges [][2]int
	covered := make([]bool, serveItems)
	for u := 0; u < serveUsers; u++ {
		var picked []int
		for len(picked) < serveDegree {
			v := rng.IntN(serveItems)
			if own := byCluster[userCl[u]]; rng.Float64() < serveInCluster && len(own) > 0 {
				v = own[rng.IntN(len(own))]
			}
			if !containsInt(picked, v) {
				picked = append(picked, v)
			}
		}
		for _, v := range picked {
			edges = append(edges, [2]int{u, v})
			covered[v] = true
		}
	}
	// Every item must appear in the edge list to get an index.
	for v, ok := range covered {
		if !ok {
			edges = append(edges, [2]int{rng.IntN(serveUsers), v})
		}
	}

	in := &serveInput{
		embPath: filepath.Join(dir, "embedding.tsv"), trainPath: filepath.Join(dir, "serve-train.tsv"),
		nu: serveUsers, trainEdges: len(edges),
	}
	seenU, seenV := make([]bool, serveUsers), make([]bool, serveItems)
	err := writeFile(in.trainPath, func(w *bufio.Writer) error {
		for _, e := range edges {
			if !seenU[e[0]] {
				seenU[e[0]] = true
				in.uLabels = append(in.uLabels, e[0])
			}
			if !seenV[e[1]] {
				seenV[e[1]] = true
				in.vLabels = append(in.vLabels, e[1])
			}
			if _, err := fmt.Fprintf(w, "%d\t%d\n", e[0], e[1]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	emb := &gebe.Embedding{
		U: rowsInOrder(userVecs, in.uLabels), V: rowsInOrder(itemVecs, in.vLabels),
		Method: "planted",
	}
	if err := gebe.SaveEmbedding(in.embPath, emb); err != nil {
		return nil, err
	}
	if in.embHash, err = hashFile(in.embPath); err != nil {
		return nil, err
	}
	in.trainHash, err = hashFile(in.trainPath)
	return in, err
}

// rowsInOrder stacks vecs[labels[0]], vecs[labels[1]], ... into a matrix.
func rowsInOrder(vecs [][]float64, labels []int) *dense.Matrix {
	m := dense.New(len(labels), len(vecs[0]))
	for r, l := range labels {
		copy(m.Row(r), vecs[l])
	}
	return m
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkLabels gates that a loaded graph indexes nodes in the order the
// benchmark's writer recorded.
func checkLabels(b *bench, g *bigraph.Graph, uLabels, vLabels []int) {
	same := func(got []string, want []int) bool {
		if len(got) != len(want) {
			return false
		}
		for i, s := range got {
			if s != strconv.Itoa(want[i]) {
				return false
			}
		}
		return true
	}
	if !same(g.ULabels, uLabels) || !same(g.VLabels, vLabels) {
		b.gate("loaded graph (%dx%d) does not index nodes in first-appearance order", g.NU, g.NV)
	}
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
