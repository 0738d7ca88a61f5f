// Package eval implements the paper's downstream evaluation protocols:
// top-N recommendation (§6.3) with F1/NDCG/MRR, and link prediction
// (§6.4) as binary classification with a logistic-regression classifier
// over concatenated embeddings, scored by AUC-ROC and AUC-PR.
package eval

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// F1At computes F1@N for one user given the recommended ranking and the
// ground-truth set (both already truncated to N by the caller's protocol).
func F1At(rec []int, truth map[int]bool, n int) float64 {
	if n <= 0 || len(truth) == 0 {
		return 0
	}
	hits := 0
	for i, item := range rec {
		if i >= n {
			break
		}
		if truth[item] {
			hits++
		}
	}
	if hits == 0 {
		return 0
	}
	den := len(rec)
	if den > n {
		den = n
	}
	p := float64(hits) / float64(den)
	r := float64(hits) / float64(len(truth))
	return 2 * p * r / (p + r)
}

// NDCGAt computes NDCG@N with binary relevance for one user.
func NDCGAt(rec []int, truth map[int]bool, n int) float64 {
	if n <= 0 || len(truth) == 0 {
		return 0
	}
	var dcg float64
	for i, item := range rec {
		if i >= n {
			break
		}
		if truth[item] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	ideal := len(truth)
	if ideal > n {
		ideal = n
	}
	var idcg float64
	for i := 0; i < ideal; i++ {
		idcg += 1 / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// MRRAt computes the reciprocal rank of the first relevant item within
// the top n (0 when none appears).
func MRRAt(rec []int, truth map[int]bool, n int) float64 {
	for i, item := range rec {
		if i >= n {
			break
		}
		if truth[item] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// AUCROC computes the area under the ROC curve from scores and binary
// labels via the rank-sum (Mann–Whitney) formulation; ties share ranks.
func AUCROC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores vs %d labels", len(scores), len(labels))
	}
	nPos, nNeg := 0, 0
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("eval: AUC-ROC needs both classes (pos=%d neg=%d)", nPos, nNeg)
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Average ranks over tie groups.
	var rankSumPos float64
	i := 0
	for i < len(idx) {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for t := i; t < j; t++ {
			if labels[idx[t]] {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}

// AUCPR computes the area under the precision-recall curve as average
// precision (the step-function integral used by scikit-learn).
func AUCPR(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores vs %d labels", len(scores), len(labels))
	}
	nPos := 0
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
		if labels[i] {
			nPos++
		}
	}
	if nPos == 0 {
		return 0, fmt.Errorf("eval: AUC-PR needs at least one positive")
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var ap float64
	tp := 0
	for rank, id := range idx {
		if labels[id] {
			tp++
			precision := float64(tp) / float64(rank+1)
			ap += precision / float64(nPos)
		}
	}
	return ap, nil
}

// topPair is one (score, id) entry in a TopNHeap.
type topPair struct {
	s float64
	i int
}

// topLess is the total order every top-N selection in this repository
// ranks by: higher score wins, ties prefer the smaller index. Having
// exactly one comparator is what lets the approximate retrieval path
// (internal/ann) reproduce the exact scorer bit for bit at full probe —
// candidate enumeration order can differ, the selected list cannot.
func topLess(a, b topPair) bool {
	if a.s != b.s {
		return a.s < b.s
	}
	return a.i > b.i // deterministic tie-break: prefer smaller index
}

// TopNHeap selects the n largest (id, score) pairs pushed into it, in
// descending score order with ties broken toward smaller ids — a
// bounded min-heap, O(log n) per Push. It is the shared selection core
// behind TopNIndices and the ANN candidate merge: the result depends
// only on the pushed set, never on push order. The zero value is unusable;
// call Reset first. Ranked/IDs consume the heap — Reset before reuse.
type TopNHeap struct {
	n    int
	heap []topPair
}

// Reset empties the heap and sets its capacity to n, reusing the backing
// array when it is large enough.
func (t *TopNHeap) Reset(n int) {
	t.n = n
	if cap(t.heap) < n {
		t.heap = make([]topPair, 0, n)
	} else {
		t.heap = t.heap[:0]
	}
}

// Push offers one candidate. Pushing the same id twice ranks both
// entries; callers enumerate each id at most once.
func (t *TopNHeap) Push(id int, score float64) {
	if t.n <= 0 {
		return
	}
	p := topPair{score, id}
	if len(t.heap) < t.n {
		t.heap = append(t.heap, p)
		// sift up
		c := len(t.heap) - 1
		for c > 0 {
			par := (c - 1) / 2
			if topLess(t.heap[c], t.heap[par]) {
				t.heap[c], t.heap[par] = t.heap[par], t.heap[c]
				c = par
			} else {
				break
			}
		}
		return
	}
	if topLess(t.heap[0], p) {
		t.heap[0] = p
		t.siftDown(0, len(t.heap))
	}
}

// siftDown restores the min-heap property for h[i:len], considering
// only the first len entries of the backing array.
func (t *TopNHeap) siftDown(i, len int) {
	h := t.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len && topLess(h[l], h[m]) {
			m = l
		}
		if r < len && topLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// IDs sorts the selected pairs into descending rank order and returns
// the ids. The heap is consumed: Reset before pushing again.
func (t *TopNHeap) IDs() []int {
	t.sortDesc()
	out := make([]int, len(t.heap))
	for i, p := range t.heap {
		out[i] = p.i
	}
	return out
}

// Ranked is IDs plus the matching scores.
func (t *TopNHeap) Ranked() (ids []int, scores []float64) {
	t.sortDesc()
	ids = make([]int, len(t.heap))
	scores = make([]float64, len(t.heap))
	for i, p := range t.heap {
		ids[i] = p.i
		scores[i] = p.s
	}
	return ids, scores
}

// sortDesc heapsorts in place: popping the min-heap's root to the
// shrinking end leaves the array in descending rank order, without the
// interface boxing sort.Slice would allocate on the serving hot path.
func (t *TopNHeap) sortDesc() {
	h := t.heap
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.siftDown(0, end)
	}
}

// TopNIndices returns the indices of the n largest values in scores, in
// descending score order, excluding any index in skip. It sorts skip's
// in-range keys into an ascending list — O(|skip|·log|skip|) — and
// selects through TopNExcluding; callers holding a sorted list (the
// serving and evaluation paths) call TopNExcluding directly.
func TopNIndices(scores []float64, n int, skip map[int]bool) []int {
	if n <= 0 {
		return nil
	}
	var sorted []int32
	for i := range skip {
		if i >= 0 && i < len(scores) {
			sorted = append(sorted, int32(i))
		}
	}
	slices.Sort(sorted)
	return TopNExcluding(scores, n, sorted)
}

// TopNExcluding returns the indices of the n largest values in scores,
// in descending score order with ties broken toward smaller indices,
// excluding every index listed in skip, which must be ascending (ids
// outside [0, len(scores)) exclude nothing). The result is exactly
// what pushing every non-excluded (index, score) into a TopNHeap
// gives.
//
// Selection is threshold-first: once the heap is full, each score is
// compared against the heap minimum held in a local, and only a
// candidate that would enter the heap advances a merge pointer through
// skip. The scan runs in ascending index order, so every heap entry
// has a smaller index than the candidate and a tie with the minimum
// always loses — the test is one float compare. The cost is one
// compare per item, plus O(log n) per heap entry and O(|skip|) merge
// steps at most. It allocates only the heap and the result.
func TopNExcluding(scores []float64, n int, skip []int32) []int {
	if n <= 0 {
		return nil
	}
	n = min(n, len(scores)) // the heap never holds more than every item
	var t TopNHeap
	t.Reset(n)
	p := 0 // skip[:p] holds only ids below the current index
	excluded := func(i int) bool {
		for p < len(skip) && int(skip[p]) < i {
			p++
		}
		return p < len(skip) && int(skip[p]) == i
	}
	i := 0
	for ; i < len(scores) && len(t.heap) < n; i++ {
		if !excluded(i) {
			t.Push(i, scores[i])
		}
	}
	if i < len(scores) { // items remain, so the heap is full
		minS := t.heap[0].s
		for j, s := range scores[i:] {
			// topLess(root, (s, i+j)) reduces to s > root.s: the root's
			// index is smaller than i+j, and NaN compares false either way.
			if s > minS && !excluded(i+j) {
				t.heap[0] = topPair{s, i + j}
				t.siftDown(0, n)
				minS = t.heap[0].s
			}
		}
	}
	return t.IDs()
}
