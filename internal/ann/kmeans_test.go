package ann

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"testing"

	"gebe/internal/dense"
)

// buildCase is one input of the oracle comparison.
type buildCase struct {
	name     string
	items    *dense.Matrix
	clusters []int
}

// duplicateRows draws every row from `distinct` base vectors, so
// k-means++ runs out of positive distance mass (the total <= 0 uniform
// fallback) and Lloyd leaves duplicate centroids with empty clusters.
func duplicateRows(rows, k, distinct int, rng *rand.Rand) *dense.Matrix {
	base := dense.Random(distinct, k, rng)
	m := dense.New(rows, k)
	for i := 0; i < rows; i++ {
		copy(m.Row(i), base.Row(rng.IntN(distinct)))
	}
	return m
}

// nearTies returns rows that sit on the perpendicular bisector of two
// nearby planted centers, each shifted by one ulp in one coordinate: the
// assignment between the pair is decided by rounding alone.
func nearTies(rows, k int, rng *rand.Rand) *dense.Matrix {
	m := dense.New(rows, k)
	a, b := make([]float64, k), make([]float64, k)
	for i := 0; i < rows; i++ {
		if i%8 == 0 {
			for j := range a {
				a[j] = rng.NormFloat64()
				b[j] = a[j] + 0.3*rng.NormFloat64()
			}
		}
		row := m.Row(i)
		bisectorPoint(row, a, b, 0.05, rng)
		j := rng.IntN(k)
		if i%2 == 0 {
			row[j] = math.Nextafter(row[j], math.Inf(1))
		} else {
			row[j] = math.Nextafter(row[j], math.Inf(-1))
		}
	}
	return m
}

// bisectorPoint writes into p the midpoint of a and b plus a random
// offset of scale s with its component along b − a projected out.
func bisectorPoint(p, a, b []float64, s float64, rng *rand.Rand) {
	var dd, wd float64
	for j := range p {
		p[j] = s * rng.NormFloat64()
		d := b[j] - a[j]
		dd += d * d
		wd += p[j] * d
	}
	for j := range p {
		p[j] += (a[j]+b[j])/2 - wd/dd*(b[j]-a[j])
	}
}

func buildCases() []buildCase {
	rng := rand.New(rand.NewPCG(22, 3))
	return []buildCase{
		// 1000 rows: four 256-row tiles, the last one short.
		{"planted", clusteredMatrix(1000, 12, 20, rng), []int{1, 7, 8, 9, 63, 141}},
		{"planted_k32", clusteredMatrix(700, 32, 12, rng), []int{9, 63}},
		{"clusters_eq_items", clusteredMatrix(180, 6, 9, rng), []int{180}},
		{"below_tile", clusteredMatrix(100, 5, 4, rng), []int{7, 16, 100}},
		{"duplicates", duplicateRows(600, 8, 5, rng), []int{4, 9, 63}},
		{"near_ties", nearTies(800, 16, rng), []int{8, 100}},
	}
}

// TestBuildMatchesReference: Build's centroids, member lists and
// iteration count equal the reference build's bit for bit, at every
// thread count.
func TestBuildMatchesReference(t *testing.T) {
	for _, bc := range buildCases() {
		for _, kc := range bc.clusters {
			cfg := Config{Clusters: kc, Seed: 11}.withDefaults(bc.items.Rows)
			wantCent, wantAssign, wantIters := referenceKmeans(bc.items, cfg)
			for _, threads := range []int{1, 2, 3} {
				name := fmt.Sprintf("%s/kc=%d/threads=%d", bc.name, kc, threads)
				ix, err := Build(bc.items, Config{Clusters: kc, Seed: 11, Threads: threads})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ix.Iters() != wantIters {
					t.Errorf("%s: %d iterations, reference ran %d", name, ix.Iters(), wantIters)
				}
				if !dense.Equal(ix.centroids, wantCent, 0) {
					t.Errorf("%s: centroids differ from the reference", name)
				}
				for c, ms := range ix.members {
					for _, id := range ms {
						if wantAssign[id] != int32(c) {
							t.Fatalf("%s: item %d in cluster %d, reference assigns %d", name, id, c, wantAssign[id])
						}
					}
				}
				if bc.name == "duplicates" && kc > 5 && nonEmpty(ix) == kc {
					t.Errorf("%s: %d distinct rows filled all %d clusters", name, 5, kc)
				}
			}
		}
	}
}

func nonEmpty(ix *Index) int {
	n := 0
	for _, ms := range ix.members {
		if len(ms) > 0 {
			n++
		}
	}
	return n
}

// TestAssignMatchesReference drives one assignment pass directly, with
// centroid pairs chosen so every row is a rounding-decided near tie:
// the padded panel product must reproduce the A·Bᵀ reference's argmin
// exactly, which it can only do if each cross term rounds the same way.
func TestAssignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for _, shape := range []struct{ n, k, kc int }{
		{300, 16, 2}, {1000, 32, 9}, {777, 12, 141}, {513, 7, 64},
	} {
		cent := dense.Random(shape.kc, shape.k, rng)
		items := dense.New(shape.n, shape.k)
		for i := 0; i < shape.n; i++ {
			a := rng.IntN(shape.kc)
			b := (a + 1) % shape.kc
			bisectorPoint(items.Row(i), cent.Row(a), cent.Row(b), 0.01, rng)
		}
		cnorm2 := make([]float64, shape.kc)
		for c := range cnorm2 {
			cnorm2[c] = dense.Dot(cent.Row(c), cent.Row(c))
		}
		for _, threads := range []int{1, 3} {
			want := make([]int32, shape.n)
			referenceAssign(items, cent, cnorm2, want, threads)
			got := make([]int32, shape.n)
			newAssigner(items, shape.kc, threads).run(cent, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d kc=%d threads=%d: row %d assigned %d, reference %d",
						shape.n, shape.k, shape.kc, threads, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSeedPruneSound checks the triangle prune's rounding margin on
// adversarial triples: the new centroid is the reflection of the
// point's nearest centroid through the point, nudged by a few ulps, so
// ‖c_new − c_near‖² sits at 4·d2 and the two distances tie up to
// rounding. Whenever the prune fires, the skipped update must not have
// fired either. A margin of exactly 4 fails here.
func TestSeedPruneSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	fired := 0
	for _, k := range []int{1, 2, 3, 8, 32} {
		margin := seedMargin(k)
		x, cn, cw := make([]float64, k), make([]float64, k), make([]float64, k)
		for trial := 0; trial < 20000; trial++ {
			scale := math.Ldexp(1, rng.IntN(40)-20)
			for j := range x {
				x[j] = scale * rng.NormFloat64()
				cn[j] = x[j] + scale*rng.NormFloat64()
				cw[j] = 2*x[j] - cn[j]
				for s := rng.IntN(4); s > 0; s-- {
					cw[j] = math.Nextafter(cw[j], math.Inf(2*rng.IntN(2)-1))
				}
			}
			d2, cc, d := sqDist(x, cn), sqDist(cw, cn), sqDist(x, cw)
			if skipNewCentroid(d2, cc, margin) {
				fired++
				if d < d2 {
					t.Fatalf("k=%d: prune skipped a closer centroid: d2=%v cc=%v new=%v", k, d2, cc, d)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the prune never fired on a tie at 4·d2; the test shows nothing")
	}
	// Edge values: zero distance always skips, NaN and out-of-range
	// distances never do.
	m := seedMargin(4)
	for _, tc := range []struct {
		d2, cc float64
		want   bool
	}{
		{0, 0, true}, {0, math.NaN(), true}, {1, 4, false}, {1, 5, true},
		{math.NaN(), 100, false}, {1, math.NaN(), false},
		{math.Inf(1), math.Inf(1), false}, {0x1p-1000, 1, false}, {0x1p950, math.Inf(1), false},
	} {
		if got := skipNewCentroid(tc.d2, tc.cc, m); got != tc.want {
			t.Errorf("skipNewCentroid(%v, %v) = %v, want %v", tc.d2, tc.cc, got, tc.want)
		}
	}
}

// TestSeedPruneSkips: on clustered data the prune must actually remove
// work — most points are far from most new centroids — or the parallel
// seeding is carrying dead weight.
func TestSeedPruneSkips(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	items := clusteredMatrix(2000, 16, 30, rng)
	cent := referenceSeed(items, 45, 1)
	margin := seedMargin(items.Cols)
	d2 := make([]float64, items.Rows)
	near := make([]int, items.Rows)
	for i := range d2 {
		d2[i] = sqDist(items.Row(i), cent.Row(0))
	}
	skipped, total := 0, 0
	for c := 1; c < cent.Rows; c++ {
		for i := range d2 {
			total++
			if skipNewCentroid(d2[i], sqDist(cent.Row(c), cent.Row(near[i])), margin) {
				skipped++
				continue
			}
			if d := sqDist(items.Row(i), cent.Row(c)); d < d2[i] {
				d2[i], near[i] = d, c
			}
		}
	}
	if skipped*2 < total {
		t.Fatalf("prune skipped %d of %d point-centroid distances, want at least half", skipped, total)
	}
}

// indexFingerprintEnv asks the test binary, re-executed by
// TestBuildSameUnderEverySIMDFlavor, to print one index fingerprint.
const indexFingerprintEnv = "GEBE_ANN_TEST_FINGERPRINT"

// TestBuildSameUnderEverySIMDFlavor builds one index in a child process
// per GEBE_SIMD value (the flavor default is read once per process) and
// requires the same centroids, members and iterations from each.
func TestBuildSameUnderEverySIMDFlavor(t *testing.T) {
	if os.Getenv(indexFingerprintEnv) != "" {
		fmt.Printf("fingerprint %s\n", indexFingerprint(t))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	var want []byte
	for _, flavor := range []string{"off", "simd", "fma", ""} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBuildSameUnderEverySIMDFlavor$", "-test.count=1")
		cmd.Env = append(os.Environ(), indexFingerprintEnv+"=1", "GEBE_SIMD="+flavor)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GEBE_SIMD=%q: %v\n%s", flavor, err, out)
		}
		i := bytes.Index(out, []byte("fingerprint "))
		if i < 0 {
			t.Fatalf("GEBE_SIMD=%q: no fingerprint in\n%s", flavor, out)
		}
		got := bytes.Fields(out[i:])[1]
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GEBE_SIMD=%q built index %s, GEBE_SIMD=off built %s", flavor, got, want)
		}
	}
}

// indexFingerprint hashes the indexes built over duplicate-heavy and
// near-tie rows, the inputs where a fused kernel moves assignments.
func indexFingerprint(t *testing.T) string {
	rng := rand.New(rand.NewPCG(8, 8))
	h := fnv.New64a()
	for _, in := range []struct {
		items    *dense.Matrix
		clusters int
	}{
		{duplicateRows(600, 8, 5, rng), 63},
		{nearTies(1500, 24, rng), 40},
	} {
		ix, err := Build(in.items, Config{Clusters: in.clusters, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "iters %d\n", ix.Iters())
		for _, v := range ix.centroids.Data {
			fmt.Fprintf(h, "%x\n", math.Float64bits(v))
		}
		for c, ms := range ix.members {
			fmt.Fprintf(h, "%d:%v\n", c, ms)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// BenchmarkKmeans times one build at serve-exact's shape (20000 planted
// items, k = 32, √n = 141 clusters) against the reference build.
func BenchmarkKmeans(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	items := clusteredMatrix(20000, 32, 40, rng)
	cfg := Config{Seed: 1}.withDefaults(items.Rows)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kmeans(items, cfg)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceKmeans(items, cfg)
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedPlusPlus(items, cfg.Clusters, cfg.Seed, cfg.Threads)
		}
	})
	b.Run("seed_reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceSeed(items, cfg.Clusters, cfg.Seed)
		}
	})
}

// TestLloydBoundSound checks the Lloyd bounds' rounding margin where it
// decides. Each trial has one row x and two centroids: a first pass
// assigns x to a clearly nearer centroid a and sets its bounds; then a
// moves straight away from x and the other centroid b straight toward
// it, so both bounds stay tight, until x sits on their bisector — one
// ulp off it, or off by a gap from 2⁻⁵⁰ to 2⁻⁵ of the distance. The
// rows are far from the origin against that distance, so the computed
// scores carry rounding errors larger than the smallest gaps. The
// second pass must assign what a pass without bounds assigns, and the
// bounds must settle some rows, or the test shows nothing. A margin of
// zero fails here.
func TestLloydBoundSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	skipped, trials := 0, 0
	unit := func(v []float64) {
		var s float64
		for j := range v {
			v[j] = rng.NormFloat64()
			s += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(s)
		}
	}
	for _, k := range []int{1, 2, 3, 8, 32} {
		ua, ub := make([]float64, k), make([]float64, k)
		for trial := 0; trial < 4000; trial++ {
			x := dense.New(1, k)
			far := math.Ldexp(1, rng.IntN(16))
			for j := range x.Data {
				x.Data[j] = far * rng.NormFloat64()
			}
			unit(ua)
			unit(ub)
			r := math.Ldexp(1+rng.Float64(), -rng.IntN(6))
			drift := r * (0.05 + 0.4*rng.Float64())
			gap := 0.0
			if trial%2 == 1 {
				gap = r * math.Ldexp(1, -5-rng.IntN(46))
			}
			a := rng.IntN(2)
			before, after := dense.New(2, k), dense.New(2, k)
			for j := 0; j < k; j++ {
				before.Row(a)[j] = x.Data[j] + (r-drift)*ua[j]
				before.Row(1 - a)[j] = x.Data[j] + (r+gap+drift)*ub[j]
				after.Row(a)[j] = x.Data[j] + r*ua[j]
				after.Row(1 - a)[j] = x.Data[j] + (r+gap)*ub[j]
			}
			j := rng.IntN(k)
			x.Data[j] = math.Nextafter(x.Data[j], math.Inf(2*rng.IntN(2)-1))

			as := newAssigner(x, 2, 1)
			got := []int32{0}
			as.run(before, got)
			if got[0] != int32(a) {
				t.Fatalf("k=%d: first pass assigned %d, want the nearer centroid %d", k, got[0], a)
			}
			as.run(after, got)
			want := []int32{0}
			newAssigner(x, 2, 1).run(after, want)
			if got[0] != want[0] {
				t.Fatalf("k=%d trial %d: bounds kept centroid %d, measuring gives %d (gap %g of %g)",
					k, trial, got[0], want[0], gap, r)
			}
			skipped += as.skipped
			trials++
		}
	}
	if skipped == 0 {
		t.Fatal("the bounds never settled a row; the test shows nothing")
	}
	t.Logf("bounds settled %d of %d second passes", skipped, trials)

	// up and down are math.Nextafter toward ±Inf.
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0x1p-1074, -0x1p-1074, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 3.5e-300, -7e200} {
		if u, w := up(x), math.Nextafter(x, math.Inf(1)); math.Float64bits(u) != math.Float64bits(w) {
			t.Errorf("up(%v) = %v, want %v", x, u, w)
		}
		if d, w := down(x), math.Nextafter(x, math.Inf(-1)); math.Float64bits(d) != math.Float64bits(w) {
			t.Errorf("down(%v) = %v, want %v", x, d, w)
		}
	}
	if !math.IsNaN(up(math.NaN())) || !math.IsNaN(down(math.NaN())) {
		t.Error("up or down of NaN is not NaN")
	}
}
