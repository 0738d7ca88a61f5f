package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The assembly contract is bitwise: every primitive must reproduce its
// reference implementation exactly (the references compile to the same
// scalar multiply-add sequence as the engine kernels).

func fill(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	return s
}

func randIdx(r *rand.Rand, n, rows int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(rows)
	}
	return idx
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randCSR returns the row pointers, column indices and values of a
// rows×cols sparse matrix with nnz entries spread over random rows, plus
// empty rows at the start, middle and end and two consecutive empty
// rows; a single-entry row follows each empty run.
func randCSR(r *rand.Rand, rows, cols, nnz int) (rowPtr, idx []int, val []float64) {
	empty := map[int]bool{0: true, rows / 2: true, rows/2 + 1: true, rows - 1: true}
	single := map[int]bool{1: true, rows/2 + 2: true}
	counts := make([]int, rows)
	for i := range counts {
		if single[i] {
			counts[i] = 1
		}
	}
	for n := 0; n < nnz; n++ {
		i := r.Intn(rows)
		if !empty[i] && !single[i] {
			counts[i]++
		}
	}
	rowPtr = make([]int, rows+1)
	for i, c := range counts {
		rowPtr[i+1] = rowPtr[i] + c
	}
	idx = randIdx(r, rowPtr[rows], cols)
	val = fill(r, rowPtr[rows])
	return rowPtr, idx, val
}

// TestGatherRowsBitwise: over a whole row range and over a sub-range,
// GatherRows reproduces its reference bit for bit, writes every row of
// the range (the output is NaN-prefilled) and touches no row outside it.
func TestGatherRowsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const rows, cols = 23, 50
	rowPtr, idx, val := randCSR(r, rows, cols, 180)
	for _, k := range []int{8, 16, 24, 32, 40, 64, 128} {
		b := fill(r, cols*k)
		for _, rg := range [][2]int{{0, rows}, {3, 17}, {5, 5}} {
			lo, hi := rg[0], rg[1]
			got := make([]float64, rows*k)
			want := make([]float64, rows*k)
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN()
			}
			GatherRows(rowPtr, idx, val, b, got, k, lo, hi)
			refGatherRows(rowPtr, idx, val, b, want, k, lo, hi)
			for i := range got {
				row := i / k
				inside := row >= lo && row < hi
				if inside && math.IsNaN(got[i]) {
					t.Fatalf("k=%d [%d,%d): row %d left unwritten", k, lo, hi, row)
				}
				if !inside && !math.IsNaN(got[i]) {
					t.Fatalf("k=%d [%d,%d): row %d outside the range written", k, lo, hi, row)
				}
			}
			if !sameBits(got, want) {
				t.Fatalf("k=%d [%d,%d): differs from its reference", k, lo, hi)
			}
		}
	}
}

// specials overwrites every seventh element of s with ±0 or ±Inf. Sums
// of opposite infinities then make NaNs, all of one bit pattern: two
// different NaNs meeting in an add would come out as whichever operand
// is first, and the Go references and the assembly put different
// operands first.
func specials(s []float64) []float64 {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for i := 3; i < len(s); i += 7 {
		s[i] = vals[(i/7)%len(vals)]
	}
	return s
}

// TestHopRowsBitwise: over whole and partial row ranges, with and
// without dst and next, HopRows reproduces its three-step reference bit
// for bit, ±0, ±Inf and NaN in t, dst and next included, and leaves the
// rows of dst outside the range alone.
func TestHopRowsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const rows, cols = 23, 50
	rowPtr, idx, val := randCSR(r, rows, cols, 180)
	for _, k := range []int{8, 16, 24, 32, 40, 56, 64, 96} {
		tb := specials(fill(r, cols*k))
		dst0 := specials(fill(r, rows*k))
		next0 := specials(fill(r, cols*k))
		for _, rg := range [][2]int{{0, rows}, {3, 17}, {5, 5}} {
			for _, mode := range []struct{ dst, next bool }{{true, true}, {true, false}, {false, true}} {
				lo, hi := rg[0], rg[1]
				var gotD, wantD, gotN, wantN []float64
				if mode.dst {
					gotD, wantD = append([]float64(nil), dst0...), append([]float64(nil), dst0...)
				}
				if mode.next {
					gotN, wantN = append([]float64(nil), next0...), append([]float64(nil), next0...)
				}
				HopRows(rowPtr, idx, val, tb, gotD, gotN, 0.37, k, lo, hi)
				refHopRows(rowPtr, idx, val, tb, wantD, wantN, 0.37, k, lo, hi)
				if !sameBits(gotD, wantD) || !sameBits(gotN, wantN) {
					t.Fatalf("HopRows k=%d [%d,%d) dst=%v next=%v: differs from its reference", k, lo, hi, mode.dst, mode.next)
				}
				if mode.dst && (!sameBits(gotD[:lo*k], dst0[:lo*k]) || !sameBits(gotD[hi*k:], dst0[hi*k:])) {
					t.Fatalf("HopRows k=%d [%d,%d): dst rows outside the range written", k, lo, hi)
				}
			}
		}
	}
}

func TestSaxpyRowsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, stride := range []int{8, 16, 32} {
		for _, n := range []int{0, 1, 2, 9, 100} {
			a := fill(r, n)
			b := fill(r, n*stride)
			if stride >= 8 {
				var got, want [8]float64
				copy(got[:], fill(r, 8))
				want = got
				SaxpyRows8(a, b, stride, &got)
				refSaxpyRows8(a, b, stride, &want)
				if !sameBits(got[:], want[:]) {
					t.Fatalf("SaxpyRows8 stride=%d n=%d: %v != %v", stride, n, got, want)
				}
			}
			if stride >= 16 {
				var got, want [16]float64
				copy(got[:], fill(r, 16))
				want = got
				SaxpyRows16(a, b, stride, &got)
				refSaxpyRows16(a, b, stride, &want)
				if !sameBits(got[:], want[:]) {
					t.Fatalf("SaxpyRows16 stride=%d n=%d: %v != %v", stride, n, got, want)
				}
			}
		}
	}
}

func TestDotCols4Bitwise(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 7, 64, 129} {
		stride := n
		if stride == 0 {
			stride = 1
		}
		a := fill(r, n)
		b := fill(r, 4*stride)
		var got, want [4]float64
		DotCols4(a, b, stride, &got)
		refDotCols4(a, b, stride, &want)
		if !sameBits(got[:], want[:]) {
			t.Fatalf("DotCols4 n=%d: %v != %v", n, got, want)
		}
	}
}

func TestTile2x4Bitwise(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 3, 50} {
		for _, k1 := range []int{2, 5} {
			for _, k2 := range []int{4, 9} {
				a := fill(r, max(n*k1, 1))
				b := fill(r, max(n*k2, 1))
				var got, want [8]float64
				copy(got[:], fill(r, 8))
				want = got
				Tile2x4(a, b, k1, k2, n, &got)
				refTile2x4(a, b, k1, k2, n, &want)
				if !sameBits(got[:], want[:]) {
					t.Fatalf("Tile2x4 n=%d k1=%d k2=%d: %v != %v", n, k1, k2, got, want)
				}
			}
		}
	}
}

// Benchmarks: ref vs asm for the widest shapes, to size the speedup the
// engine-level SIMD flavor can deliver.

func benchGatherRows(b *testing.B, f func(rowPtr, idx []int, val, b, out []float64, k, lo, hi int)) {
	r := rand.New(rand.NewSource(23))
	const rows, cols, nnz, k = 512, 4096, 8192, 32
	rowPtr, idx, val := randCSR(r, rows, cols, nnz)
	mat := fill(r, cols*k)
	out := make([]float64, rows*k)
	b.SetBytes(int64(rowPtr[rows] * k * 8))
	for i := 0; i < b.N; i++ {
		f(rowPtr, idx, val, mat, out, k, 0, rows)
	}
}

func BenchmarkGatherRowsRef(b *testing.B)  { benchGatherRows(b, refGatherRows) }
func BenchmarkGatherRowsSIMD(b *testing.B) { benchGatherRows(b, GatherRows) }

func BenchmarkHopRowsRef(b *testing.B)  { benchHopRows(b, refHopRows) }
func BenchmarkHopRowsSIMD(b *testing.B) { benchHopRows(b, HopRows) }

func benchHopRows(b *testing.B, f func(rowPtr, idx []int, val, t, dst, next []float64, w float64, k, lo, hi int)) {
	r := rand.New(rand.NewSource(23))
	const rows, cols, nnz, k = 512, 4096, 8192, 32
	rowPtr, idx, val := randCSR(r, rows, cols, nnz)
	mat := fill(r, cols*k)
	dst := make([]float64, rows*k)
	next := make([]float64, cols*k)
	b.SetBytes(int64(2 * rowPtr[rows] * k * 8))
	for i := 0; i < b.N; i++ {
		f(rowPtr, idx, val, mat, dst, next, 0.5, k, 0, rows)
	}
}

func benchRows16(b *testing.B, f func([]float64, []float64, int, *[16]float64)) {
	r := rand.New(rand.NewSource(29))
	const n, stride = 512, 16
	a := fill(r, n)
	mat := fill(r, n*stride)
	var acc [16]float64
	b.SetBytes(int64(n * stride * 8))
	for i := 0; i < b.N; i++ {
		f(a, mat, stride, &acc)
	}
}

func BenchmarkRows16Ref(b *testing.B)  { benchRows16(b, refSaxpyRows16) }
func BenchmarkRows16SIMD(b *testing.B) { benchRows16(b, SaxpyRows16) }

func benchTile(b *testing.B, f func([]float64, []float64, int, int, int, *[8]float64)) {
	r := rand.New(rand.NewSource(31))
	const n, k1, k2 = 512, 8, 8
	a := fill(r, n*k1)
	mat := fill(r, n*k2)
	var acc [8]float64
	b.SetBytes(int64(n * 8 * 8))
	for i := 0; i < b.N; i++ {
		f(a, mat, k1, k2, n, &acc)
	}
}

func BenchmarkTile2x4Ref(b *testing.B)  { benchTile(b, refTile2x4) }
func BenchmarkTile2x4SIMD(b *testing.B) { benchTile(b, Tile2x4) }

func benchDot4(b *testing.B, f func([]float64, []float64, int, *[4]float64)) {
	r := rand.New(rand.NewSource(37))
	const n = 512
	a := fill(r, n)
	mat := fill(r, 4*n)
	var out [4]float64
	b.SetBytes(int64(n * 4 * 8))
	for i := 0; i < b.N; i++ {
		f(a, mat, n, &out)
	}
}

func BenchmarkDotCols4Ref(b *testing.B)  { benchDot4(b, refDotCols4) }
func BenchmarkDotCols4SIMD(b *testing.B) { benchDot4(b, DotCols4) }
