//go:build purego || (!amd64 && !arm64)

package simd

// The purego build (and architectures without assembly) gets the
// reference implementations under the exported names. HasSIMD reports
// false, so nothing ever registers these with the dispatch tables —
// they exist so engine wrapper code compiles identically on every
// build.

// HasSIMD reports false: this build carries no vector kernels.
func HasSIMD() bool { return false }

// HasHop reports false: HopRows is the Go reference here.
func HasHop() bool { return false }

// SIMDName is the instruction-set suffix kernel names would carry.
func SIMDName() string { return "purego" }

func GatherRows(rowPtr, idx []int, val, b, out []float64, k, lo, hi int) {
	refGatherRows(rowPtr, idx, val, b, out, k, lo, hi)
}

func HopRows(rowPtr, idx []int, val, t, dst, next []float64, w float64, k, lo, hi int) {
	refHopRows(rowPtr, idx, val, t, dst, next, w, k, lo, hi)
}

func SaxpyRows8(a []float64, b []float64, stride int, acc *[8]float64) {
	refSaxpyRows8(a, b, stride, acc)
}

func SaxpyRows16(a []float64, b []float64, stride int, acc *[16]float64) {
	refSaxpyRows16(a, b, stride, acc)
}

func DotCols4(a []float64, b []float64, stride int, out *[4]float64) {
	refDotCols4(a, b, stride, out)
}

func Tile2x4(a, b []float64, k1, k2, n int, acc *[8]float64) {
	refTile2x4(a, b, k1, k2, n, acc)
}
