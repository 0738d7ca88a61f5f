package simd

// Reference implementations of every primitive, written exactly like the
// scalar engine kernels so the compiler applies the same multiply-add
// treatment per architecture (separate MULSD+ADDSD on amd64, fused
// FMADDD on arm64). They are the bodies of the purego build and the
// oracles the assembly is tested against.

func refGatherRows(rowPtr, idx []int, val, b, out []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out[i*k:][:k]
		clear(orow)
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			v := val[p]
			for j, bv := range b[idx[p]*k:][:k] {
				orow[j] += v * bv
			}
		}
	}
}

// refHopRows spells HopRows out as its three steps per row: the
// refGatherRows sum into a row buffer, AddScaled's update of dst, and
// the scatter of the reference Wᵀ·B loop.
func refHopRows(rowPtr, idx []int, val, t, dst, next []float64, w float64, k, lo, hi int) {
	q := make([]float64, k)
	for i := lo; i < hi; i++ {
		refGatherRows(rowPtr[i:], idx, val, t, q, k, 0, 1)
		if len(dst) > 0 {
			d := dst[i*k:][:k]
			for j, v := range q {
				d[j] += w * v
			}
		}
		if len(next) == 0 {
			continue
		}
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			v := val[p]
			nrow := next[idx[p]*k:][:k]
			for j, qv := range q {
				nrow[j] += v * qv
			}
		}
	}
}

func refSaxpyRows8(a []float64, b []float64, stride int, acc *[8]float64) {
	for l, av := range a {
		row := b[l*stride:]
		for j := 0; j < 8; j++ {
			acc[j] += av * row[j]
		}
	}
}

func refSaxpyRows16(a []float64, b []float64, stride int, acc *[16]float64) {
	for l, av := range a {
		row := b[l*stride:]
		for j := 0; j < 16; j++ {
			acc[j] += av * row[j]
		}
	}
}

func refDotCols4(a []float64, b []float64, stride int, out *[4]float64) {
	var s [4]float64
	for l, av := range a {
		for j := 0; j < 4; j++ {
			s[j] += av * b[j*stride+l]
		}
	}
	*out = s
}

func refTile2x4(a, b []float64, k1, k2, n int, acc *[8]float64) {
	for l := 0; l < n; l++ {
		a0, a1 := a[l*k1], a[l*k1+1]
		row := b[l*k2:]
		for c := 0; c < 4; c++ {
			acc[c] += a0 * row[c]
			acc[4+c] += a1 * row[c]
		}
	}
}
