//go:build arm64 && !purego

#include "textflag.h"

// NEON primitives. Same register plan everywhere:
//
//   R0  value/row stream (val or a)     R1  trip count
//   R2  index stream (gather)           R6  loop counter
//   R3  matrix base (b)                 R7  row index → byte offset
//   R4  stride in bytes                 R8  row address
//   R5  accumulator pointer
//
// Every multiply-add is a fused VFMLA: the Go compiler emits FMADDD for
// the scalar kernels on arm64, so fused NEON lanes round identically to
// the oracle.

// func gatherSaxpy8(val []float64, idx []int, b []float64, stride int, acc *[8]float64)
TEXT ·gatherSaxpy8(SB), NOSPLIT, $0-88
	MOVD val_base+0(FP), R0
	MOVD val_len+8(FP), R1
	MOVD idx_base+24(FP), R2
	MOVD b_base+48(FP), R3
	MOVD stride+72(FP), R4
	MOVD acc+80(FP), R5
	LSL  $3, R4
	VLD1 (R5), [V0.D2, V1.D2, V2.D2, V3.D2]
	MOVD $0, R6
g8loop:
	CMP  R1, R6
	BGE  g8done
	MOVD (R2)(R6<<3), R7
	MUL  R4, R7, R7
	ADD  R3, R7, R8
	FMOVD (R0)(R6<<3), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R8), [V5.D2, V6.D2, V7.D2, V8.D2]
	VFMLA V5.D2, V4.D2, V0.D2
	VFMLA V6.D2, V4.D2, V1.D2
	VFMLA V7.D2, V4.D2, V2.D2
	VFMLA V8.D2, V4.D2, V3.D2
	ADD  $1, R6
	B    g8loop
g8done:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	RET

// func gatherSaxpy16(val []float64, idx []int, b []float64, stride int, acc *[16]float64)
TEXT ·gatherSaxpy16(SB), NOSPLIT, $0-88
	MOVD val_base+0(FP), R0
	MOVD val_len+8(FP), R1
	MOVD idx_base+24(FP), R2
	MOVD b_base+48(FP), R3
	MOVD stride+72(FP), R4
	MOVD acc+80(FP), R5
	LSL  $3, R4
	ADD  $64, R5, R9
	VLD1 (R5), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1 (R9), [V16.D2, V17.D2, V18.D2, V19.D2]
	MOVD $0, R6
g16loop:
	CMP  R1, R6
	BGE  g16done
	MOVD (R2)(R6<<3), R7
	MUL  R4, R7, R7
	ADD  R3, R7, R8
	FMOVD (R0)(R6<<3), F4
	VDUP V4.D[0], V4.D2
	VLD1.P 64(R8), [V8.D2, V9.D2, V10.D2, V11.D2]
	VLD1 (R8), [V12.D2, V13.D2, V14.D2, V15.D2]
	VFMLA V8.D2, V4.D2, V0.D2
	VFMLA V9.D2, V4.D2, V1.D2
	VFMLA V10.D2, V4.D2, V2.D2
	VFMLA V11.D2, V4.D2, V3.D2
	VFMLA V12.D2, V4.D2, V16.D2
	VFMLA V13.D2, V4.D2, V17.D2
	VFMLA V14.D2, V4.D2, V18.D2
	VFMLA V15.D2, V4.D2, V19.D2
	ADD  $1, R6
	B    g16loop
g16done:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	VST1 [V16.D2, V17.D2, V18.D2, V19.D2], (R9)
	RET

// func SaxpyRows8(a []float64, b []float64, stride int, acc *[8]float64)
TEXT ·SaxpyRows8(SB), NOSPLIT, $0-64
	MOVD a_base+0(FP), R0
	MOVD a_len+8(FP), R1
	MOVD b_base+24(FP), R3
	MOVD stride+48(FP), R4
	MOVD acc+56(FP), R5
	LSL  $3, R4
	VLD1 (R5), [V0.D2, V1.D2, V2.D2, V3.D2]
	MOVD $0, R6
r8loop:
	CMP  R1, R6
	BGE  r8done
	FMOVD (R0)(R6<<3), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R3), [V5.D2, V6.D2, V7.D2, V8.D2]
	VFMLA V5.D2, V4.D2, V0.D2
	VFMLA V6.D2, V4.D2, V1.D2
	VFMLA V7.D2, V4.D2, V2.D2
	VFMLA V8.D2, V4.D2, V3.D2
	ADD  R4, R3
	ADD  $1, R6
	B    r8loop
r8done:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	RET

// func SaxpyRows16(a []float64, b []float64, stride int, acc *[16]float64)
TEXT ·SaxpyRows16(SB), NOSPLIT, $0-64
	MOVD a_base+0(FP), R0
	MOVD a_len+8(FP), R1
	MOVD b_base+24(FP), R3
	MOVD stride+48(FP), R4
	MOVD acc+56(FP), R5
	LSL  $3, R4
	ADD  $64, R5, R9
	VLD1 (R5), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1 (R9), [V16.D2, V17.D2, V18.D2, V19.D2]
	MOVD $0, R6
r16loop:
	CMP  R1, R6
	BGE  r16done
	FMOVD (R0)(R6<<3), F4
	VDUP V4.D[0], V4.D2
	MOVD R3, R8
	VLD1.P 64(R8), [V8.D2, V9.D2, V10.D2, V11.D2]
	VLD1 (R8), [V12.D2, V13.D2, V14.D2, V15.D2]
	VFMLA V8.D2, V4.D2, V0.D2
	VFMLA V9.D2, V4.D2, V1.D2
	VFMLA V10.D2, V4.D2, V2.D2
	VFMLA V11.D2, V4.D2, V3.D2
	VFMLA V12.D2, V4.D2, V16.D2
	VFMLA V13.D2, V4.D2, V17.D2
	VFMLA V14.D2, V4.D2, V18.D2
	VFMLA V15.D2, V4.D2, V19.D2
	ADD  R4, R3
	ADD  $1, R6
	B    r16loop
r16done:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	VST1 [V16.D2, V17.D2, V18.D2, V19.D2], (R9)
	RET

// func DotCols4(a []float64, b []float64, stride int, out *[4]float64)
//
// Lanes of V0/V1 are output columns 0..3; the four strided b values are
// packed per element with FMOVD + lane inserts, so each lane still sums
// in ascending l order.
TEXT ·DotCols4(SB), NOSPLIT, $0-64
	MOVD a_base+0(FP), R0
	MOVD a_len+8(FP), R1
	MOVD b_base+24(FP), R3
	MOVD stride+48(FP), R4
	MOVD out+56(FP), R5
	LSL  $3, R4
	MOVD R3, R8
	ADD  R4, R8, R9
	ADD  R4, R9, R10
	ADD  R4, R10, R11
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	MOVD $0, R6
d4loop:
	CMP  R1, R6
	BGE  d4done
	FMOVD (R8)(R6<<3), F2
	FMOVD (R9)(R6<<3), F5
	VMOV V5.D[0], V2.D[1]
	FMOVD (R10)(R6<<3), F3
	FMOVD (R11)(R6<<3), F5
	VMOV V5.D[0], V3.D[1]
	FMOVD (R0)(R6<<3), F4
	VDUP V4.D[0], V4.D2
	VFMLA V2.D2, V4.D2, V0.D2
	VFMLA V3.D2, V4.D2, V1.D2
	ADD  $1, R6
	B    d4loop
d4done:
	VST1 [V0.D2, V1.D2], (R5)
	RET

// func Tile2x4(a, b []float64, k1, k2, n int, acc *[8]float64)
TEXT ·Tile2x4(SB), NOSPLIT, $0-80
	MOVD a_base+0(FP), R0
	MOVD b_base+24(FP), R3
	MOVD k1+48(FP), R4
	MOVD k2+56(FP), R5
	MOVD n+64(FP), R1
	MOVD acc+72(FP), R10
	LSL  $3, R4
	LSL  $3, R5
	VLD1 (R10), [V0.D2, V1.D2, V2.D2, V3.D2]
	CMP  $0, R1
	BLE  t24done
t24loop:
	VLD1 (R3), [V4.D2, V5.D2]
	FMOVD (R0), F6
	VDUP V6.D[0], V6.D2
	FMOVD 8(R0), F7
	VDUP V7.D[0], V7.D2
	VFMLA V4.D2, V6.D2, V0.D2
	VFMLA V5.D2, V6.D2, V1.D2
	VFMLA V4.D2, V7.D2, V2.D2
	VFMLA V5.D2, V7.D2, V3.D2
	ADD  R4, R0
	ADD  R5, R3
	SUB  $1, R1
	CBNZ R1, t24loop
t24done:
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R10)
	RET
