//go:build amd64 && !purego

#include "textflag.h"

// AVX2 primitives. Layout shared by all of them:
//
//   SI  value/row stream (val or a)     CX  trip count
//   DI  index stream (gather)           AX  loop counter
//   R8  matrix base (b)                 R9  stride in bytes
//   R10 accumulator pointer             DX  per-trip row byte offset
//
// The non-fused bodies pair VMULPD with VADDPD so every lane rounds
// exactly like the scalar MULSD+ADDSD sequence the Go kernels compile
// to; the *FMA bodies are the same loops with VFMADD231PD. Accumulator
// state lives in Y0..Y3 for the whole call and is loaded from / stored
// to *acc, so callers control seeding (zeros for fresh rows, the
// current output for resumed tiles).

// func GatherSaxpy8(val []float64, idx []int, b []float64, stride int, acc *[8]float64)
TEXT ·GatherSaxpy8(SB), NOSPLIT, $0-88
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), CX
	MOVQ idx_base+24(FP), DI
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R9
	MOVQ acc+80(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	XORQ AX, AX
g8loop:
	CMPQ AX, CX
	JGE  g8done
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y2
	VMULPD (R8)(DX*1), Y2, Y3
	VADDPD Y3, Y0, Y0
	VMULPD 32(R8)(DX*1), Y2, Y4
	VADDPD Y4, Y1, Y1
	INCQ AX
	JMP  g8loop
g8done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func GatherSaxpy8FMA(val []float64, idx []int, b []float64, stride int, acc *[8]float64)
TEXT ·GatherSaxpy8FMA(SB), NOSPLIT, $0-88
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), CX
	MOVQ idx_base+24(FP), DI
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R9
	MOVQ acc+80(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	XORQ AX, AX
g8floop:
	CMPQ AX, CX
	JGE  g8fdone
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y2
	VFMADD231PD (R8)(DX*1), Y2, Y0
	VFMADD231PD 32(R8)(DX*1), Y2, Y1
	INCQ AX
	JMP  g8floop
g8fdone:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func GatherSaxpy16(val []float64, idx []int, b []float64, stride int, acc *[16]float64)
TEXT ·GatherSaxpy16(SB), NOSPLIT, $0-88
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), CX
	MOVQ idx_base+24(FP), DI
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R9
	MOVQ acc+80(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	XORQ AX, AX
g16loop:
	CMPQ AX, CX
	JGE  g16done
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD (R8)(DX*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R8)(DX*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R8)(DX*1), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R8)(DX*1), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ AX
	JMP  g16loop
g16done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VZEROUPPER
	RET

// func GatherSaxpy16FMA(val []float64, idx []int, b []float64, stride int, acc *[16]float64)
TEXT ·GatherSaxpy16FMA(SB), NOSPLIT, $0-88
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), CX
	MOVQ idx_base+24(FP), DI
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R9
	MOVQ acc+80(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	XORQ AX, AX
g16floop:
	CMPQ AX, CX
	JGE  g16fdone
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y4
	VFMADD231PD (R8)(DX*1), Y4, Y0
	VFMADD231PD 32(R8)(DX*1), Y4, Y1
	VFMADD231PD 64(R8)(DX*1), Y4, Y2
	VFMADD231PD 96(R8)(DX*1), Y4, Y3
	INCQ AX
	JMP  g16floop
g16fdone:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VZEROUPPER
	RET

// func SaxpyRows8(a []float64, b []float64, stride int, acc *[8]float64)
TEXT ·SaxpyRows8(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ acc+56(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	XORQ AX, AX
r8loop:
	CMPQ AX, CX
	JGE  r8done
	VBROADCASTSD (SI)(AX*8), Y2
	VMULPD (R8), Y2, Y3
	VADDPD Y3, Y0, Y0
	VMULPD 32(R8), Y2, Y4
	VADDPD Y4, Y1, Y1
	ADDQ R9, R8
	INCQ AX
	JMP  r8loop
r8done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func SaxpyRows8FMA(a []float64, b []float64, stride int, acc *[8]float64)
TEXT ·SaxpyRows8FMA(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ acc+56(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	XORQ AX, AX
r8floop:
	CMPQ AX, CX
	JGE  r8fdone
	VBROADCASTSD (SI)(AX*8), Y2
	VFMADD231PD (R8), Y2, Y0
	VFMADD231PD 32(R8), Y2, Y1
	ADDQ R9, R8
	INCQ AX
	JMP  r8floop
r8fdone:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func SaxpyRows16(a []float64, b []float64, stride int, acc *[16]float64)
TEXT ·SaxpyRows16(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ acc+56(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	XORQ AX, AX
r16loop:
	CMPQ AX, CX
	JGE  r16done
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD (R8), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R8), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R8), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R8), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R9, R8
	INCQ AX
	JMP  r16loop
r16done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VZEROUPPER
	RET

// func SaxpyRows16FMA(a []float64, b []float64, stride int, acc *[16]float64)
TEXT ·SaxpyRows16FMA(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ acc+56(FP), R10
	SHLQ $3, R9
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	XORQ AX, AX
r16floop:
	CMPQ AX, CX
	JGE  r16fdone
	VBROADCASTSD (SI)(AX*8), Y4
	VFMADD231PD (R8), Y4, Y0
	VFMADD231PD 32(R8), Y4, Y1
	VFMADD231PD 64(R8), Y4, Y2
	VFMADD231PD 96(R8), Y4, Y3
	ADDQ R9, R8
	INCQ AX
	JMP  r16floop
r16fdone:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VZEROUPPER
	RET

// func DotCols4(a []float64, b []float64, stride int, out *[4]float64)
//
// Lane j of Y0 is output column j's accumulator; per element the four
// strided b values are packed into one ymm (two VUNPCKLPDs and a
// VINSERTF128), so each lane still sums in ascending l order.
TEXT ·DotCols4(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ out+56(FP), R10
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
d4loop:
	CMPQ AX, CX
	JGE  d4done
	VMOVSD (R8), X2
	VMOVSD (R8)(R9*1), X3
	VUNPCKLPD X3, X2, X2
	VMOVSD (R8)(R9*2), X4
	VMOVSD (R8)(R11*1), X5
	VUNPCKLPD X5, X4, X4
	VINSERTF128 $1, X4, Y2, Y2
	VBROADCASTSD (SI)(AX*8), Y3
	VMULPD Y2, Y3, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $8, R8
	INCQ AX
	JMP  d4loop
d4done:
	VMOVUPD Y0, (R10)
	VZEROUPPER
	RET

// func DotCols4FMA(a []float64, b []float64, stride int, out *[4]float64)
TEXT ·DotCols4FMA(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ stride+48(FP), R9
	MOVQ out+56(FP), R10
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
d4floop:
	CMPQ AX, CX
	JGE  d4fdone
	VMOVSD (R8), X2
	VMOVSD (R8)(R9*1), X3
	VUNPCKLPD X3, X2, X2
	VMOVSD (R8)(R9*2), X4
	VMOVSD (R8)(R11*1), X5
	VUNPCKLPD X5, X4, X4
	VINSERTF128 $1, X4, Y2, Y2
	VBROADCASTSD (SI)(AX*8), Y3
	VFMADD231PD Y2, Y3, Y0
	ADDQ $8, R8
	INCQ AX
	JMP  d4floop
d4fdone:
	VMOVUPD Y0, (R10)
	VZEROUPPER
	RET

// func Tile2x4(a, b []float64, k1, k2, n int, acc *[8]float64)
TEXT ·Tile2x4(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), R8
	MOVQ k1+48(FP), R9
	MOVQ k2+56(FP), R11
	MOVQ n+64(FP), CX
	MOVQ acc+72(FP), R10
	SHLQ $3, R9
	SHLQ $3, R11
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	TESTQ CX, CX
	JLE  t24done
t24loop:
	VMOVUPD (R8), Y4
	VBROADCASTSD (SI), Y2
	VBROADCASTSD 8(SI), Y3
	VMULPD Y4, Y2, Y5
	VADDPD Y5, Y0, Y0
	VMULPD Y4, Y3, Y6
	VADDPD Y6, Y1, Y1
	ADDQ R9, SI
	ADDQ R11, R8
	DECQ CX
	JNZ  t24loop
t24done:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func Tile2x4FMA(a, b []float64, k1, k2, n int, acc *[8]float64)
TEXT ·Tile2x4FMA(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), R8
	MOVQ k1+48(FP), R9
	MOVQ k2+56(FP), R11
	MOVQ n+64(FP), CX
	MOVQ acc+72(FP), R10
	SHLQ $3, R9
	SHLQ $3, R11
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	TESTQ CX, CX
	JLE  t24fdone
t24floop:
	VMOVUPD (R8), Y4
	VBROADCASTSD (SI), Y2
	VBROADCASTSD 8(SI), Y3
	VFMADD231PD Y4, Y2, Y0
	VFMADD231PD Y4, Y3, Y1
	ADDQ R9, SI
	ADDQ R11, R8
	DECQ CX
	JNZ  t24floop
t24fdone:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET
