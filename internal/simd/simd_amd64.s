//go:build amd64 && !purego

#include "textflag.h"

// AVX2 primitives. The per-row primitives share one register plan
// (GatherRows has its own, below):
//
//   SI  value/row stream (val or a)     CX  trip count
//   R8  matrix base (b)                 AX  loop counter
//   R9  stride in bytes                 R10 accumulator pointer
//
// Every body pairs VMULPD with VADDPD so each lane rounds exactly like
// the scalar MULSD+ADDSD sequence the Go kernels compile to. In the
// per-row primitives accumulator state lives in Y0..Y3 for the whole
// call and is loaded from / stored to *acc, so callers control seeding
// (zeros for fresh rows, the current output for resumed tiles).

// GatherRows: the whole row range of a CSR·dense product in one call.
// Registers:
//
//   R11 rowPtr base      DI  idx base        SI  val base
//   R8  b base           R9  row stride (k·8 bytes)
//   R10 output cursor    BX  row i           R12 hi
//   R13 rowPtr[i]        CX  rowPtr[i+1]     AX  entry p
//   R14 b column cursor  DX  idx[p]·stride / columns left (bytes)
//
// Each row is cut into 32-column panels (accumulators Y0..Y7) and a
// 16- and/or 8-column tail (Y0..Y3, Y0..Y1); one pass over the row's
// entries per panel, broadcast value in Y8, products in Y9..Y12. The
// accumulators start at zero and are stored straight to the output, so
// an empty row is written as zeros. The output cursor advances by the
// panel widths, which sum to k: k must be a positive multiple of 8.

// func GatherRows(rowPtr []int, idx []int, val []float64, b []float64, out []float64, k, lo, hi int)
TEXT ·GatherRows(SB), NOSPLIT, $0-144
	MOVQ rowPtr_base+0(FP), R11
	MOVQ idx_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ b_base+72(FP), R8
	MOVQ out_base+96(FP), R10
	MOVQ k+120(FP), R9
	MOVQ lo+128(FP), BX
	MOVQ hi+136(FP), R12
	SHLQ $3, R9
	MOVQ BX, AX
	IMULQ R9, AX
	ADDQ AX, R10
gatherrowsrow:
	CMPQ BX, R12
	JGE  gatherrowsdone
	MOVQ (R11)(BX*8), R13
	MOVQ 8(R11)(BX*8), CX
	MOVQ R8, R14
gatherrowspanel:
	MOVQ R8, DX
	ADDQ R9, DX
	SUBQ R14, DX
	CMPQ DX, $256
	JGE  gatherrowsp32
	CMPQ DX, $128
	JGE  gatherrowsp16
	CMPQ DX, $64
	JGE  gatherrowsp8
	INCQ BX
	JMP  gatherrowsrow
gatherrowsp32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R13, AX
gatherrowsl32:
	CMPQ AX, CX
	JGE  gatherrowss32
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R14)(DX*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y7, Y7
	INCQ AX
	JMP  gatherrowsl32
gatherrowss32:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VMOVUPD Y4, 128(R10)
	VMOVUPD Y5, 160(R10)
	VMOVUPD Y6, 192(R10)
	VMOVUPD Y7, 224(R10)
	ADDQ $256, R10
	ADDQ $256, R14
	JMP  gatherrowspanel
gatherrowsp16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R13, AX
gatherrowsl16:
	CMPQ AX, CX
	JGE  gatherrowss16
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	INCQ AX
	JMP  gatherrowsl16
gatherrowss16:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ $128, R10
	ADDQ $128, R14
	JMP  gatherrowspanel
gatherrowsp8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R13, AX
gatherrowsl8:
	CMPQ AX, CX
	JGE  gatherrowss8
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	INCQ AX
	JMP  gatherrowsl8
gatherrowss8:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	ADDQ $64, R10
	ADDQ $64, R14
	JMP  gatherrowspanel
gatherrowsdone:
	VZEROUPPER
	RET

// HopRows: one KSI hop over a row range in one pass. Registers as in
// GatherRows, plus:
//
//   R10 dst cursor (row i, current panel)   R15 next column cursor
//   Y13 w, broadcast                         Y10 next panel in flight
//
// Per panel the row's entries are read twice: the gather (GatherRows'
// loop, q in Y0..Y7) and, unless next is empty, the scatter. Between
// them, unless dst is empty, HOPEPI updates dst. Operand order follows
// the code each step replaces, so each lane's NaN result is the same too:
// q·w then + dst (first operands q and the product, as AddScaled
// compiles), and the scatter's val·q then next + product (first
// operands val and next, as the Wᵀ gather's VMULPD/VADDPD).
#define HOPEPI(off, q) VMULPD Y13, q, Y9; VADDPD off(R10), Y9, Y9; VMOVUPD Y9, off(R10)
#define HOPSCAT(off, q) VMULPD q, Y8, Y9; VMOVUPD off(R15)(DX*1), Y10; VADDPD Y9, Y10, Y10; VMOVUPD Y10, off(R15)(DX*1)

// func HopRows(rowPtr []int, idx []int, val []float64, t []float64, dst []float64, next []float64, w float64, k, lo, hi int)
TEXT ·HopRows(SB), NOSPLIT, $0-176
	MOVQ rowPtr_base+0(FP), R11
	MOVQ idx_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ t_base+72(FP), R8
	MOVQ dst_base+96(FP), R10
	VBROADCASTSD w+144(FP), Y13
	MOVQ k+152(FP), R9
	MOVQ lo+160(FP), BX
	MOVQ hi+168(FP), R12
	SHLQ $3, R9
	MOVQ BX, AX
	IMULQ R9, AX
	ADDQ AX, R10
hoprow:
	CMPQ BX, R12
	JGE  hopdone
	MOVQ (R11)(BX*8), R13
	MOVQ 8(R11)(BX*8), CX
	MOVQ R8, R14
	MOVQ next_base+120(FP), R15
hoppanel:
	MOVQ R8, DX
	ADDQ R9, DX
	SUBQ R14, DX
	CMPQ DX, $256
	JGE  hopp32
	CMPQ DX, $128
	JGE  hopp16
	CMPQ DX, $64
	JGE  hopp8
	INCQ BX
	JMP  hoprow
hopp32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R13, AX
hopg32:
	CMPQ AX, CX
	JGE  hope32
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R14)(DX*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y7, Y7
	INCQ AX
	JMP  hopg32
hope32:
	CMPQ dst_len+104(FP), $0
	JEQ  hops32
	HOPEPI(0, Y0)
	HOPEPI(32, Y1)
	HOPEPI(64, Y2)
	HOPEPI(96, Y3)
	HOPEPI(128, Y4)
	HOPEPI(160, Y5)
	HOPEPI(192, Y6)
	HOPEPI(224, Y7)
hops32:
	CMPQ next_len+128(FP), $0
	JEQ  hopn32
	MOVQ R13, AX
hopsl32:
	CMPQ AX, CX
	JGE  hopn32
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	HOPSCAT(0, Y0)
	HOPSCAT(32, Y1)
	HOPSCAT(64, Y2)
	HOPSCAT(96, Y3)
	HOPSCAT(128, Y4)
	HOPSCAT(160, Y5)
	HOPSCAT(192, Y6)
	HOPSCAT(224, Y7)
	INCQ AX
	JMP  hopsl32
hopn32:
	ADDQ $256, R10
	ADDQ $256, R14
	ADDQ $256, R15
	JMP  hoppanel
hopp16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R13, AX
hopg16:
	CMPQ AX, CX
	JGE  hope16
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R14)(DX*1), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R14)(DX*1), Y8, Y12
	VADDPD Y12, Y3, Y3
	INCQ AX
	JMP  hopg16
hope16:
	CMPQ dst_len+104(FP), $0
	JEQ  hops16
	HOPEPI(0, Y0)
	HOPEPI(32, Y1)
	HOPEPI(64, Y2)
	HOPEPI(96, Y3)
hops16:
	CMPQ next_len+128(FP), $0
	JEQ  hopn16
	MOVQ R13, AX
hopsl16:
	CMPQ AX, CX
	JGE  hopn16
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	HOPSCAT(0, Y0)
	HOPSCAT(32, Y1)
	HOPSCAT(64, Y2)
	HOPSCAT(96, Y3)
	INCQ AX
	JMP  hopsl16
hopn16:
	ADDQ $128, R10
	ADDQ $128, R14
	ADDQ $128, R15
	JMP  hoppanel
hopp8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ R13, AX
hopg8:
	CMPQ AX, CX
	JGE  hope8
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R14)(DX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R14)(DX*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	INCQ AX
	JMP  hopg8
hope8:
	CMPQ dst_len+104(FP), $0
	JEQ  hops8
	HOPEPI(0, Y0)
	HOPEPI(32, Y1)
hops8:
	CMPQ next_len+128(FP), $0
	JEQ  hopn8
	MOVQ R13, AX
hopsl8:
	CMPQ AX, CX
	JGE  hopn8
	MOVQ (DI)(AX*8), DX
	IMULQ R9, DX
	VBROADCASTSD (SI)(AX*8), Y8
	HOPSCAT(0, Y0)
	HOPSCAT(32, Y1)
	INCQ AX
	JMP  hopsl8
hopn8:
	ADDQ $64, R10
	ADDQ $64, R14
	ADDQ $64, R15
	JMP  hoppanel
hopdone:
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
