#include "textflag.h"

// AVX2 forms of the eigensolver's element-wise loops (kernels.go).
// Every slice length is a multiple of 4; the Go wrappers run the tail.
// Each product is rounded on its own (VMULPD), then added or
// subtracted in the Go expression's order, never fused: Go rounds
// every product on amd64, so an FMA would change bits. Loads and
// stores are unaligned.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1, ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7, subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func rotateAVX2(a, b []float64, c, s float64)
TEXT ·rotateAVX2(SB), NOSPLIT, $0-64
	MOVQ         a_base+0(FP), SI
	MOVQ         a_len+8(FP), CX
	MOVQ         b_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           rotdone

rotloop:
	VMOVUPD (SI)(AX*8), Y2 // a
	VMOVUPD (DI)(AX*8), Y3 // h = b
	VMULPD  Y2, Y1, Y4     // s*a
	VMULPD  Y3, Y0, Y5     // c*h
	VADDPD  Y5, Y4, Y4     // s*a + c*h
	VMOVUPD Y4, (DI)(AX*8)
	VMULPD  Y2, Y0, Y2     // c*a
	VMULPD  Y3, Y1, Y3     // s*h
	VSUBPD  Y3, Y2, Y2     // c*a - s*h
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      rotloop

rotdone:
	VZEROUPPER
	RET

// func rotate2AVX2(a, b, x []float64, c0, s0, c1, s1 float64)
TEXT ·rotate2AVX2(SB), NOSPLIT, $0-104
	MOVQ         a_base+0(FP), SI
	MOVQ         a_len+8(FP), CX
	MOVQ         b_base+24(FP), DI
	MOVQ         x_base+48(FP), DX
	VBROADCASTSD c0+72(FP), Y0
	VBROADCASTSD s0+80(FP), Y1
	VBROADCASTSD c1+88(FP), Y2
	VBROADCASTSD s1+96(FP), Y3
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           rot2done

rot2loop:
	VMOVUPD (DX)(AX*8), Y4 // h = x
	VMOVUPD (DI)(AX*8), Y5 // y = b
	VMULPD  Y5, Y3, Y6     // s1*y
	VMULPD  Y4, Y2, Y7     // c1*h
	VADDPD  Y7, Y6, Y6     // s1*y + c1*h
	VMOVUPD Y6, (DX)(AX*8)
	VMULPD  Y5, Y2, Y5     // c1*y
	VMULPD  Y4, Y3, Y4     // s1*h
	VSUBPD  Y4, Y5, Y5     // y = c1*y - s1*h
	VMOVUPD (SI)(AX*8), Y6 // a
	VMULPD  Y6, Y1, Y7     // s0*a
	VMULPD  Y5, Y0, Y8     // c0*y
	VADDPD  Y8, Y7, Y7     // s0*a + c0*y
	VMOVUPD Y7, (DI)(AX*8)
	VMULPD  Y6, Y0, Y6     // c0*a
	VMULPD  Y5, Y1, Y5     // s0*y
	VSUBPD  Y5, Y6, Y6     // c0*a - s0*y
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      rot2loop

rot2done:
	VZEROUPPER
	RET

// func addScaledAVX2(dst, x []float64, s float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           adddone

addloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1     // x*s
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2     // dst + x*s
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      addloop

adddone:
	VZEROUPPER
	RET

// func subScaledAVX2(dst, x []float64, s float64)
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           subdone

subloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y0, Y1     // s*x
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2     // dst - s*x
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      subloop

subdone:
	VZEROUPPER
	RET

// func subScaled2AVX2(dst, x, y []float64, s, t float64)
TEXT ·subScaled2AVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD s+72(FP), Y0
	VBROADCASTSD t+80(FP), Y1
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           sub2done

sub2loop:
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y2, Y0, Y2     // s*x
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y3, Y1, Y3     // t*y
	VADDPD  Y3, Y2, Y2     // s*x + t*y
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4     // dst - (s*x + t*y)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      sub2loop

sub2done:
	VZEROUPPER
	RET
