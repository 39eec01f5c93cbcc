	.text
	.syntax unified
	.eabi_attribute	67, "2.09"	@ Tag_conformance
	.eabi_attribute	6, 10	@ Tag_CPU_arch
	.eabi_attribute	7, 77	@ Tag_CPU_arch_profile
	.eabi_attribute	8, 0	@ Tag_ARM_ISA_use
	.eabi_attribute	9, 2	@ Tag_THUMB_ISA_use
	.eabi_attribute	34, 1	@ Tag_CPU_unaligned_access
	.eabi_attribute	17, 1	@ Tag_ABI_PCS_GOT_use
	.eabi_attribute	20, 1	@ Tag_ABI_FP_denormal
	.eabi_attribute	21, 1	@ Tag_ABI_FP_exceptions
	.eabi_attribute	23, 3	@ Tag_ABI_FP_number_model
	.eabi_attribute	24, 1	@ Tag_ABI_align_needed
	.eabi_attribute	25, 1	@ Tag_ABI_align_preserved
	.eabi_attribute	38, 1	@ Tag_ABI_FP_16bit_format
	.eabi_attribute	14, 0	@ Tag_ABI_PCS_R9_use
	.file	"loops.ll"
	.globl	matrix_sum                      @ -- Begin function matrix_sum
	.p2align	1
	.type	matrix_sum,%function
	.code	16                              @ @matrix_sum
	.thumb_func
matrix_sum:
	.fnstart
@ %bb.0:                                @ %entry
	.save	{r4, r5, r7, lr}
	push	{r4, r5, r7, lr}
	cmp	r1, #1
	blt	.LBB0_7
@ %bb.1:                                @ %outer.preheader
	lsl.w	r12, r2, #2
	mov.w	lr, #0
	movs	r3, #0
	b	.LBB0_3
.LBB0_2:                                @ %outer.latch
                                        @   in Loop: Header=BB0_3 Depth=1
	add.w	lr, lr, #1
	add	r0, r12
	cmp	lr, r1
	bge	.LBB0_6
.LBB0_3:                                @ %outer
                                        @ =>This Loop Header: Depth=1
                                        @     Child Loop BB0_5 Depth 2
	cmp	r2, #1
	blt	.LBB0_2
@ %bb.4:                                @ %inner.preheader
                                        @   in Loop: Header=BB0_3 Depth=1
	movs	r4, #0
.LBB0_5:                                @ %inner
                                        @   Parent Loop BB0_3 Depth=1
                                        @ =>  This Inner Loop Header: Depth=2
	ldr.w	r5, [r0, r4, lsl #2]
	adds	r4, #1
	cmp	r4, r2
	add	r3, r5
	blt	.LBB0_5
	b	.LBB0_2
.LBB0_6:                                @ %exit
	mov	r0, r3
	pop	{r4, r5, r7, pc}
.LBB0_7:
	movs	r0, #0
	pop	{r4, r5, r7, pc}
.Lfunc_end0:
	.size	matrix_sum, .Lfunc_end0-matrix_sum
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 1	@ Tag_ABI_optimization_goals
