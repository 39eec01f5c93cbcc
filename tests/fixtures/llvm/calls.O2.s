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
	.file	"calls.ll"
	.globl	square                          @ -- Begin function square
	.p2align	1
	.type	square,%function
	.code	16                              @ @square
	.thumb_func
square:
	.fnstart
@ %bb.0:                                @ %entry
	muls	r0, r0, r0
	bx	lr
.Lfunc_end0:
	.size	square, .Lfunc_end0-square
	.fnend
                                        @ -- End function
	.globl	sum_of_squares                  @ -- Begin function sum_of_squares
	.p2align	1
	.type	sum_of_squares,%function
	.code	16                              @ @sum_of_squares
	.thumb_func
sum_of_squares:
	.fnstart
@ %bb.0:                                @ %entry
	.save	{r4, r5, r7, lr}
	push	{r4, r5, r7, lr}
	mov	r4, r1
	bl	square
	mov	r5, r0
	mov	r0, r4
	bl	square
	bl	external
	add	r0, r5
	pop	{r4, r5, r7, pc}
.Lfunc_end1:
	.size	sum_of_squares, .Lfunc_end1-sum_of_squares
	.fnend
                                        @ -- End function
	.globl	forward                         @ -- Begin function forward
	.p2align	1
	.type	forward,%function
	.code	16                              @ @forward
	.thumb_func
forward:
	.fnstart
@ %bb.0:                                @ %entry
	adds	r0, #1
	b	external
.Lfunc_end2:
	.size	forward, .Lfunc_end2-forward
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 1	@ Tag_ABI_optimization_goals
