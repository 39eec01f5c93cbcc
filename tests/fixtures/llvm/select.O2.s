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
	.file	"select.ll"
	.globl	clamp                           @ -- Begin function clamp
	.p2align	1
	.type	clamp,%function
	.code	16                              @ @clamp
	.thumb_func
clamp:
	.fnstart
@ %bb.0:                                @ %entry
	cmp	r0, r1
	it	lt
	movlt	r0, r1
	cmp	r0, r2
	it	gt
	movgt	r0, r2
	bx	lr
.Lfunc_end0:
	.size	clamp, .Lfunc_end0-clamp
	.fnend
                                        @ -- End function
	.globl	sign                            @ -- Begin function sign
	.p2align	1
	.type	sign,%function
	.code	16                              @ @sign
	.thumb_func
sign:
	.fnstart
@ %bb.0:                                @ %entry
	movs	r1, #0
	cmp	r0, #0
	it	gt
	movgt	r1, #1
	it	mi
	movmi.w	r1, #-1
	mov	r0, r1
	bx	lr
.Lfunc_end1:
	.size	sign, .Lfunc_end1-sign
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 1	@ Tag_ABI_optimization_goals
