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
	.file	"literal_pool.ll"
	.globl	mix                             @ -- Begin function mix
	.p2align	2
	.type	mix,%function
	.code	16                              @ @mix
	.thumb_func
mix:
	.fnstart
@ %bb.0:                                @ %entry
	ldr	r1, .LCPI0_0
	eors	r0, r1
	ldr	r1, .LCPI0_1
	muls	r0, r1, r0
	bx	lr
	.p2align	2
@ %bb.1:
.LCPI0_0:
	.long	305419896                       @ 0x12345678
.LCPI0_1:
	.long	2654435761                      @ 0x9e3779b1
.Lfunc_end0:
	.size	mix, .Lfunc_end0-mix
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 4	@ Tag_ABI_optimization_goals
