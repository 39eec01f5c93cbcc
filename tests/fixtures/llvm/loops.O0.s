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
	.pad	#32
	sub	sp, #32
	str	r2, [sp, #12]                   @ 4-byte Spill
	str	r1, [sp, #16]                   @ 4-byte Spill
	str	r0, [sp, #20]                   @ 4-byte Spill
	movs	r0, #0
	cmp	r1, #1
	mov	r1, r0
	str	r1, [sp, #24]                   @ 4-byte Spill
	str	r0, [sp, #28]                   @ 4-byte Spill
	blt	.LBB0_4
	b	.LBB0_1
.LBB0_1:                                @ %outer
                                        @ =>This Loop Header: Depth=1
                                        @     Child Loop BB0_2 Depth 2
	ldr	r2, [sp, #12]                   @ 4-byte Reload
	ldr	r1, [sp, #24]                   @ 4-byte Reload
	ldr	r0, [sp, #28]                   @ 4-byte Reload
	str	r1, [sp]                        @ 4-byte Spill
	movs	r1, #0
	cmp	r2, #1
	str	r1, [sp, #4]                    @ 4-byte Spill
	str	r0, [sp, #8]                    @ 4-byte Spill
	blt	.LBB0_3
	b	.LBB0_2
.LBB0_2:                                @ %inner
                                        @   Parent Loop BB0_1 Depth=1
                                        @ =>  This Inner Loop Header: Depth=2
	ldr	r0, [sp, #8]                    @ 4-byte Reload
	ldr	r1, [sp, #4]                    @ 4-byte Reload
	ldr	r3, [sp, #12]                   @ 4-byte Reload
	ldr	r2, [sp, #20]                   @ 4-byte Reload
	ldr.w	r12, [sp]                       @ 4-byte Reload
	mla	r12, r12, r3, r1
	ldr.w	r2, [r2, r12, lsl #2]
	add	r0, r2
	adds	r2, r1, #1
	mov	r1, r2
	cmp	r2, r3
	str	r1, [sp, #4]                    @ 4-byte Spill
	str	r0, [sp, #8]                    @ 4-byte Spill
	blt	.LBB0_2
	b	.LBB0_3
.LBB0_3:                                @ %outer.latch
                                        @   in Loop: Header=BB0_1 Depth=1
	ldr	r3, [sp, #16]                   @ 4-byte Reload
	ldr	r1, [sp]                        @ 4-byte Reload
	ldr	r0, [sp, #8]                    @ 4-byte Reload
	adds	r2, r1, #1
	mov	r1, r2
	cmp	r2, r3
	str	r1, [sp, #24]                   @ 4-byte Spill
	str	r0, [sp, #28]                   @ 4-byte Spill
	blt	.LBB0_1
	b	.LBB0_4
.LBB0_4:                                @ %exit
	ldr	r0, [sp, #28]                   @ 4-byte Reload
	add	sp, #32
	bx	lr
.Lfunc_end0:
	.size	matrix_sum, .Lfunc_end0-matrix_sum
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 5	@ Tag_ABI_optimization_goals
