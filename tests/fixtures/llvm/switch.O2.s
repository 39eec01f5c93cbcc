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
	.file	"switch.ll"
	.globl	dispatch                        @ -- Begin function dispatch
	.p2align	2
	.type	dispatch,%function
	.code	16                              @ @dispatch
	.thumb_func
dispatch:
	.fnstart
@ %bb.0:                                @ %entry
	cmp	r0, #7
	bhi	.LBB0_4
@ %bb.1:                                @ %entry
.LCPI0_0:
	tbb	[pc, r0]
@ %bb.2:
.LJTI0_0:
	.byte	(.LBB0_11-(.LCPI0_0+4))/2
	.byte	(.LBB0_3-(.LCPI0_0+4))/2
	.byte	(.LBB0_5-(.LCPI0_0+4))/2
	.byte	(.LBB0_6-(.LCPI0_0+4))/2
	.byte	(.LBB0_7-(.LCPI0_0+4))/2
	.byte	(.LBB0_8-(.LCPI0_0+4))/2
	.byte	(.LBB0_9-(.LCPI0_0+4))/2
	.byte	(.LBB0_10-(.LCPI0_0+4))/2
	.p2align	1
.LBB0_3:                                @ %case1
	adds	r1, #17
	b	.LBB0_11
.LBB0_4:                                @ %default
	movs	r1, #0
	b	.LBB0_11
.LBB0_5:                                @ %case2
	add.w	r1, r1, r1, lsl #1
	b	.LBB0_11
.LBB0_6:                                @ %case3
	subs	r1, #9
	b	.LBB0_11
.LBB0_7:                                @ %case4
	lsls	r1, r1, #5
	b	.LBB0_11
.LBB0_8:                                @ %case5
	eor	r1, r1, #255
	b	.LBB0_11
.LBB0_9:                                @ %case6
	bfc	r1, #12, #20
	b	.LBB0_11
.LBB0_10:                               @ %case7
	orr	r1, r1, #64
.LBB0_11:                               @ %done
	movw	r0, :lower16:out
	movt	r0, :upper16:out
	str	r1, [r0]
	bx	lr
.Lfunc_end0:
	.size	dispatch, .Lfunc_end0-dispatch
	.fnend
                                        @ -- End function
	.type	out,%object                     @ @out
	.bss
	.globl	out
	.p2align	2
out:
	.long	0                               @ 0x0
	.size	out, 4

	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 1	@ Tag_ABI_optimization_goals
