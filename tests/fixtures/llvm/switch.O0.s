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
	.pad	#8
	sub	sp, #8
	str	r1, [sp]                        @ 4-byte Spill
	mov	r1, r0
	str	r1, [sp, #4]                    @ 4-byte Spill
	cmp	r0, #7
	bhi	.LBB0_11
@ %bb.1:                                @ %entry
	ldr	r1, [sp, #4]                    @ 4-byte Reload
.LCPI0_0:
	tbb	[pc, r1]
@ %bb.2:
.LJTI0_0:
	.byte	(.LBB0_3-(.LCPI0_0+4))/2
	.byte	(.LBB0_4-(.LCPI0_0+4))/2
	.byte	(.LBB0_5-(.LCPI0_0+4))/2
	.byte	(.LBB0_6-(.LCPI0_0+4))/2
	.byte	(.LBB0_7-(.LCPI0_0+4))/2
	.byte	(.LBB0_8-(.LCPI0_0+4))/2
	.byte	(.LBB0_9-(.LCPI0_0+4))/2
	.byte	(.LBB0_10-(.LCPI0_0+4))/2
	.p2align	1
.LBB0_3:                                @ %case0
	ldr	r0, [sp]                        @ 4-byte Reload
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_4:                                @ %case1
	ldr	r0, [sp]                        @ 4-byte Reload
	adds	r0, #17
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_5:                                @ %case2
	ldr	r0, [sp]                        @ 4-byte Reload
	add.w	r0, r0, r0, lsl #1
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_6:                                @ %case3
	ldr	r0, [sp]                        @ 4-byte Reload
	subs	r0, #9
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_7:                                @ %case4
	ldr	r0, [sp]                        @ 4-byte Reload
	lsls	r0, r0, #5
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_8:                                @ %case5
	ldr	r0, [sp]                        @ 4-byte Reload
	eor	r0, r0, #255
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_9:                                @ %case6
	ldr	r0, [sp]                        @ 4-byte Reload
	bfc	r0, #12, #20
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_10:                               @ %case7
	ldr	r0, [sp]                        @ 4-byte Reload
	orr	r0, r0, #64
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	str	r0, [r1]
	b	.LBB0_12
.LBB0_11:                               @ %default
	movw	r1, :lower16:out
	movt	r1, :upper16:out
	movs	r0, #0
	str	r0, [r1]
	b	.LBB0_12
.LBB0_12:                               @ %done
	add	sp, #8
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
	.eabi_attribute	30, 5	@ Tag_ABI_optimization_goals
