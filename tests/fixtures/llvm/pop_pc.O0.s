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
	.file	"pop_pc.ll"
	.globl	chain                           @ -- Begin function chain
	.p2align	1
	.type	chain,%function
	.code	16                              @ @chain
	.thumb_func
chain:
	.fnstart
@ %bb.0:                                @ %entry
	.save	{r7, lr}
	push	{r7, lr}
	.pad	#24
	sub	sp, #24
	str	r2, [sp, #12]                   @ 4-byte Spill
	str	r1, [sp, #4]                    @ 4-byte Spill
	str	r0, [sp, #8]                    @ 4-byte Spill
	bl	step
	mov	r1, r0
	ldr	r0, [sp, #4]                    @ 4-byte Reload
	str	r1, [sp, #20]                   @ 4-byte Spill
	bl	step
	mov	r1, r0
	ldr	r0, [sp, #12]                   @ 4-byte Reload
	str	r1, [sp, #16]                   @ 4-byte Spill
	bl	step
	ldr	r3, [sp, #4]                    @ 4-byte Reload
	ldr	r1, [sp, #8]                    @ 4-byte Reload
	ldr	r2, [sp, #12]                   @ 4-byte Reload
	ldr.w	lr, [sp, #16]                   @ 4-byte Reload
	mov	r12, r0
	ldr	r0, [sp, #20]                   @ 4-byte Reload
	add	r0, lr
	add	r0, r12
	mla	r0, r0, r1, r3
	subs	r0, r0, r2
	add	sp, #24
	pop	{r7, pc}
.Lfunc_end0:
	.size	chain, .Lfunc_end0-chain
	.fnend
                                        @ -- End function
	.section	".note.GNU-stack","",%progbits
	.eabi_attribute	30, 5	@ Tag_ABI_optimization_goals
