@ ROADMAP item 5's reproducer: numeric local labels that are defined twice,
@ instructions that write pc, an it block and a tbb jump
1:	adds r0, r0, #1
	cmp r0, #3
	bne 1b
	movs r1, #0
1:	subs r1, r1, #1
	bne 1b
	mov pc, lr
	ldr r2, [r3]
	ldr pc, [sp], #4
	add r0, r0, r1
	it eq
	moveq r0, #1
	tbb [pc, r0]
	add r0, r0, r1
	pop {r4, pc}
	nop
