"""Seeded, stdlib-only corpus generator for the benchmark.

Two kinds of programmer x application grids:

- ARM Thumb assembly in the GNU ``as`` syntax that cross-compilers and
  hand-written sources really contain: directives, ``@`` and ``//``
  comments, ``.L`` labels, numeric local labels that are redefined
  (``1:`` ... ``bne 1b``), ``pop {..., pc}``, ``bx lr``, ``mov pc, lr``,
  ``ldr pc, [sp], #4``, width qualifiers, upper-case mnemonics, and a small
  share of preprocessor leftovers (``#APP``, ``# 12 "file.c"``) that
  lenient parsing skips.
- C sources for the ``compile`` step.

Both the application and the programmer leave a signal: each application
has its own instruction motifs (or C kernels), and each programmer has a
prologue/epilogue habit, preferred mnemonic variants, idioms and label
style (or C coding habits). Every file is a pure function of
``(seed, grid size, application, programmer)``, so the same seed gives
byte-identical files. ``bench/run.py`` writes each workload's corpus to
``.bench_work/<workload>/corpus``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# --- ARM Thumb assembly --------------------------------------------------------

_LOW = [f"r{i}" for i in range(8)]
_ANY = _LOW + ["r8", "r9", "r10", "r11", "r12", "ip"]

# mnemonic -> operand shape; the shape picks a plausible operand pattern
_SHAPES = {
    "movs": "ri", "mov": "rr", "mvns": "rr", "adds": "rri", "add": "rrr",
    "subs": "rri", "sub": "rrr", "rsbs": "rr0", "negs": "rr", "muls": "rrr",
    "mul": "rrr", "mla": "rrrr", "udiv": "rrr", "sdiv": "rrr", "adcs": "rrr",
    "sbcs": "rrr", "ands": "rrr", "and": "rri", "orrs": "rrr", "orr": "rri",
    "eors": "rrr", "eor": "rri", "bics": "rrr", "bic": "rri", "lsls": "rri",
    "lsl": "rri", "lsrs": "rri", "lsr": "rri", "asrs": "rri", "rors": "rrr",
    "uxtb": "rr", "uxth": "rr", "sxtb": "rr", "sxth": "rr", "rev": "rr",
    "clz": "rr", "ubfx": "rrii", "bfi": "rrii", "cmp": "ri", "cmn": "rr",
    "tst": "rr", "ldr": "m", "ldrb": "m", "ldrh": "m", "ldrsb": "m",
    "ldrsh": "m", "str": "m", "strb": "m", "strh": "m", "ldrd": "md",
    "strd": "md", "ldmia": "lm", "stmia": "lm", "nop": "",
}
_MNEMONICS = sorted(_SHAPES)

# Flag-setting and plain forms a programmer may prefer one of.
_VARIANTS = {
    "adds": "add", "subs": "sub", "ands": "and", "orrs": "orr", "eors": "eor",
    "bics": "bic", "lsls": "lsl", "lsrs": "lsr", "muls": "mul", "movs": "mov",
}

_COND_BRANCHES = ("beq", "bne", "blt", "bgt", "ble", "bge", "bhi", "bls", "bcs", "bcc")

# Share of straight-line runs drawn fresh from the application's and
# programmer's mnemonic mix rather than repeated from a fixed motif; it
# sets how many distinct 2- and 3-grams a program has.
FRESH_SHARE = 0.5

# Lines real preprocessed or inline-asm sources carry that are neither
# instructions, labels nor directives; lenient mode skips them. About one
# line in 250 is followed by one.
SKIPPED_SHARE = 0.004
_SKIPPED = ("#APP", "#NO_APP", '# {n} "{app}.c"', '# {n} "{app}.c" 1')


def _operands(rng: random.Random, shape: str) -> str:
    if shape == "ri":
        return f"{rng.choice(_LOW)}, #{rng.randint(0, 255)}"
    if shape == "rr":
        return f"{rng.choice(_LOW)}, {rng.choice(_LOW)}"
    if shape == "rr0":
        return f"{rng.choice(_LOW)}, {rng.choice(_LOW)}, #0"
    if shape == "rri":
        return f"{rng.choice(_LOW)}, {rng.choice(_LOW)}, #{rng.randint(0, 31)}"
    if shape == "rrr":
        return ", ".join(rng.choice(_LOW) for _ in range(3))
    if shape == "rrrr":
        return ", ".join(rng.choice(_ANY) for _ in range(4))
    if shape == "rrii":
        return (f"{rng.choice(_LOW)}, {rng.choice(_LOW)}, "
                f"#{rng.randint(0, 15)}, #{rng.randint(1, 8)}")
    if shape == "m":
        base = rng.choice(("sp", "r7", rng.choice(_LOW)))
        return f"{rng.choice(_LOW)}, [{base}, #{4 * rng.randint(0, 31)}]"
    if shape == "md":
        return f"r2, r3, [{rng.choice(('sp', 'r0', 'r1'))}, #{8 * rng.randint(0, 7)}]"
    if shape == "lm":
        first = rng.randint(2, 4)
        return f"{rng.choice(('r0', 'r1'))}!, {{r{first}-r{first + rng.randint(1, 3)}}}"
    return ""


def _motif(rng: random.Random, weights: list[float], length: int) -> list[str]:
    """A straight-line run of instruction templates (mnemonic + operands)."""
    out = []
    for mnemonic in rng.choices(_MNEMONICS, weights=weights, k=length):
        operands = _operands(rng, _SHAPES[mnemonic])
        out.append(f"{mnemonic} {operands}".rstrip())
    return out


# Styles draw their mnemonic weights as permutations of fixed multisets,
# so every seed gives corpora with the same statistics (the same number of
# distinct patterns, the same parse cost) and only the assignment changes.
# An application never uses the mnemonics its weight is zero for, which
# leaves its signal even in the instruction-existence metric.
_APP_ZERO = len(_MNEMONICS) // 3
_APP_LEVELS = tuple([0.0] * _APP_ZERO
                    + [((i % 10) + 1) ** 2 / 100 for i in range(len(_MNEMONICS) - _APP_ZERO)])
_PROGRAMMER_LEVELS = tuple(((i % 8) + 1) / 8 for i in range(len(_MNEMONICS)))
_APP_MOTIF_LENGTHS = (3, 4, 5, 6, 8, 9)
_IDIOM_LENGTHS = (2, 3, 4, 5)
LOOP_SHARE = 0.45
FRAME_HABIT = 0.75
IDIOM_SHARE = 0.35


def _levels(rng: random.Random, levels: tuple[float, ...]) -> tuple[float, ...]:
    shuffled = list(levels)
    rng.shuffle(shuffled)
    return tuple(shuffled)


def _rank(seed: int, what: str, index: int, grid: int) -> int:
    """Position of ``index`` in a seeded permutation of ``range(grid)``."""
    return random.Random(f"{seed}:{what}:{grid}").sample(range(grid), grid)[index]


@dataclass(frozen=True)
class AppStyle:
    """What an application leaves in every programmer's code."""

    name: str
    weights: tuple[float, ...]
    motifs: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ProgrammerStyle:
    """Habits one programmer brings to every application."""

    name: str
    weights: tuple[float, ...]
    comment: str
    numeric_label_share: float
    frame: tuple[tuple[str, ...], tuple[str, ...]]  # usual prologue, epilogue
    variants: frozenset[str]
    idioms: tuple[tuple[str, ...], ...]
    upper: bool
    wide: float
    comment_share: float


def app_style(seed: int, index: int) -> AppStyle:
    rng = random.Random(f"{seed}:asm-app:{index}")
    weights = _levels(rng, _APP_LEVELS)
    motifs = tuple(tuple(_motif(rng, weights, n)) for n in _APP_MOTIF_LENGTHS)
    return AppStyle(f"app{index + 1:02d}", weights, motifs)


_FRAMES = (
    (("push {r4, r5, r6, r7, lr}", "add r7, sp, #12"), ("pop {r4, r5, r6, r7, pc}",)),
    (("push {r7, lr}", "sub sp, sp, #16", "add r7, sp, #0"),
     ("adds r7, r7, #16", "mov sp, r7", "pop {r7, pc}")),
    (("push {lr}",), ("pop {lr}", "bx lr")),
    (("push {r4, lr}",), ("pop {r4, pc}",)),
    (("str lr, [sp, #-4]!",), ("ldr pc, [sp], #4",)),
    (("mov ip, sp", "push {r4, r5}"), ("pop {r4, r5}", "mov pc, lr")),
    ((), ("bx lr",)),
)


def programmer_style(seed: int, index: int, grid: int) -> ProgrammerStyle:
    """Programmer ``index`` of ``grid``. Each trait is set by the programmer's
    rank in a seeded permutation, so every seed spreads the traits over the
    grid's programmers the same way."""
    rank = _rank(seed, "asm-programmers", index, grid)
    share = (rank + 0.5) / grid
    rng = random.Random(f"{seed}:asm-programmer:{index}")
    weights = _levels(rng, _PROGRAMMER_LEVELS)
    idioms = tuple(tuple(_motif(rng, weights, n)) for n in _IDIOM_LENGTHS)
    variants = frozenset(k for k in _VARIANTS if rng.random() < 0.5)
    return ProgrammerStyle(
        name=f"prog{index + 1:02d}",
        weights=weights,
        comment=("@", "//")[rank % 2],
        numeric_label_share=share,
        frame=_FRAMES[rank % len(_FRAMES)],
        variants=variants,
        idioms=idioms,
        upper=rank % 5 == 4,
        wide=(0.0, 0.05, 0.2)[rank % 3],
        comment_share=0.02 + 0.08 * share,
    )


class _AsmWriter:
    """Accumulates one program's lines and counts its instructions."""

    def __init__(self, rng: random.Random, app: AppStyle, prog: ProgrammerStyle) -> None:
        self.rng = rng
        self.app = app
        self.prog = prog
        self.lines: list[str] = []
        self.instructions = 0
        self.labels = 0
        self.numeric_labels = False
        # fresh runs use the application's mnemonics in the programmer's mix
        self.mix = [a * (0.5 + b) for a, b in zip(app.weights, prog.weights)]

    def raw(self, line: str) -> None:
        self.lines.append(line)
        rng = self.rng
        if rng.random() < SKIPPED_SHARE:
            pattern = rng.choice(_SKIPPED)
            self.lines.append(pattern.format(n=rng.randint(1, 400), app=self.app.name))

    def ins(self, text: str) -> None:
        rng, prog = self.rng, self.prog
        mnemonic, _, operands = text.partition(" ")
        if mnemonic in prog.variants:
            mnemonic = _VARIANTS[mnemonic]
        if prog.wide and rng.random() < prog.wide and mnemonic in ("adds", "ldr", "str", "movs"):
            mnemonic += rng.choice((".n", ".w"))
        if prog.upper:
            mnemonic = mnemonic.upper()
        line = f"\t{mnemonic} {operands}".rstrip()
        if rng.random() < prog.comment_share:
            line += f"\t{prog.comment} {rng.choice(('tmp', 'loop', 'next', 'acc', 'idx'))}"
        self.raw(line)
        self.instructions += 1

    def comment_line(self, text: str) -> None:
        self.raw(f"\t{self.prog.comment} {text}")

    def new_label(self) -> str:
        self.labels += 1
        return f".L{self.labels}"

    def loop(self, body: list[str]) -> None:
        """A counted loop around body, closed by a backward branch."""
        rng = self.rng
        if self.numeric_labels:
            self.raw("1:")
            target = "1b"
        else:
            target = self.new_label()
            self.raw(f"{target}:")
        for text in body:
            self.ins(text)
        if rng.random() < 0.5:
            self.ins(f"subs r{rng.randint(0, 3)}, #1")
            self.ins(f"bne {target}")
        else:
            self.ins(f"cmp r{rng.randint(0, 3)}, r{rng.randint(4, 6)}")
            self.ins(f"{rng.choice(_COND_BRANCHES)} {target}")

    def skip_over(self, body: list[str]) -> None:
        """A forward conditional branch around body."""
        rng = self.rng
        if self.numeric_labels:
            target, define = "2f", "2:"
        else:
            target = self.new_label()
            define = f"{target}:"
        if rng.random() < 0.3:
            self.ins(f"cbz r{rng.randint(0, 3)}, {target}")
        else:
            self.ins(f"cmp r{rng.randint(0, 3)}, #{rng.randint(0, 9)}")
            self.ins(f"{rng.choice(_COND_BRANCHES)} {target}")
        for text in body:
            self.ins(text)
        self.raw(define)

    def function(self, name: str, budget: int) -> None:
        rng, app, prog = self.rng, self.app, self.prog
        self.raw("\t.align\t2")
        self.raw(f"\t.global\t{name}")
        self.raw("\t.thumb_func")
        self.raw(f"\t.type\t{name}, %function")
        self.raw(f"{name}:")
        self.numeric_labels = rng.random() < prog.numeric_label_share
        if rng.random() < 0.3:
            self.comment_line(f"{name}: {rng.randint(1, 4)} args")
        # mostly the programmer's usual frame, sometimes any other one
        prologue, epilogue = prog.frame if rng.random() < FRAME_HABIT else rng.choice(_FRAMES)
        for text in prologue:
            self.ins(text)
        start = self.instructions
        while self.instructions - start < budget:
            roll = rng.random()
            if roll < FRESH_SHARE:
                body = _motif(rng, self.mix, rng.randint(3, 9))
            elif roll < FRESH_SHARE + (1 - FRESH_SHARE) * IDIOM_SHARE:
                body = list(rng.choice(prog.idioms))
            else:
                body = list(rng.choice(app.motifs))
            shape = rng.random()
            if shape < LOOP_SHARE:
                self.loop(body)
            elif shape < LOOP_SHARE + 0.2:
                self.skip_over(body)
            else:
                for text in body:
                    self.ins(text)
            if rng.random() < 0.08:
                self.ins(f"bl {app.name}_{rng.randint(0, 9)}")
            if rng.random() < 0.04:
                # early return in the middle of the function
                for text in epilogue:
                    self.ins(text)
        for text in epilogue:
            self.ins(text)
        if rng.random() < 0.3:
            self.raw("\t.align\t2")
            self.raw(f"{self.new_label()}:")
            self.raw(f"\t.word\t{rng.randint(0, 2**32 - 1):#010x}")
        self.raw(f"\t.size\t{name}, .-{name}")


def asm_program(seed: int, app: AppStyle, prog: ProgrammerStyle,
                instructions: int) -> tuple[str, int]:
    """One program of at least ``instructions`` instructions, and its count."""
    rng = random.Random(f"{seed}:asm-cell:{app.name}:{prog.name}")
    writer = _AsmWriter(rng, app, prog)
    writer.raw("\t.syntax unified")
    writer.raw("\t.cpu cortex-m3")
    writer.raw("\t.thumb")
    writer.raw(f"\t.file\t\"{app.name}.c\"")
    writer.raw("\t.text")
    index = 0
    while writer.instructions < instructions:
        budget = min(rng.randint(30, 120), max(instructions - writer.instructions, 8))
        writer.function(f"{app.name}_{index}", budget)
        index += 1
    return "\n".join(writer.lines) + "\n", writer.instructions


# --- C sources ---------------------------------------------------------------

# Each kernel is a function body template; {T} is the element type, {LOOP}
# the programmer's loop header for ``i`` over ``0..n``, {ACC} a compound
# update style. Every template is valid C for every substitution.
_C_KERNELS = (
    ("sum", "{T} acc = 0;\n  {LOOP} {{\n    acc {ACC} a[i] * {K};\n  }}\n  return (int)acc;"),
    ("xor", "{T} acc = {K};\n  {LOOP} {{\n    acc ^= (a[i] << (i & 7)) + {K};\n  }}\n  return (int)acc;"),
    ("max", "{T} best = a[0];\n  {LOOP} {{\n    if (a[i] > best) best = a[i];\n  }}\n  return (int)best;"),
    ("count", "int c = 0;\n  {LOOP} {{\n    if ((a[i] & {K}) != 0) c++;\n  }}\n  return c;"),
    ("scale", "{LOOP} {{\n    a[i] = ({T})(a[i] * {K} + 1);\n  }}\n  return (int)a[0];"),
    ("swap", "{LOOP} {{\n    if (i + 1 < n && a[i] > a[i + 1]) {{\n      {T} t = a[i];\n"
             "      a[i] = a[i + 1];\n      a[i + 1] = t;\n    }}\n  }}\n  return (int)a[n - 1];"),
    ("find", "{LOOP} {{\n    if (a[i] == ({T}){K}) return i;\n  }}\n  return -1;"),
    ("poly", "{T} x = 1;\n  {LOOP} {{\n    x = x * {K} + a[i];\n    x = x % 1000003;\n  }}\n  return (int)x;"),
    ("bits", "int c = 0;\n  {LOOP} {{\n    {T} v = a[i];\n    while (v) {{\n      c += (int)(v & 1);\n"
             "      v = ({T})(v >> 1);\n    }}\n  }}\n  return c;"),
    ("fill", "{LOOP} {{\n    a[i] = ({T})(i * {K});\n  }}\n  return n;"),
    ("diff", "{T} prev = 0;\n  int d = 0;\n  {LOOP} {{\n    d += (int)(a[i] - prev);\n    prev = a[i];\n  }}\n  return d;"),
    ("clamp", "{LOOP} {{\n    a[i] = a[i] < 0 ? 0 : (a[i] > {K} ? {K} : a[i]);\n  }}\n  return (int)a[n / 2];"),
)

_C_TYPES = ("int", "unsigned", "long", "short", "unsigned char")
_C_LOOPS = (
    "for (int i = 0; i < n; i++)",
    "for (int i = 0; i < n; ++i)",
    "for (int i = 0; i != n; i += 1)",
)


def c_program(seed: int, app_index: int, prog_index: int, grid: int) -> str:
    """A C source: the application picks the kernels, the programmer the style.

    As for assembly, kernels and habits follow ranks in seeded
    permutations, so every seed uses each kernel and each habit equally
    often across the grid.
    """
    app_rank = _rank(seed, "c-apps", app_index, grid)
    order = random.Random(f"{seed}:c-kernels").sample(_C_KERNELS, len(_C_KERNELS))
    kernels = [order[(4 * app_rank + j) % len(order)] for j in range(4)]
    app_rng = random.Random(f"{seed}:c-app:{app_index}")
    constants = [app_rng.randint(2, 97) for _ in kernels]
    rank = _rank(seed, "c-programmers", prog_index, grid)
    elem = _C_TYPES[rank % len(_C_TYPES)]
    loop = _C_LOOPS[rank % len(_C_LOOPS)]
    acc = ("+=", "-=", "^=")[rank % 3]
    use_helpers = rank % 2 == 0
    use_static = rank % 4 < 2
    cell = random.Random(f"{seed}:c-cell:{app_index}:{prog_index}")

    out = [f"/* application {app_index + 1}, programmer {prog_index + 1} */", ""]
    if use_helpers:
        out += [f"static {elem} pick({elem} x, {elem} y) {{ return x > y ? x : y; }}", ""]
    names = []
    for k, ((kernel, body), constant) in enumerate(zip(kernels, constants)):
        name = f"{kernel}_{k}"
        names.append(name)
        text = body.format(T=elem, LOOP=loop, ACC=acc, K=constant + cell.randint(0, 3))
        if loop.startswith("for (int i = 0; i != n"):
            out.append(f"/* {kernel}: expects n >= 1 */")
        qualifier = "static " if use_static else ""
        out.append(f"{qualifier}int {name}({elem} *a, int n) {{\n  {text}\n}}")
        out.append("")
    size = 16 + cell.randint(0, 16)
    out.append(f"{elem} data[{size}];")
    out.append("")
    out.append("int run(void) {")
    out.append("  int total = 0;")
    for name in names:
        arg = "pick(data[0], data[1])" if use_helpers else "data[0]"
        out.append(f"  data[0] = {arg};")
        out.append(f"  total += {name}(data, {size});")
    out.append("  return total;")
    out.append("}")
    return "\n".join(out) + "\n"


# --- grids --------------------------------------------------------------------

def _manifest(name: str, cells: list[tuple[str, str, str, str]]) -> dict:
    return {"name": name, "programs": [
        {"id": pid, "path": path, "programmer": programmer, "application": application}
        for pid, path, programmer, application in cells]}


def write_asm_grid(out_dir: Path, *, seed: int, grid: int, instructions: int,
                   name: str = "bench") -> dict:
    """Write a grid x grid assembly corpus and its manifest.

    Returns the manifest path, the number of programs and their
    instruction total.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    apps = [app_style(seed, a) for a in range(grid)]
    progs = [programmer_style(seed, p, grid) for p in range(grid)]
    cells = []
    total = 0
    for app in apps:
        for prog in progs:
            text, count = asm_program(seed, app, prog, instructions)
            path = f"{prog.name}_{app.name}.s"
            (out_dir / path).write_text(text, encoding="utf-8")
            total += count
            cells.append((f"{prog.name}-{app.name}", path, prog.name, app.name))
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(_manifest(name, cells), indent=1) + "\n", encoding="utf-8")
    return {"manifest": manifest, "instructions": total, "programs": len(cells)}


def write_c_grid(out_dir: Path, *, seed: int, grid: int, name: str = "bench") -> dict:
    """Write a grid x grid C-source corpus and its manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for a in range(grid):
        for p in range(grid):
            prog, app = f"prog{p + 1:02d}", f"app{a + 1:02d}"
            path = f"{prog}_{app}.c"
            (out_dir / path).write_text(c_program(seed, a, p, grid), encoding="utf-8")
            cells.append((f"{prog}-{app}", path, prog, app))
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(_manifest(name, cells), indent=1) + "\n", encoding="utf-8")
    return {"manifest": manifest, "programs": len(cells)}
