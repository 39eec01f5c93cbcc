"""asmsim benchmark: seeded corpora through the real CLI, in fresh processes.

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload wide-grid --seed 3 --seconds 20
    python3 bench/run.py --workload long-programs --trace 1
    python3 bench/run.py --workload wide-grid --trace 1 --shape 15x3000

Each invocation generates its workload's corpus from ``--seed`` under
``.bench_work/``, checks the outputs, then repeats the workload's CLI
commands for ``--seconds`` seconds, one child process at a time, and
prints one line per metric followed by a JSON summary as the last line.
Times are scaled to a reference machine speed measured in the same
invocation (see REFERENCE_TASK); the raw medians are printed too.
With ``--trace 1`` every other repetition runs ``bench/traced.py`` instead
of the CLI, and the per-layer metrics are reported. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN_MANIFEST = TESTS / "fixtures" / "corpus3x3" / "manifest.json"
GOLDEN_REPORT = TESTS / "golden" / "study_3x3.md"
X86_CONFIG = BENCH / "x86_config.json"
WORK = ROOT / ".bench_work"

# (name, unit); the order is the print order
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("instructions_per_s", "1/s"),
)
PER_LAYER = (
    ("compile.cold_s", "s"), ("compile.warm_s", "s"),
    ("compile.invocations", "count"), ("compile.cache_hits", "count"),
    ("compile.failures", "count"),
    ("manifest.s", "s"),
    ("read.s", "s"), ("read.bytes", "bytes"),
    ("parse.s", "s"), ("parse.lines", "count"), ("parse.instructions", "count"),
    ("parse.skipped_lines", "count"),
    ("segment.s", "s"), ("segment.blocks", "count"),
    ("featurize.s", "s"), ("featurize.ngrams2", "count"), ("featurize.ngrams3", "count"),
    ("universe.s", "s"), ("universe.size2", "count"), ("universe.size3", "count"),
    ("score.jaccard.s", "s"), ("score.cosine.s", "s"), ("score.euclidean2.s", "s"),
    ("score.euclidean3.s", "s"), ("score.pairs", "count"),
    ("aggregate.s", "s"),
    ("render.s", "s"), ("render.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)
# span name -> per-layer metric holding the sum of its durations
SPAN_METRICS = {
    "manifest": "manifest.s", "read": "read.s", "parse": "parse.s",
    "segment": "segment.s", "featurize": "featurize.s", "universe": "universe.s",
    "score.jaccard": "score.jaccard.s", "score.cosine": "score.cosine.s",
    "score.euclidean2": "score.euclidean2.s", "score.euclidean3": "score.euclidean3.s",
    "aggregate": "aggregate.s", "render": "render.s",
}

MIN_REPS = 3
CHILD_TIMEOUT = 120.0
PROBES_PER_REP = 2  # set-up and reference samples after each repetition
MIN_PROBES = 12
ORACLE_SAMPLE = 40  # pair values per metric checked against tests/oracles.py

# Everything a fresh `asmsim` process does before it reads the first
# program file; argv is the workload's first CLI command.
SETUP_PROBE = """\
import sys
from asmsim import cli
from asmsim.corpus import build_grid, load_datasets
args = cli.build_parser().parse_args(sys.argv[1:])
cli.resolve_config(args)
for _, entries in load_datasets(args.manifest).datasets:
    build_grid(entries)
"""

# The host is shared: the hypervisor sometimes does not run this machine's
# CPUs, and neighbours slow them down, so the same run takes longer at one
# time than another, by up to half over minutes. Between the repetitions
# the benchmark therefore also runs REFERENCE_TASK in fresh interpreters:
# a fixed script that never imports asmsim but does the same kinds of work
# (splitting lines, tuple sets, frozenset differences, JSON encoding).
# Reported wall and set-up times are scaled by REFERENCE_NOMINAL_S / its
# median wall time, CPU times by REFERENCE_NOMINAL_S / its median CPU time:
# they are seconds on a machine where that script takes REFERENCE_NOMINAL_S.
REFERENCE_TASK = """\
import json
words = ["m%d" % ((i * 7919) % 61) for i in range(12000)]
text = "\\n".join("\\t%s r%d, r%d" % (w, i % 8, i % 5) for i, w in enumerate(words))
rows = [line.strip().split(None, 1) for line in text.splitlines()]
grams = [frozenset(zip(words[i:i + 60], words[i + 1:i + 61])) for i in range(0, 12000, 60)]
diff = sum(len(a ^ b) for a in grams[:40] for b in grams[:40])
pairs = [{"a": "p%d" % i, "b": "q%d" % (i * 7 % 997), "value": i / 7.0} for i in range(15000)]
out = json.dumps({"pairs": pairs, "diff": diff}, indent=2)
"""
REFERENCE_NOMINAL_S = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "study" (an assembly grid) or "compile" (a C grid)
    grid: int
    instructions: int  # per program; 0 for C sources
    flags: tuple[str, ...]  # study flags
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("long-programs", "study", 5, 8000, ("--jobs", "2"),
             "few long programs: parse, segment and featurize dominate; "
             "runs the --jobs 2 thread pool"),
    Workload("wide-grid", "study", 17, 300, ("--jobs", "1", "--format", "json"),
             "many short programs: pair scoring and the JSON report dominate; "
             "parsing is small"),
    Workload("compile-pipeline", "compile", 9, 0, ("--format", "csv"),
             "C grid compiled cold, then warm from the cache, then studied; "
             "the only workload that runs crosscompile"),
)}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, tools or inputs)."""


@dataclass
class Sample:
    """One child process: wall time, CPU of it and its children, peak RSS."""

    wall: float
    cpu: float
    rss_kb: int
    status: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # fixed string hashing: set iteration order, and so timing, repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], work: Path) -> Sample:
    """Run one child to completion; wait4 gives its own rusage, which
    includes the compiler processes it waited for. A child still running
    after CHILD_TIMEOUT seconds is killed and fails its check."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no child behind
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode,
                  out_path.read_text(encoding="utf-8", errors="replace"),
                  err_path.read_text(encoding="utf-8", errors="replace"))


def _import_checkout() -> None:
    """Let this process import the checkout's asmsim and tests/oracles.py."""
    for path in (str(SRC), str(TESTS)):
        if path not in sys.path:
            sys.path.insert(0, path)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "asmsim", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "traced.py"), str(spans), *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_environment(workload: Workload) -> None:
    for path in (SRC / "asmsim" / "cli.py", TESTS / "oracles.py", GOLDEN_MANIFEST,
                 GOLDEN_REPORT, X86_CONFIG):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a full checkout")
    if workload.kind == "compile" and shutil.which("gcc") is None:
        raise BenchError("compile-pipeline needs gcc on PATH")


class Run:
    """One workload at one seed: its corpus, its commands and its checks."""

    def __init__(self, workload: Workload, seed: int, grid: int, instructions: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = WORK / workload.name
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        name = f"{workload.name}-seed{seed}"
        if workload.kind == "study":
            info = gen.write_asm_grid(self.work / "corpus", seed=seed, grid=grid,
                                      instructions=instructions, name=name)
            self.instructions = info["instructions"]
        else:
            info = gen.write_c_grid(self.work / "corpus", seed=seed, grid=grid, name=name)
            self.instructions = 0  # counted from the compiler's output
        self.programs = info["programs"]
        self.manifest = info["manifest"]
        self.report = self.work / ("report" + {"json": ".json", "csv": ".csv"}.get(
            _flag(workload.flags, "--format"), ".md"))
        self.out_dir = self.work / "build"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.report_sha: str | None = None

    # -- commands -------------------------------------------------------------

    def steps(self, jobs: str | None = None) -> list[list[str]]:
        """CLI argument lists of one repetition of the workload; ``jobs``
        overrides the study's ``--jobs`` value."""
        flags = list(self.workload.flags)
        if jobs is not None:
            flags[flags.index("--jobs") + 1] = jobs
        if self.workload.kind == "study":
            return [["study", str(self.manifest), *flags, "--out", str(self.report)]]
        compile_args = ["compile", str(self.manifest), "--config", str(X86_CONFIG),
                        "--jobs", "2", "--out", str(self.out_dir)]
        return [compile_args, compile_args,
                ["study", str(self.out_dir / "manifest.json"), "--config", str(X86_CONFIG),
                 *flags, "--out", str(self.report)]]

    def repetition(self, traced: bool, jobs: str | None = None,
                   ) -> tuple[list[Sample], list[dict]]:
        """Run every step once; returns the samples and, when traced, the spans.
        Every repetition's report must equal the first one's."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)  # the cold pass starts from nothing
        self.report.unlink(missing_ok=True)
        samples, traces = [], []
        for index, args in enumerate(self.steps(jobs)):
            if traced:
                spans = self.work / f"spans{index}.json"
                spans.unlink(missing_ok=True)
                samples.append(run_child(traced_argv(spans, args), self.work))
                traces.append(json.loads(spans.read_text(encoding="utf-8"))
                              if spans.is_file() else {"spans": [], "counts": {}})
            else:
                samples.append(run_child(cli_argv(args), self.work))
        label = ("traced" if traced else "cli") + (f" --jobs {jobs}" if jobs else "")
        self.attempt(lambda: self.check_repetition(samples, label))
        return samples, traces

    # -- checks ---------------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def attempt(self, check) -> None:
        """Run one checked operation; it fails if it records any failure or
        raises (a malformed report, say), which must not stop the run."""
        before = len(self.failures)
        self.attempted += 1
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed check
            self.fail(f"{check.__name__}: {type(exc).__name__}: {exc}")
        if len(self.failures) > before:
            self.failed += 1

    def check_exit(self, sample: Sample, label: str) -> None:
        if sample.status != 0:
            self.fail(f"{label}: exit {sample.status}: {sample.stderr.strip()[-300:]}")

    def check_repetition(self, samples: list[Sample], label: str) -> None:
        for sample in samples:
            self.check_exit(sample, label)
        if self.workload.kind == "compile" and len(samples) == 3:
            n = self.programs
            expected = (f"compiled {n}, cached 0, failed 0",
                        f"compiled 0, cached {n}, failed 0")
            for sample, line in zip(samples, expected):
                first = sample.stdout.splitlines()[:1]
                if first != [line]:
                    self.fail(f"{label}: compile printed {first}, expected {line!r}")
        if not self.report.is_file():
            self.fail(f"{label}: no report written")
        else:
            digest = sha256(self.report)
            if self.report_sha is None:
                self.report_sha = digest
            elif digest != self.report_sha:
                self.fail(f"{label}: report sha256 {digest} differs from {self.report_sha}")

    def check_golden(self) -> None:
        """The frozen 3x3 study, once per invocation."""
        out = self.work / "golden.md"
        sample = run_child(cli_argv(["study", str(GOLDEN_MANIFEST), "--out", str(out)]),
                           self.work)
        if sample.status != 0 or not out.is_file() \
                or out.read_bytes() != GOLDEN_REPORT.read_bytes():
            self.fail("golden: study of tests/fixtures/corpus3x3 differs from "
                      "tests/golden/study_3x3.md")

    def check_oracle(self) -> None:
        """wide-grid: a seeded sample of JSON pair values against tests/oracles.py."""
        _import_checkout()
        import oracles
        from asmsim.asm_parser import parse_assembly, segment_basic_blocks
        from asmsim.corpus import load_datasets
        from asmsim.metrics import MetricKind

        features = {}
        for entry in load_datasets(self.manifest).datasets[0][1]:
            program = parse_assembly(entry.path.read_text(encoding="utf-8"))
            features[entry.id] = oracles.oracle_features(
                program, segment_basic_blocks(program))
        universes = {n: set().union(*(f[n] for f in features.values())) for n in (2, 3)}
        report = json.loads(self.report.read_text(encoding="utf-8"))
        rng = random.Random(f"{self.seed}:oracle-sample")
        for kind in MetricKind:
            pairs = [pair
                     for dataset in report["datasets"]
                     for grouping in dataset["metrics"][kind.value]["groupings"].values()
                     for subset in grouping["subsets"]
                     for pair in subset["pairs"]]
            for pair in rng.sample(pairs, min(ORACLE_SAMPLE, len(pairs))):
                expected = oracles.oracle_pair_value(kind, features[pair["a"]],
                                                     features[pair["b"]], universes)
                if not math.isclose(pair["value"], expected, rel_tol=1e-9, abs_tol=1e-12):
                    self.fail(f"oracle: {kind.value}({pair['a']}, {pair['b']}) = "
                              f"{pair['value']!r}, naive oracle gives {expected!r}")
                    return

    def count_compiled_instructions(self) -> None:
        """compile-pipeline: the instructions the study parses, from the
        compiler's output."""
        _import_checkout()
        from asmsim.asm_parser import parse_assembly
        from asmsim.config import load_tool_config
        from asmsim.corpus import load_datasets

        parser = load_tool_config(X86_CONFIG, env={}).parser
        self.instructions = sum(
            len(parse_assembly(e.path.read_text(encoding="utf-8"), parser).instructions)
            for e in load_datasets(self.out_dir / "manifest.json").datasets[0][1])

    def reference_time(self) -> tuple[float, float]:
        """Wall and CPU time of a fresh interpreter running REFERENCE_TASK."""
        sample = run_child([sys.executable, "-I", "-S", "-c", REFERENCE_TASK], self.work)
        self.attempt(lambda: self.check_exit(sample, "reference"))
        return sample.wall, sample.cpu

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter doing the CLI's set-up for the
        workload's first command, then exiting."""
        sample = run_child([sys.executable, "-c", SETUP_PROBE, *self.steps()[0]], self.work)
        self.attempt(lambda: self.check_exit(sample, "setup"))
        return sample.wall


def _flag(flags: tuple[str, ...], name: str) -> str | None:
    return flags[flags.index(name) + 1] if name in flags else None


def _rep_totals(samples: list[Sample]) -> tuple[float, float, float]:
    """Wall time, CPU time and peak RSS (MB) of a repetition."""
    return (sum(s.wall for s in samples), sum(s.cpu for s in samples),
            max(s.rss_kb for s in samples) / 1024)


def _layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer sums over one traced repetition (one trace per step)."""
    values: Counter[str] = Counter()
    for index, trace in enumerate(traces):
        for span in trace["spans"]:
            duration = span["end"] - span["start"]
            if span["name"] in SPAN_METRICS:
                values[SPAN_METRICS[span["name"]]] += duration
            elif span["name"] == "compile":
                values["compile.cold_s" if index == 0 else "compile.warm_s"] += duration
        values.update(trace["counts"])
    return values


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            shape: tuple[int, int] | None,
            ) -> tuple[Run, dict[str, float], dict[str, int], dict[str, float]]:
    """Run one workload; returns the run, the reported metrics, their sample
    counts and, without tracing, the unscaled medians behind the times."""
    grid, instructions = shape or (workload.grid, workload.instructions)
    run = Run(workload, seed, grid, instructions)
    # the golden run also fills the bytecode cache; the corpus was just
    # written, so it is in the page cache
    run.attempt(run.check_golden)

    plain: list[tuple[float, float, float]] = []
    setups: list[float] = []
    references: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    started = time.perf_counter()
    while len(plain) < (1 if trace else MIN_REPS) \
            or time.perf_counter() - started < seconds:
        samples, _ = run.repetition(traced=False)
        plain.append(_rep_totals(samples))
        if trace:
            samples, traces = run.repetition(traced=True)
            traced_walls.append(_rep_totals(samples)[0])
            layers.append(_layer_values(traces))
        else:
            # set-up and reference samples spread over the run
            for _ in range(PROBES_PER_REP):
                setups.append(run.setup_time())
                references.append(run.reference_time())

    # checks on the report every repetition wrote, outside the timed loop
    if workload.name == "long-programs":
        run.repetition(traced=False, jobs="1")  # must equal the --jobs 2 reports
    if workload.name == "wide-grid":
        run.attempt(run.check_oracle)

    wall = statistics.median(p[0] for p in plain)
    if trace:
        metrics = {}
        for name, _ in PER_LAYER:
            if name == "trace.overhead_s":
                metrics[name] = statistics.median(traced_walls) - wall
            else:
                metrics[name] = statistics.median(layer.get(name, 0) for layer in layers)
        return run, metrics, {name: len(layers) for name in metrics}, {}
    while len(setups) < MIN_PROBES:
        setups.append(run.setup_time())
        references.append(run.reference_time())
    if workload.kind == "compile":
        run.attempt(run.count_compiled_instructions)
    raw = {
        "wall_s": wall,
        "cpu_s": statistics.median(p[1] for p in plain),
        "setup_s": statistics.median(setups),
        "reference_wall_s": statistics.median(r[0] for r in references),
        "reference_cpu_s": statistics.median(r[1] for r in references),
    }
    # wall times scale by the reference's wall time, CPU by its CPU time
    wall_scale = REFERENCE_NOMINAL_S / raw["reference_wall_s"]
    metrics = {
        "wall_s": wall * wall_scale,
        "cpu_s": raw["cpu_s"] * REFERENCE_NOMINAL_S / raw["reference_cpu_s"],
        "setup_s": raw["setup_s"] * wall_scale,
        "peak_rss_mb": statistics.median(p[2] for p in plain),
        "instructions_per_s": run.instructions / (wall * wall_scale),
    }
    counts = {name: len(plain) for name in metrics}
    counts["setup_s"] = len(setups)
    return run, metrics, counts, raw


def metric_lines(workload: str, metrics: dict[str, float], units: dict[str, str],
                 samples: dict[str, int]) -> list[str]:
    """One line per metric: workload, name, median, unit, sample count."""
    return [f"{workload} {name} {metrics[name]:.6g} {units[name]} n={samples[name]}"
            for name in units]


def result_json(run: Run, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def parse_shape(text: str) -> tuple[int, int]:
    try:
        grid, instructions = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected GRIDxINSTRUCTIONS, got {text!r}") from None
    if grid < 2 or instructions < 1:
        raise argparse.ArgumentTypeError("grid must be >= 2 and instructions >= 1")
    return grid, instructions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, without the JSON line)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from the traced driver")
    parser.add_argument("--shape", type=parse_shape, metavar="GRIDxINSTRUCTIONS",
                        help="override a study workload's grid size and "
                             "instructions per program (not a gated workload)")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = dict(PER_LAYER if args.trace else END_TO_END)

    correct = True
    for name in names:
        workload = WORKLOADS[name]
        if args.shape and workload.kind != "study":
            parser.error("--shape applies to the study workloads only")
        try:
            check_environment(workload)
            run, metrics, samples, raw = measure(workload, args.seed, args.seconds,
                                                 bool(args.trace), args.shape)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in metric_lines(name, metrics, units, samples):
            print(line)
        for key, value in raw.items():
            print(f"{name} raw.{key} {value:.6g} s")
        ratio = run.failed / run.attempted
        print(f"{name} failure_ratio {ratio:.6g} ratio n={run.attempted}")
        print(f"{name} report_sha256 {run.report_sha} seed={args.seed}"
              + (f" shape={args.shape[0]}x{args.shape[1]}" if args.shape else ""))
        for failure in run.failures:
            print(f"{name} FAILED {failure}", file=sys.stderr)
        correct = correct and not run.failures
        if args.workload:
            print(result_json(run, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
