"""Time-to-certificate benchmark for dgquiver.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 40 --trace 0

Imports dgquiver from the checkout's ``src/``, sets up the workload's
inputs, then certifies every case of the workload once per pass, for at
least two passes and about ``--seconds`` in all.  Each answer is checked
against a closed-form reference.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated before every pass and setup_s is the median of all
# set-ups in the run: spread over the run like the passes, the set-ups
# meet the same changes in the host's CPU speed as the passes do.
SETUP_REPEATS = 3
MODULES = ("core", "linalg", "differential", "presentations", "homology", "koszul", "cy", "serialize", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library() -> SimpleNamespace:
    """Import dgquiver afresh from the checkout's src/."""
    if not (SRC / "dgquiver" / "__init__.py").is_file():
        raise BenchError(f"no dgquiver sources under {SRC}")
    for name in [n for n in sys.modules if n == "dgquiver" or n.startswith("dgquiver.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("dgquiver")
    if Path(package.__file__).resolve().parent != SRC / "dgquiver":
        raise BenchError(f"imported dgquiver from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dgquiver.{m}") for m in MODULES})


def set_up(workload, work: Path, seed: int):
    """Import the library, build the inputs and write them; timed as a whole."""
    start = perf_counter()
    lib = load_library()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cases = workload(lib, work, seed)
    return perf_counter() - start, lib, cases


class Runner:
    """Runs passes over the cases and tallies attempts and failures."""

    def __init__(self, seed: int):
        self.order = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def one_pass(self, cases) -> tuple[float, float]:
        """Certify every case once, in seed-shuffled order.
        Returns (pass wall time, slowest case time)."""
        order = list(cases)
        self.order.shuffle(order)
        slowest = 0.0
        start = perf_counter()
        for case in order:
            self.attempted += 1
            t0 = perf_counter()
            try:
                answer = case.call()
                elapsed = perf_counter() - t0
                problem = case.check(answer)
            except (Exception, SystemExit):
                elapsed = perf_counter() - t0
                problem = "raised:\n" + traceback.format_exc()
            slowest = max(slowest, elapsed)
            if problem is not None:
                self.failed += 1
                print(f"FAILED {case.name}: {problem}", file=sys.stderr)
        return perf_counter() - start, slowest


def keep_going(start: float, seconds: float, rounds: list[float]) -> bool:
    """At least two rounds, so that every median has two samples; after
    that, another round only if it should end within the time given."""
    return len(rounds) < 2 or perf_counter() - start + statistics.median(rounds) <= seconds


def source_digest() -> str:
    """Hash of the program and benchmark sources; counters are compared
    only between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_counters(workload: str, seed: int, counters: dict) -> str | None:
    """Store this run's counters, or compare them with an earlier traced
    run of the same code, workload and seed.  Returns the first difference."""
    store = WORK / "counters" / f"{workload}-seed{seed}-{source_digest()}.json"
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counters, sort_keys=True, indent=1))
        return None
    earlier = json.loads(store.read_text())
    for key in sorted(set(earlier) | set(counters)):
        if earlier.get(key) != counters.get(key):
            return f"{key}: {earlier.get(key)} in {store.name}, {counters.get(key)} now"
    return None


def run_untraced(args, workload, work: Path) -> tuple[Runner, dict, str, list[str]]:
    runner = Runner(args.seed)
    setups, passes, slowest = [], [], []
    start = perf_counter()
    while keep_going(start, args.seconds, passes):
        for _ in range(SETUP_REPEATS):
            setup_s, _lib, cases = set_up(workload, work, args.seed)
            setups.append(setup_s)
        wall, worst = runner.one_pass(cases)
        passes.append(wall)
        slowest.append(worst)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "solve_s": {"value": statistics.median(passes), "unit": "s"},
        "slowest_case_s": {"value": statistics.median(slowest), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    note = f"passes {len(passes)}: " + " ".join(f"{p:.3f}" for p in passes)
    return runner, metrics, note, []


def run_traced(args, workload, work: Path) -> tuple[Runner, dict, str, list[str]]:
    """Alternate untraced and traced passes; the difference of their
    medians is the tracing overhead."""
    problems = []
    _setup_s, lib, _cases = set_up(workload, work, args.seed)
    tracer = spans.Tracer()
    tracer.install(lib)
    cases = workload(lib, work, args.seed)
    setup_layers = tracer.take()
    runner = Runner(args.seed)
    plain, traced, layers, rounds = [], [], [], []
    start = perf_counter()
    while keep_going(start, args.seconds, rounds):
        tracer.uninstall()
        plain.append(runner.one_pass(cases)[0])
        tracer.install(lib)
        traced.append(runner.one_pass(cases)[0])
        layers.append(tracer.take())
        rounds.append(plain[-1] + traced[-1])
    tracer.uninstall()
    if tracer.missing:
        print(f"note: not defined by this dgquiver, reading 0: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    for i, (_self, counts) in enumerate(layers[1:], start=2):
        if counts != layers[0][1]:
            problems.append(f"counters of traced pass {i} differ from pass 1")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = spans.layer_metrics(setup_layers, layers, overhead)
    mismatch = compare_counters(args.workload, args.seed, spans.counter_values(metrics))
    if mismatch:
        problems.append(f"counters differ from an earlier traced run: {mismatch}")
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_file)
    note = (
        f"traced passes {len(traced)}, untraced passes {len(plain)}, "
        f"traced solve_s {statistics.median(traced):.3f}, untraced solve_s {statistics.median(plain):.3f}; "
        f"{len(tracer.spans)} spans in {spans_file.relative_to(ROOT)}"
    )
    return runner, metrics, note, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"inputs-{args.workload}-{os.getpid()}"
    run = run_traced if args.trace else run_untraced
    try:
        runner, metrics, note, problems = run(args, workload, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FLAGGED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  {note}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<40} {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
