"""Benchmark of the lps package: fresh-process repetitions of one workload.

    python3 perfbench/run.py --workload {report,sphere-deep,torus-wide,all}
        [--seed 42] [--seconds 42] [--trace 0|1]

Run from anywhere; the package is imported from the ``src`` directory
beside this one.  Each repetition is a new interpreter (``workload.py``),
so the module-global caches start cold, as they do for every ``lps`` call,
and BLAS runs single-threaded.  Repetitions continue while the next one is
expected to end within ``--seconds`` of the start of the run, set-up-only
interpreters included; at least one always runs.  With ``--workload all``
each workload gets ``--seconds`` of its own.

The first repetition forwards ``--seed`` as the torus estimator seed; each
later one forwards the next seed of a sequence drawn from ``--seed``.  The
power-iteration count depends on the estimator seed, so a run's
``wall_s`` spans several seeds' work instead of resting on one seed's.

``--trace 0`` reports the end-to-end metrics: mean ``wall_s`` (first
layer call to validated verdict) and median ``peak_rss_mb`` over
repetitions, and median ``setup_s`` (fresh interpreter to inputs ready)
over those repetitions plus one set-up-only interpreter before each
repetition.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus
``trace.overhead_s`` (traced minus untraced median ``wall_s``); the traced
results must equal the untraced ones.  Spans go to
``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted`` (executions), ``failed``
(executions that crashed or failed validation) and ``metrics``.
``--workload all`` runs the three workloads in turn and prints only the
human-readable lines of each.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("report", "sphere-deep", "torus-wide")
# Counters that the estimator seed moves: the report prints its estimates.
SEEDED_COUNTERS = frozenset({"cli.output_bytes"})
CHILD_TIMEOUT_S = 120
# One BLAS thread: a second one spins on the other core for no gain.
CHILD_ENV = dict(
    os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


class ExecutionFailed(RuntimeError):
    """A workload interpreter exited non-zero or timed out."""


def execute(workload: str, seed: int, trace_path: Path | None = None, setup_only=False) -> dict:
    """Start one workload interpreter and return its JSON line plus setup_s."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ExecutionFailed(f"{workload} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ExecutionFailed(f"{workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.splitlines()[-1])
    line["setup_s"] = line["ready"] - spawned
    line["seed"] = seed
    return line


def estimator_seeds(seed: int):
    """The estimator seed of each repetition: `seed`, then seeds drawn from it."""
    draw = random.Random(seed)
    yield seed
    while True:
        yield draw.randrange(1, 2**31)


def repeat(deadline: float, once) -> None:
    """Call `once` until the next call would likely end after `deadline`."""
    while True:
        began = time.monotonic()
        once()
        now = time.monotonic()
        if now + (now - began) > deadline:
            return


def comparable(line: dict) -> dict:
    """The part of an execution that must repeat exactly at one seed."""
    return {k: line[k] for k in ("checks", "results", "counters")}


def unseeded(line: dict) -> dict:
    """The counters that must repeat exactly whatever the seed."""
    return {k: v for k, v in line["counters"].items() if k not in SEEDED_COUNTERS}


def summarise(values: list[float]) -> str:
    return (
        f"mean {statistics.fmean(values):.6g} median {statistics.median(values):.6g}"
        f" over {len(values)} (min {min(values):.6g}, max {max(values):.6g})"
    )


def measure_untraced(workload: str, seed: int, deadline: float):
    """Repetitions, crashes, and each end-to-end metric over the repetitions."""
    setups, lines, failures = [], [], []
    seeds = estimator_seeds(seed)

    def once():
        try:
            # A set-up-only interpreter before each repetition spreads the
            # set-up samples over the whole run.
            setups.append(execute(workload, seed, setup_only=True)["setup_s"])
            lines.append(execute(workload, next(seeds)))
        except ExecutionFailed as exc:
            failures.append(str(exc))

    repeat(deadline, once)
    samples = {
        "wall_s": [line["wall_s"] for line in lines],
        "setup_s": setups + [line["setup_s"] for line in lines],
        "peak_rss_mb": [line["peak_rss_mb"] for line in lines],
    }
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    if lines:
        # The repetitions run different seeds' work, so wall_s is their mean:
        # the run's execution time over its repetitions.
        values["wall_s"] = statistics.fmean(samples["wall_s"])
    detail = {name: summarise(v) for name, v in samples.items() if v}
    return lines, failures, values, detail


def measure_traced(workload: str, seed: int, deadline: float):
    """Untraced and traced repetitions in turn; medians of the traced layers."""
    OUT.mkdir(exist_ok=True)
    pairs, failures = [], []
    seeds = estimator_seeds(seed)

    def once():
        rep_seed = next(seeds)
        spans = OUT / f"spans-{workload}-seed{seed}-{len(pairs)}.jsonl"
        try:
            pairs.append((execute(workload, rep_seed), execute(workload, rep_seed, trace_path=spans)))
        except ExecutionFailed as exc:
            failures.append(str(exc))

    repeat(deadline, once)
    values = {}
    if pairs:
        for name in pairs[0][1]["layers"]:
            values[name] = statistics.median_low(traced["layers"][name] for _, traced in pairs)
        values["trace.overhead_s"] = statistics.median(
            traced["wall_s"] for _, traced in pairs
        ) - statistics.median(plain["wall_s"] for plain, _ in pairs)
    lines = [line for pair in pairs for line in pair]
    return lines, failures, values, {name: repr(value) for name, value in values.items()}


def judge(lines: list[dict], failures: list[str]) -> tuple[int, list[str]]:
    """Failed executions, and why the run is not correct."""
    problems = list(failures)
    failed = len(failures)
    for line in lines:
        wrong = line["unexpected_failures"] + line.get("counter_mismatch", [])
        if wrong:
            failed += 1
            problems.append(f"checks failed or traced counters differ: {wrong}")
    first_at_seed = {}
    for line in lines:
        if comparable(line) != comparable(first_at_seed.setdefault(line["seed"], line)):
            problems.append(f"executions at seed {line['seed']} disagree")
        if unseeded(line) != unseeded(lines[0]):
            problems.append("executions at different seeds disagree on unseeded counters")
    if not lines:
        problems.append("no execution completed")
    return failed, problems


def describe_checks(line: dict) -> list[str]:
    checks = line["checks"]
    failing = [f"{layer}/{name}" for layer, name, passed in checks if not passed]
    text = [f"checks_failed {len(failing)} count (of checks_run {len(checks)})"]
    text += [f"  failing: {name}" for name in failing]
    for key in ("torus_gap", "sphere_gap"):
        if key in line["results"]:
            text.append(f"{key} {line['results'][key]!r} 1")
    return text


def run_workload(spec: dict, workload: str, seed: int, deadline: float, trace: bool):
    """The result object of one run, and the lines to print before it."""
    measure = measure_traced if trace else measure_untraced
    lines, failures, values, detail = measure(workload, seed, deadline)
    failed, problems = judge(lines, failures)
    named = spec["per_layer" if trace else "end_to_end"]
    printed = [f"workload {workload} seed {seed} trace {int(trace)}"]
    printed += [f"{m['name']} {detail[m['name']]} {m['unit']}" for m in named if m["name"] in detail]
    if lines:
        printed.append(f"estimator seeds {[line['seed'] for line in lines]}; checks and gaps at seed {seed}:")
        printed += describe_checks(lines[0])
    printed += [f"problem: {p}" for p in problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named} if lines else {}
    result = {
        "correct": not problems,
        "attempted": len(lines) + len(failures),
        "failed": failed,
        "metrics": metrics,
    }
    return result, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lps" / "__init__.py").is_file():
        print(f"error: no lps package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + args.seconds
    probe = WORKLOADS[0] if args.workload == "all" else args.workload
    print("machine " + json.dumps(execute(probe, args.seed, setup_only=True)["machine"], sort_keys=True))
    if args.workload != "all":
        result, printed = run_workload(spec, args.workload, args.seed, deadline, bool(args.trace))
        print("\n".join(printed))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    all_correct = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + args.seconds
        result, printed = run_workload(spec, workload, args.seed, deadline, bool(args.trace))
        print("\n".join(printed) + f"\ncorrect {result['correct']}\n")
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
