"""One execution of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N [--trace SPANS]
        [--setup-only]

``run.py`` starts this once per repetition, so the module-global
``lru_cache``s of ``lps`` start cold, as they do for every ``lps`` call.
It imports ``lps`` from the ``src`` directory next to this one, builds
every generator set the workload uses, runs the workload, validates what
it computed, and prints one JSON line with the set-up end time
(``time.monotonic``, comparable with the parent's clock), the wall time,
the peak RSS, every check verdict, the gaps and the exact counters.  With
``--trace`` the layer calls run under ``tracer.Tracer``, the spans are
written to SPANS and the line also holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WINDOWS = [64, 128, 256]
# Program checks known to fail at the parent commit; a failure outside
# this set makes the run incorrect.  The rank-one estimates decrease with
# the window although the compressed norm is exactly 1 at every radius.
KNOWN_BASELINE_FAILURES = frozenset(
    {
        "torus/rank-one sphere n1 R128 nondecreasing",
        "torus/rank-one sphere n1 R256 nondecreasing",
    }
)
REPORT_LAYER = {
    "report.generators": "quaternions",
    "report.freeness": "words",
    "report.identities": "formulas",
    "report.ramanujan": "sphere",
    "report.sphere-discrepancy": "sphere",
    "report.torus": "torus",
    "report.degenerate": "formulas",
    "report.determinism": "cli",
}
CHECK_LAYERS = ("quaternions", "words", "formulas", "sphere", "torus", "cli")
# Generator sets built during set-up: norm-p rotation sets, torus presets.
SETUP = {
    "report": ((5, 13, 17, 29), ("sanov", "rank-one")),
    "sphere-deep": ((5, 13), ()),
    "torus-wide": ((), ("sanov", "rank-one")),
}
SPHERE_DEEP_L_MAX = {5: 28, 13: 20}


class Outcome:
    """Check verdicts, deterministic results and counters of one execution."""

    def __init__(self):
        self.checks: list[tuple[str, str, bool]] = []
        self.results: dict = {}
        self.counters: dict = {}

    def check(self, layer: str, name: str, passed) -> None:
        self.checks.append((layer, name, bool(passed)))


def _sphere_cache_counters(sphere, out: Outcome) -> None:
    blocks = sphere.koopman_block.cache_info()
    spectra = sphere.block_spectrum.cache_info()
    out.counters["sphere.blocks_built"] = blocks.misses
    out.counters["sphere.block_cache_hits"] = blocks.hits
    out.counters["sphere.spectra_computed"] = spectra.misses
    out.counters["sphere.spectrum_cache_hits"] = spectra.hits


def _check_degree_one_block(lps, genset, out: Outcome) -> None:
    block = lps.sphere.koopman_block(genset, 1)
    target = Fraction(-2, 5)
    exact = all(
        block.matrix[i][j] == (target if i == j else 0) for i in range(3) for j in range(3)
    )
    out.check("sphere", "bench/p5 degree-1 block is -2/5 I", exact)


def run_report(lps, seed: int, gens, out: Outcome) -> None:
    cli, formulas = lps.cli, lps.formulas
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["report", "--seed", str(seed)])
    text = buf.getvalue()
    out.results["output_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    out.counters["cli.output_bytes"] = len(text.encode())
    envelopes = [json.loads(line) for line in text.splitlines() if line]
    out.check("cli", "bench/report exits 0", code == 0)
    out.check(
        "cli",
        "bench/report prints its 8 envelopes",
        [e["command"] for e in envelopes] == list(REPORT_LAYER),
    )
    for env in envelopes:
        for c in env["checks"]:
            out.check(REPORT_LAYER[env["command"]], f"{env['command']}/{c['name']}", c["passed"])
    by_command = {e["command"]: e["results"] for e in envelopes}

    torus_gaps = []
    for table in by_command["report.torus"]["tables"]:
        closed = formulas.regular_norm(3, 1, table["shape"])
        for row in table["rows"]:
            out.check(
                "torus",
                f"bench/sanov {table['shape']} n1 R{row['radius']} estimate <= closed form",
                row["estimate"] <= closed + 1e-8,
            )
        torus_gaps.append(closed - table["rows"][-1]["estimate"])
    rank_one = by_command["report.torus"]["rank_one_estimate"]
    closed = formulas.regular_norm(1, 1, "sphere")
    out.check("torus", "bench/rank-one sphere n1 R256 estimate <= closed form", rank_one <= closed + 1e-8)
    torus_gaps.append(closed - rank_one)
    out.results["torus_gap"] = max(torus_gaps)

    ramanujan = by_command["report.ramanujan"]
    bound = 2.0 * math.sqrt(5) + 1e-8
    eigenvalues = [e for d in ramanujan["per_degree"] for e in d["eigenvalues"]]
    out.check("sphere", "bench/p5 every block |eig| <= 2 sqrt p", all(abs(e) <= bound for e in eigenvalues))
    out.check(
        "sphere",
        "bench/p5 l24 max |eig| holds RAMANUJAN_FLOOR_P5_L24",
        ramanujan["global_max_abs"] >= cli.RAMANUJAN_FLOOR_P5_L24,
    )
    _check_degree_one_block(lps, gens["primes"][5], out)
    out.counters["sphere.block_dim_sum"] = len(eigenvalues)

    sphere_gaps = []
    for row in by_command["report.sphere-discrepancy"]["rows"]:
        closed = formulas.lps_discrepancy(5, row["n"], row["shape"])
        out.check(
            "sphere",
            f"bench/p5 {row['shape']} n{row['n']} estimate <= closed form",
            row["estimate"] <= closed + 1e-8,
        )
        sphere_gaps.append(closed - row["estimate"])
    out.results["sphere_gap"] = max(sphere_gaps)

    freeness = by_command["report.freeness"]
    out.check("words", "bench/p5 r5 ball holds 4687 words", freeness["prime_ball"] == 4687)
    out.check("words", "bench/sanov r8 ball holds 13121 words", freeness["sanov_ball"] == 13121)
    out.counters["words.ball_words"] = freeness["prime_ball"] + freeness["sanov_ball"]
    _sphere_cache_counters(lps.sphere, out)


def run_sphere_deep(lps, seed: int, gens, out: Outcome) -> None:
    # The seed is accepted like every workload's but reaches no estimator:
    # nothing on the rotation side is random.
    sphere, formulas = lps.sphere, lps.formulas
    p5 = gens["primes"][5]
    freeness = lps.words.verify_freeness(p5, 6)
    out.check("words", "freeness p5 r6", freeness.is_free_to_radius)
    out.check("words", "bench/p5 r6 ball holds 23437 words", freeness.ball_size_found == 23437)
    out.counters["words.ball_words"] = freeness.ball_size_found

    dim_sum = 0
    for p, l_max in SPHERE_DEEP_L_MAX.items():
        report = sphere.verify_ramanujan(p, l_max)
        out.check("sphere", f"verify_ramanujan p{p} l{l_max}", report.passed)
        bound = 2.0 * math.sqrt(p) + 1e-8
        out.check(
            "sphere",
            f"bench/p{p} every block |eig| <= 2 sqrt p",
            all(abs(e) <= bound for d in report.per_degree for e in d.eigenvalues),
        )
        dim_sum += sum(len(d.eigenvalues) for d in report.per_degree)
        out.results[f"p{p}_global_max_abs"] = report.global_max_abs
        if p == 5:
            out.check(
                "sphere",
                "bench/p5 l24 max |eig| holds RAMANUJAN_FLOOR_P5_L24",
                max(d.max_abs for d in report.per_degree[:24]) >= lps.cli.RAMANUJAN_FLOOR_P5_L24,
            )
    out.counters["sphere.block_dim_sum"] = dim_sum
    _check_degree_one_block(lps, p5, out)

    estimates = {}
    for p, l_max in SPHERE_DEEP_L_MAX.items():
        for n in (1, 2, 3):
            for shape in ("sphere", "ball"):
                est = sphere.sphere_discrepancy_estimate(p, n, shape, l_max)
                closed = formulas.lps_discrepancy(p, n, shape)
                out.check(
                    "sphere",
                    f"bench/p{p} {shape} n{n} l{l_max} estimate <= closed form",
                    est <= closed + 1e-8,
                )
                estimates[f"p{p} {shape} n{n}"] = (est, closed - est)
    out.results["estimates"] = estimates
    out.results["sphere_gap"] = max(gap for _, gap in estimates.values())

    buf = io.StringIO()
    argv = ["sphere-discrepancy", "--prime", "5", "--n", "2", "--shape", "ball", "--l-max", "28"]
    with redirect_stdout(buf):
        code = lps.cli.main(argv)
    text = buf.getvalue()
    out.counters["cli.output_bytes"] = len(text.encode())
    envelope = json.loads(text)
    out.check("cli", "bench/sphere-discrepancy exits 0", code == 0)
    for c in envelope["checks"]:
        out.check("sphere", f"sphere-discrepancy/{c['name']}", c["passed"])
    out.check(
        "sphere",
        "bench/sphere-discrepancy estimate equals the p5 ball n2 query",
        envelope["results"]["estimate"] == float(f"{estimates['p5 ball n2'][0]:.9g}"),
    )
    _sphere_cache_counters(sphere, out)


def run_torus_wide(lps, seed: int, gens, out: Outcome) -> None:
    torus, formulas = lps.torus, lps.formulas
    sanov = gens["torus"]["sanov"]
    freeness = lps.words.verify_freeness(sanov, 10)
    out.check("words", "freeness sanov r10", freeness.is_free_to_radius)
    out.check("words", "bench/sanov r10 ball holds 118097 words", freeness.ball_size_found == 118097)
    out.counters["words.ball_words"] = freeness.ball_size_found

    tables = {}
    for preset, n, shape in (("rank-one", 1, "sphere"), ("sanov", 2, "sphere"), ("sanov", 2, "ball")):
        genset = gens["torus"][preset]
        table = torus.torus_discrepancy_check(genset, n, shape, WINDOWS, seed=seed)
        closed = formulas.regular_norm(genset.q, n, shape)
        label = f"{preset} {shape} n{n}"
        for row in table.rows:
            out.check("torus", f"{label} R{row.radius} within_upper", row.within_upper)
            out.check("torus", f"{label} R{row.radius} nondecreasing", row.nondecreasing)
            out.check(
                "torus",
                f"bench/{label} R{row.radius} estimate <= closed form",
                row.estimate <= closed + 1e-8,
            )
        tables[label] = [row.estimate for row in table.rows]
        out.results.setdefault("torus_gaps", {})[label] = closed - table.rows[-1].estimate
    out.results["estimates"] = tables
    out.results["torus_gap"] = max(out.results["torus_gaps"].values())


WORKLOADS = {
    "report": run_report,
    "sphere-deep": run_sphere_deep,
    "torus-wide": run_torus_wide,
}


def layer_metrics(tracer, out: Outcome) -> dict:
    """Per-layer metrics of a traced execution, except the trace overhead."""
    metrics = dict(tracer.self_times())
    counts = dict(out.counters)
    counts.update(tracer.counters)
    for name in (
        "words.ball_words",
        "exact.object_matmul_calls",
        "sphere.blocks_built",
        "sphere.block_cache_hits",
        "sphere.spectra_computed",
        "sphere.spectrum_cache_hits",
        "sphere.block_dim_sum",
        "torus.windows",
        "torus.window_nnz",
        "torus.words_used",
        "cli.output_bytes",
    ):
        metrics[name] = counts.get(name, 0)
    slots = counts.get("torus.window_slots", 0)
    metrics["torus.window_keep_ratio"] = counts.get("torus.window_nnz", 0) / slots if slots else 0.0
    for layer in CHECK_LAYERS:
        metrics[f"{layer}.checks_failed"] = sum(
            1 for lay, _, passed in out.checks if lay == layer and not passed
        )
    metrics["torus.gap"] = out.results.get("torus_gap", 0.0)
    metrics["sphere.gap"] = out.results.get("sphere_gap", 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def machine() -> dict:
    """The toolchain this interpreter measures with (the CPU is in README.md)."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "longdouble_digits": int(np.finfo(np.longdouble).precision),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", default=None, help="write spans to this path")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import lps
    import lps.cli

    if Path(lps.__file__).resolve().parent != SRC / "lps":
        raise ImportError(f"imported lps from {lps.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{Path(args.trace).stem}")
        tracer.install()
    primes, presets = SETUP[args.workload]
    gens = {
        "primes": {p: lps.quaternions.build_generator_set(p) for p in primes},
        "torus": {name: lps.torus.build_torus_genset(name) for name in presets},
    }
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "machine": machine()}))
        return 0

    out = Outcome()
    started = time.perf_counter()
    WORKLOADS[args.workload](lps, args.seed, gens, out)
    wall = time.perf_counter() - started
    line = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": out.checks,
        "unexpected_failures": [
            f"{layer}/{name}"
            for layer, name, passed in out.checks
            if not passed and f"{layer}/{name}" not in KNOWN_BASELINE_FAILURES
        ],
        "results": out.results,
        "counters": out.counters,
    }
    if tracer is not None:
        tracer.uninstall()
        # Counters the tracer read at the layer boundary must equal those
        # the workload read from the results.
        line["counter_mismatch"] = [
            name
            for name, value in tracer.counters.items()
            if name in out.counters and out.counters[name] != value
        ]
        line["layers"] = layer_metrics(tracer, out)
        tracer.write(args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
