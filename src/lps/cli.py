"""Command line front end producing deterministic JSON and CSV reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction
from typing import Optional

from . import __version__
from .formulas import (
    ConsistencyError,
    c_factor,
    harish_chandra,
    harish_chandra_boundary_sum,
    hecke_sup,
    lps_discrepancy,
    regular_norm,
)
from .quaternions import build_generator_set, jacobi_count
from .sphere import (
    RAMANUJAN_TOLERANCE,
    koopman_block,
    sphere_discrepancy_estimate,
    sphere_discrepancy_profile,
    verify_ramanujan,
)
from .torus import (
    MONOTONICITY_TOLERANCE,
    PRESETS,
    UPPER_TOLERANCE,
    LanczosConvergenceError,
    build_torus_genset,
    load_generator_matrices,
    torus_discrepancy_check,
)
from .words import EnumerationBudgetError, verify_freeness, word_counts

# Regression pin for the largest block eigenvalue at p = 5 over degrees
# 1..24 (first calibrated value: 4.34043840819874); a drop below this
# means the spectra stopped filling the tempered interval from inside.
RAMANUJAN_FLOOR_P5_L24 = 4.34


def _nine(x: float) -> float:
    """Round a float to 9 significant digits for stable serialisation."""
    return float(f"{x:.9g}")


def _nine_down(x: float) -> float:
    """Round a float down to 9 significant digits, so the printed value never exceeds it."""
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 8), rounding=ROUND_FLOOR))


def _jsonable(obj):
    if isinstance(obj, float):
        return _nine(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def stable_dumps(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


@dataclass
class CheckRecord:
    name: str
    passed: bool
    measured: float
    bound: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": self.measured,
            "bound": self.bound,
        }


@dataclass
class ReportEnvelope:
    command: str
    parameters: dict
    results: object
    checks: list[CheckRecord] = field(default_factory=list)
    version: str = __version__
    elapsed_ms: Optional[float] = None
    diagnostics: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self, with_timings: bool = False) -> dict:
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": [c.as_dict() for c in self.checks],
            "version": self.version,
        }
        if with_timings and self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        if with_timings and self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [f"{v:.9g}" if isinstance(v, float) else ("" if v is None else v) for v in row]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Commands and the checks they share with the report.  Each command returns
# its envelopes and, for tabular output, a CSV text.
# ---------------------------------------------------------------------------


def _generator_checks(genset) -> list[CheckRecord]:
    p = genset.p
    return [
        CheckRecord(
            f"p{p}_generator_count",
            len(genset.matrices) == p + 1,
            float(len(genset.matrices)),
            float(p + 1),
        ),
        CheckRecord(
            f"p{p}_jacobi_count",
            jacobi_count(p) == 8 * (p + 1),
            float(jacobi_count(p)),
            float(8 * (p + 1)),
        ),
    ]


def _ball_check(prefix: str, report) -> CheckRecord:
    return CheckRecord(
        f"{prefix}ball_distinct",
        report.is_free_to_radius,
        float(report.ball_size_found),
        float(report.ball_size_expected),
    )


def _below_closed_form(prefix: str, estimate: float, closed: float) -> CheckRecord:
    return CheckRecord(
        f"{prefix}below_closed_form", estimate <= closed + 1e-9, estimate, closed + 1e-9
    )


def cmd_generators(args) -> tuple[list[ReportEnvelope], Optional[str]]:
    genset = build_generator_set(args.prime)
    records = []
    for i, (q, matrix) in enumerate(zip(genset.source_quaternions, genset.matrices)):
        records.append(
            {
                "index": i,
                "quaternion": [q.x0, q.x1, q.x2, q.x3],
                "matrix": [list(row) for row in matrix],
                "den_base": genset.p,
                "den_exp": 1,
                "inverse_index": genset.inverse_of[i],
            }
        )
    results = {"p": args.prime, "rank": genset.rank, "generators": records}
    env = ReportEnvelope("generators", {"prime": args.prime}, results, _generator_checks(genset))
    csv_text = None
    if args.format == "csv":
        header = (
            ["index", "x0", "x1", "x2", "x3"]
            + [f"m{i}{j}" for i in range(3) for j in range(3)]
            + ["den_base", "den_exp", "inverse_index"]
        )
        rows = [
            [r["index"]]
            + r["quaternion"]
            + [v for row in r["matrix"] for v in row]
            + [r["den_base"], r["den_exp"], r["inverse_index"]]
            for r in records
        ]
        csv_text = _csv_text(header, rows)
    return [env], csv_text


def cmd_norms(args) -> tuple[list[ReportEnvelope], Optional[str]]:
    q = args.q
    rows = []
    for n in range(args.n_max + 1):
        sphere_count, ball_count = word_counts(q, n)
        entry = {
            "n": n,
            "sphere_count": sphere_count,
            "ball_count": ball_count,
            "sphere_norm": harish_chandra(q, n),
            "ball_norm": regular_norm(q, n, "ball"),
            "c_factor": c_factor(q, n) if q > 1 else None,
        }
        rows.append(entry)
    results = {"q": q, "rows": rows}
    env = ReportEnvelope("norms", {"n_max": args.n_max, "q": q}, results, [])
    csv_text = None
    if args.format == "csv":
        header = ["n", "sphere_count", "ball_count", "sphere_norm", "ball_norm", "c_factor"]
        csv_rows = [[r[h] for h in header] for r in rows]
        csv_text = _csv_text(header, csv_rows)
    return [env], csv_text


def _ramanujan_envelope(command: str, prime: int, l_max: int) -> ReportEnvelope:
    report = verify_ramanujan(prime, l_max)
    per_degree = [
        {
            "degree": r.degree,
            "max_abs": r.max_abs,
            "eigenvalues": list(r.eigenvalues),
        }
        for r in report.per_degree
    ]
    checks = [
        CheckRecord(
            "eigenvalues_within_tempered_bound",
            report.passed,
            report.global_max_abs,
            report.bound + RAMANUJAN_TOLERANCE,
        )
    ]
    if prime == 5:
        block = koopman_block(build_generator_set(5), 1)
        target = Fraction(-2, 5)
        exact = all(
            block.matrix[i][j] == (target if i == j else 0)
            for i in range(3)
            for j in range(3)
        )
        checks.append(
            CheckRecord("degree1_block_is_minus_two_fifths_identity", exact, 0.0 if exact else 1.0, 0.0)
        )
        if l_max >= 24:
            checks.append(
                CheckRecord(
                    "spectra_fill_interval_regression_floor",
                    report.global_max_abs >= RAMANUJAN_FLOOR_P5_L24,
                    report.global_max_abs,
                    RAMANUJAN_FLOOR_P5_L24,
                )
            )
    results = {
        "bound": report.bound,
        "global_max_abs": report.global_max_abs,
        "per_degree": per_degree,
    }
    return ReportEnvelope(
        command,
        {"l_max": l_max, "prime": prime},
        results,
        checks,
    )


def cmd_verify_ramanujan(args) -> tuple[list[ReportEnvelope], None]:
    return [_ramanujan_envelope("verify.ramanujan", args.prime, args.l_max)], None


def _load_genset_argument(selector: str):
    if selector in PRESETS:
        return build_torus_genset(selector), f"preset:{selector}"
    return build_torus_genset(load_generator_matrices(selector)), selector


def cmd_verify_freeness(args) -> tuple[list[ReportEnvelope], None]:
    if args.generators:
        genset, label = _load_genset_argument(args.generators)
        params = {"generators": label, "radius": args.radius}
    else:
        genset = build_generator_set(args.prime)
        label = f"prime:{args.prime}"
        params = {"prime": args.prime, "radius": args.radius}
    report = verify_freeness(genset, args.radius, budget=args.budget)
    results = {
        "generators": label,
        "radius": report.radius_checked,
        "ball_size_expected": report.ball_size_expected,
        "ball_size_found": report.ball_size_found,
        "first_collision": (
            None
            if report.first_collision is None
            else [list(report.first_collision[0].letters), list(report.first_collision[1].letters)]
        ),
    }
    return [ReportEnvelope("verify.freeness", params, results, [_ball_check("", report)])], None


def _identities_envelope(command: str, q_list: list[int], n_max: int) -> ReportEnvelope:
    checks = []
    detail = []
    for q in q_list:
        worst_boundary = 0.0
        for n in range(1, n_max + 1):
            closed = harish_chandra(q, n)
            summed = harish_chandra_boundary_sum(q, n)
            worst_boundary = max(worst_boundary, abs(summed - closed) / abs(closed))
            # Each compares its closed form with the count-weighted profile
            # itself and raises ConsistencyError on a mismatch.
            regular_norm(q, n, "ball")
            if q % 2 == 1:
                hecke_sup(q, n)

        checks.append(
            CheckRecord(f"boundary_sum_matches_closed_form_q{q}", worst_boundary <= 1e-12, worst_boundary, 1e-12)
        )
        detail.append({"q": q, "worst_boundary_sum_rel": worst_boundary})
    return ReportEnvelope(
        command,
        {"n_max": n_max, "q_list": q_list},
        {"per_q": detail},
        checks,
    )


def cmd_verify_identities(args) -> tuple[list[ReportEnvelope], None]:
    return [_identities_envelope("verify.identities", args.q_list, args.n_max)], None


def _torus_diagnostics(row) -> dict:
    """What the certificate of one window cost and how tight it is."""
    bound = row.bound
    return {
        "radius": row.radius,
        "dimension": bound.dimension,
        "orbits": bound.orbits,
        "symmetry_order": bound.symmetry_order,
        "matvecs": bound.matvecs,
        "ritz_residual": bound.ritz_residual,
        "ritz_minus_certificate": bound.ritz_minus_certificate,
    }


def _torus_envelope(
    command: str, selector: str, n: int, shapes: list[str], radii: list[int], seed: int
) -> ReportEnvelope:
    genset, label = _load_genset_argument(selector)
    checks = []
    tables = []
    diagnostics = []
    for shape in shapes:
        table = torus_discrepancy_check(genset, n, shape, radii, seed=seed)
        shown = [_nine_down(r.estimate) for r in table.rows]
        tables.append(
            {
                "shape": shape,
                "theoretical": table.theoretical,
                "rows": [{"radius": r.radius, "estimate": e} for r, e in zip(table.rows, shown)],
            }
        )
        diagnostics.append({"shape": shape, "rows": [_torus_diagnostics(r) for r in table.rows]})
        for row, estimate in zip(table.rows, shown):
            checks.append(
                CheckRecord(
                    f"{shape}_R{row.radius}_below_theory",
                    row.within_upper,
                    estimate,
                    table.theoretical + UPPER_TOLERANCE,
                )
            )
            checks.append(
                CheckRecord(
                    f"{shape}_R{row.radius}_nondecreasing",
                    row.nondecreasing,
                    estimate,
                    MONOTONICITY_TOLERANCE,
                )
            )
    return ReportEnvelope(
        command,
        {
            "generators": label,
            "n": n,
            "seed": seed,
            "shapes": shapes,
            "windows": radii,
        },
        {"tables": tables},
        checks,
        diagnostics={"tables": diagnostics},
    )


def cmd_verify_torus(args) -> tuple[list[ReportEnvelope], None]:
    shapes = ["sphere", "ball"] if args.shape == "both" else [args.shape]
    env = _torus_envelope(
        "verify.torus", args.generators, args.n, shapes, args.windows, args.seed
    )
    return [env], None


def cmd_sphere_discrepancy(args) -> tuple[list[ReportEnvelope], None]:
    closed = lps_discrepancy(args.prime, args.n, args.shape)
    profile = sphere_discrepancy_profile(args.prime, args.n, args.shape, args.l_max)
    estimate = profile[-1]
    results = {
        "closed_form": closed,
        "estimate": estimate,
        "fill_ratio": estimate / closed,
        "running": [{"l_max": l, "estimate": e} for l, e in enumerate(profile, 1)],
    }
    env = ReportEnvelope(
        "sphere-discrepancy",
        {"l_max": args.l_max, "n": args.n, "prime": args.prime, "shape": args.shape},
        results,
        [_below_closed_form("estimate_", estimate, closed)],
    )
    return [env], None


# ---------------------------------------------------------------------------
# The report: a fixed sequence of the builders above plus its own envelopes
# ---------------------------------------------------------------------------


def _report_generators(primes: list[int]) -> ReportEnvelope:
    checks = [c for p in primes for c in _generator_checks(build_generator_set(p))]
    return ReportEnvelope("report.generators", {"primes": primes}, {}, checks)


def _report_freeness(radius: int, sanov_radius: int) -> ReportEnvelope:
    free_q = verify_freeness(build_generator_set(5), radius)
    free_s = verify_freeness(build_torus_genset("sanov"), sanov_radius)
    return ReportEnvelope(
        "report.freeness",
        {"prime_radius": radius, "sanov_radius": sanov_radius},
        {"prime_ball": free_q.ball_size_found, "sanov_ball": free_s.ball_size_found},
        [_ball_check("p5_", free_q), _ball_check("sanov_", free_s)],
    )


def _report_sphere_discrepancy(l_max: int) -> ReportEnvelope:
    rows = []
    checks = []
    for n in (1, 2, 3):
        for shape in ("sphere", "ball"):
            closed = lps_discrepancy(5, n, shape)
            est = sphere_discrepancy_estimate(5, n, shape, l_max)
            rows.append({"n": n, "shape": shape, "closed_form": closed, "estimate": est})
            checks.append(_below_closed_form(f"{shape}_n{n}_", est, closed))
    return ReportEnvelope(
        "report.sphere-discrepancy", {"l_max": l_max, "prime": 5}, {"rows": rows}, checks
    )


def _report_torus(windows: list[int], seed: int) -> ReportEnvelope:
    env = _torus_envelope("report.torus", "sanov", 1, ["sphere", "ball"], windows, seed)
    table = torus_discrepancy_check(
        build_torus_genset("rank-one"), 1, "sphere", [windows[-1]], seed=seed
    )
    row = table.rows[-1]
    amenable_est = _nine_down(row.estimate)
    env.checks.append(
        CheckRecord("rank_one_estimate_near_one", row.estimate >= 0.95, amenable_est, 0.95)
    )
    env.results["rank_one_estimate"] = amenable_est
    env.diagnostics["rank_one"] = _torus_diagnostics(row)
    return env


def _report_degenerate() -> ReportEnvelope:
    worst = max(
        abs(regular_norm(1, n, shape) - 1.0) for n in range(11) for shape in ("sphere", "ball")
    )
    return ReportEnvelope(
        "report.degenerate",
        {"n_max": 10, "q": 1},
        {},
        [CheckRecord("q1_norms_identically_one", worst == 0.0, worst, 0.0)],
    )


def _report_determinism(envelopes: list[ReportEnvelope]) -> ReportEnvelope:
    """Byte count of the envelopes so far, which must be strict JSON.

    stable_dumps writes NaN and infinities bare, and strict JSON readers
    reject those tokens; json.loads hands each one to parse_constant.
    """
    text = "\n".join(stable_dumps(e.as_dict()) for e in envelopes)
    bare = []
    for line in text.splitlines():
        json.loads(line, parse_constant=bare.append)
    return ReportEnvelope(
        "report.determinism",
        {},
        {"bytes": len(text)},
        [CheckRecord("no_nan_or_infinity", not bare, float(len(bare)), 0.0)],
    )


def cmd_report(args) -> tuple[list[ReportEnvelope], None]:
    envelopes: list[ReportEnvelope] = []
    # The last builder reads `envelopes`, which by then holds the other seven.
    for build, *params in (
        (_report_generators, [5, 13, 17, 29]),
        (_report_freeness, args.radius, args.sanov_radius),
        (_identities_envelope, "report.identities", [2, 3, 5, 9, 13], 12),
        (_ramanujan_envelope, "report.ramanujan", 5, args.l_max),
        (_report_sphere_discrepancy, args.l_max),
        (_report_torus, args.windows, args.seed),
        (_report_degenerate,),
        (_report_determinism, envelopes),
    ):
        started = time.perf_counter()
        env = build(*params)
        env.elapsed_ms = (time.perf_counter() - started) * 1000.0
        envelopes.append(env)
    return envelopes, None


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lps",
        description=(
            "Free rotation groups from quaternions of prime norm: exact "
            "averaging norms and their finite-dimensional verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, tabular=False):
        p.set_defaults(handler=handler)
        if tabular:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument(
            "--timings", action="store_true", help="include wall-clock timings"
        )

    p_gen = sub.add_parser("generators", help="emit the norm-p rotation generators")
    p_gen.add_argument("--prime", type=int, required=True)
    common(p_gen, cmd_generators, tabular=True)

    p_norms = sub.add_parser("norms", help="table of exact averaging norms")
    p_norms.add_argument("--q", type=int, required=True)
    p_norms.add_argument("--n-max", type=int, required=True)
    common(p_norms, cmd_norms, tabular=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    v_sub = p_verify.add_subparsers(dest="target", required=True)

    p_ram = v_sub.add_parser("ramanujan", help="block eigenvalue bound check")
    p_ram.add_argument("--prime", type=int, required=True)
    p_ram.add_argument("--l-max", type=int, default=24)
    common(p_ram, cmd_verify_ramanujan)

    p_free = v_sub.add_parser("freeness", help="distinctness of short products")
    group = p_free.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int)
    group.add_argument(
        "--generators",
        help="preset name (sanov, rank-one) or path to a JSON matrix list",
    )
    p_free.add_argument("--radius", type=int, required=True)
    p_free.add_argument("--budget", type=int, default=10 ** 6)
    common(p_free, cmd_verify_freeness)

    p_ident = v_sub.add_parser("identities", help="cross-check closed forms")
    p_ident.add_argument("--q-list", type=_int_list, default=[2, 3, 5, 9, 13])
    p_ident.add_argument("--n-max", type=int, default=12)
    common(p_ident, cmd_verify_identities)

    p_torus = v_sub.add_parser("torus", help="windowed torus sandwich check")
    p_torus.add_argument("--generators", default="sanov")
    p_torus.add_argument("--n", type=int, default=1)
    p_torus.add_argument("--shape", choices=("sphere", "ball", "both"), default="both")
    p_torus.add_argument("--windows", type=_int_list, default=[64, 128, 256])
    p_torus.add_argument("--seed", type=int, default=42)
    common(p_torus, cmd_verify_torus)

    p_disc = sub.add_parser(
        "sphere-discrepancy", help="lower bound the sphere discrepancy from blocks"
    )
    p_disc.add_argument("--prime", type=int, required=True)
    p_disc.add_argument("--n", type=int, required=True)
    p_disc.add_argument("--shape", choices=("sphere", "ball"), required=True)
    p_disc.add_argument("--l-max", type=int, default=24)
    common(p_disc, cmd_sphere_discrepancy)

    p_rep = sub.add_parser("report", help="full acceptance sweep, one envelope per line")
    p_rep.add_argument("--l-max", type=int, default=24)
    p_rep.add_argument("--windows", type=_int_list, default=[64, 128, 256])
    p_rep.add_argument("--radius", type=int, default=5)
    p_rep.add_argument("--sanov-radius", type=int, default=8)
    p_rep.add_argument("--seed", type=int, default=42)
    common(p_rep, cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    started = time.perf_counter()
    try:
        envelopes, text = args.handler(args)
        # Envelopes their command did not time itself are charged the whole run.
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        for env in envelopes:
            if env.elapsed_ms is None:
                env.elapsed_ms = elapsed_ms
        if text is None:
            text = "".join(stable_dumps(e.as_dict(args.timings)) + "\n" for e in envelopes)
        _emit(text, args.out)
    except (EnumerationBudgetError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, LanczosConvergenceError) as exc:
        # an internal cross-check or the norm solve failed: no verdict, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(e.passed for e in envelopes) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
