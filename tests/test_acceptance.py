"""Acceptance gate: every shipped criterion, one pass/fail line each.

Each test times its criterion, prints a single unbuffered status line, and
then asserts, so a full run shows eight lines regardless of verbosity.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lps.cli import RAMANUJAN_FLOOR_P5_L24
from lps.formulas import (
    c_factor,
    harish_chandra,
    harish_chandra_boundary_sum,
    hecke_polynomial,
    hecke_sup,
    lps_discrepancy,
    regular_norm,
)
from lps.quaternions import build_generator_set, enumerate_representatives, jacobi_count
from lps.sphere import koopman_block, sphere_discrepancy_estimate, verify_ramanujan
from lps.torus import (
    build_torus_genset,
    norm_certificate,
    torus_discrepancy_check,
    window_operator,
)
from lps.words import verify_freeness, word_counts


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} {name}: {detail}"


def brute_force_four_squares(n: int) -> int:
    bound = int(n**0.5) + 1
    total = 0
    for x0 in range(-bound, bound + 1):
        for x1 in range(-bound, bound + 1):
            for x2 in range(-bound, bound + 1):
                rest = n - x0 * x0 - x1 * x1 - x2 * x2
                if rest < 0:
                    continue
                root = int(rest**0.5)
                if root * root == rest or (root + 1) ** 2 == rest:
                    total += 1 if rest == 0 else 2
    return total


def test_criterion_1_generator_construction(capsys):
    started = time.perf_counter()
    ok = True
    for p in (5, 13, 17, 29):
        reps = enumerate_representatives(p)
        ok &= len(reps) == p + 1
        genset = build_generator_set(p)
        inv = genset.inverse_of
        ok &= sorted(inv) == list(range(p + 1))
        ok &= all(inv[i] != i and inv[inv[i]] == i for i in range(p + 1))
        pairs = {frozenset((i, inv[i])) for i in range(p + 1)}
        ok &= len(pairs) == (p + 1) // 2
        for m in genset.matrices:
            for i in range(3):
                for j in range(3):
                    dot = sum(m[k][i] * m[k][j] for k in range(3))
                    ok &= dot == (p * p if i == j else 0)
        ok &= jacobi_count(p) == 8 * (p + 1) == brute_force_four_squares(p)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    announce(capsys, 1, "generator construction", ok, f"{elapsed:.2f}s < 1s")


def test_criterion_2_freeness_at_desk_scale(capsys):
    started = time.perf_counter()
    rotation = verify_freeness(build_generator_set(5), 5)
    sanov = verify_freeness(build_torus_genset("sanov"), 8)
    elapsed = time.perf_counter() - started
    ok = (
        rotation.is_free_to_radius
        and rotation.ball_size_found == 4687
        and sanov.is_free_to_radius
        and sanov.ball_size_found == word_counts(3, 8)[1] == 13121
        and elapsed < 10.0
    )
    announce(
        capsys,
        2,
        "freeness at desk scale",
        ok,
        f"4687 and 13121 distinct products, {elapsed:.2f}s < 10s",
    )


def test_criterion_3_formula_identity_suite(capsys):
    started = time.perf_counter()
    ok = True
    for q in (2, 3, 5, 9, 13):
        for n in range(1, 13):
            closed = harish_chandra(q, n)
            ok &= abs(harish_chandra_boundary_sum(q, n) - closed) <= 1e-12 * closed

            counts = [word_counts(q, k)[0] for k in range(n + 1)]
            weighted = sum(
                c * harish_chandra(q, k) for k, c in enumerate(counts)
            ) / sum(counts)
            ok &= abs(regular_norm(q, n, "ball") - weighted) <= 1e-12

            series = 1 + 2 * sum(q**k for k in range(n)) * q ** (-n)
            route_a = 1 / series
            route_b = (q - 1) / (q + 1 - 2 / q**n)
            ok &= abs(route_a - route_b) <= 1e-14 * route_a
            ok &= abs(c_factor(q, n) - route_a) <= 1e-14 * route_a

            if q % 2 == 1:
                sup = hecke_sup(q, n)
                at_edge = hecke_polynomial(q, n)(2 * math.sqrt(q))
                exact = closed * (q + 1) * q ** (n - 1)
                ok &= abs(sup - at_edge) <= 1e-9 * exact
                ok &= abs(sup - exact) <= 1e-9 * exact
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    announce(
        capsys,
        3,
        "formula identity suite",
        ok,
        f"q in (2,3,5,9,13), n <= 12, {elapsed:.2f}s < 5s",
    )


def test_criterion_4_ramanujan_inclusion(capsys):
    started = time.perf_counter()
    report = verify_ramanujan(5, 24)
    block = koopman_block(build_generator_set(5), 1)
    elapsed = time.perf_counter() - started
    minus_two_fifths = Fraction(-2, 5)
    degree_one_exact = all(
        block.matrix[i][j] == (minus_two_fifths if i == j else 0)
        for i in range(3)
        for j in range(3)
    )
    ok = (
        report.passed
        and report.global_max_abs <= 2 * math.sqrt(5) + 1e-8
        and degree_one_exact
        and report.global_max_abs > RAMANUJAN_FLOOR_P5_L24
        and elapsed < 60.0
    )
    announce(
        capsys,
        4,
        "tempered eigenvalue inclusion",
        ok,
        f"max |eig| {report.global_max_abs:.6f} in bound, floor "
        f"{RAMANUJAN_FLOOR_P5_L24} held, {elapsed:.2f}s < 60s",
    )


def test_criterion_5_sphere_discrepancy_sandwich(capsys):
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for shape in ("sphere", "ball"):
            upper = lps_discrepancy(5, n, shape)
            estimates = [
                sphere_discrepancy_estimate(5, n, shape, l) for l in (8, 16, 24)
            ]
            ok &= all(e <= upper + 1e-9 for e in estimates)
            ok &= all(b >= a for a, b in zip(estimates, estimates[1:]))
    ok &= abs(lps_discrepancy(5, 1, "sphere") - 2 * math.sqrt(5) / 6) <= 1e-12
    ok &= abs(lps_discrepancy(5, 2, "sphere") - 7 / 15) <= 1e-12
    ok &= abs(lps_discrepancy(5, 3, "sphere") - 3 * 5 ** (-1.5)) <= 1e-12
    elapsed = time.perf_counter() - started
    announce(
        capsys,
        5,
        "sphere discrepancy sandwich",
        ok,
        f"n in (1,2,3), both shapes, l_max 24, {elapsed:.2f}s",
    )


def test_criterion_6_torus_sandwich(capsys):
    started = time.perf_counter()
    sanov = build_torus_genset("sanov")
    ok = True
    for shape, constant in (
        ("sphere", math.sqrt(3) / 2),
        ("ball", (1 + 2 * math.sqrt(3)) / 5),
    ):
        table = torus_discrepancy_check(sanov, 1, shape, [64, 128, 256])
        ok &= table.passed
        ok &= abs(table.theoretical - constant) <= 1e-9
        ok &= all(r.estimate <= table.theoretical + 1e-8 for r in table.rows)
    rank_one = build_torus_genset("rank-one")
    op = window_operator(rank_one, 1, "sphere", 256)
    estimate = norm_certificate(op).estimate
    ok &= 0.95 <= estimate <= 1.0 + 1e-8
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    announce(
        capsys,
        6,
        "torus sandwich",
        ok,
        f"rank-one window estimate {estimate:.6f} >= 0.95, {elapsed:.2f}s < 120s",
    )


def test_criterion_7_degenerate_value_one(capsys):
    ok = all(
        regular_norm(1, n, shape) == 1.0
        for n in range(11)
        for shape in ("sphere", "ball")
    )
    announce(capsys, 7, "degenerate q=1 norms", ok, "all 1.0 for n <= 10")


def _cli_command():
    """The installed `lps` script, else `python -m lps.cli` with `src` importable."""
    found = shutil.which("lps")
    if found:
        return [found], None
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "lps.cli"], env


def test_criterion_8_cli_determinism(capsys, tmp_path):
    base, env = _cli_command()
    report_flags = [
        "report",
        "--l-max", "3",
        "--windows", "4,8",
        "--radius", "3",
        "--sanov-radius", "4",
        "--seed", "42",
    ]
    first = subprocess.run(base + report_flags, capture_output=True, text=True, env=env)
    second = subprocess.run(base + report_flags, capture_output=True, text=True, env=env)
    identical = first.stdout == second.stdout and first.stdout
    passing = first.returncode == 0 and second.returncode == 0

    commuting = tmp_path / "commuting.json"
    commuting.write_text(json.dumps([[[1, 1], [0, 1]], [[1, 2], [0, 1]]]))
    failing = subprocess.run(
        base + ["verify", "freeness", "--generators", str(commuting), "--radius", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    malformed = subprocess.run(
        base + ["generators", "--prime", "5", "--format", "xml"],
        capture_output=True,
        text=True,
        env=env,
    )
    ok = bool(
        identical
        and passing
        and failing.returncode == 1
        and malformed.returncode == 2
    )
    announce(
        capsys,
        8,
        "cli determinism and exit codes",
        ok,
        f"byte-identical report, exits 0/{failing.returncode}/{malformed.returncode}",
    )
