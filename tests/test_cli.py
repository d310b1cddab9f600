"""Unit tests for the command-line interface and its deterministic output."""

import dataclasses
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lps.cli
import lps.formulas
import lps.quaternions
import lps.sphere
import lps.torus
from conftest import traced_peak
from lps.cli import RAMANUJAN_FLOOR_P5_L24, _nine_down, main, stable_dumps
from lps.quaternions import LipschitzQuaternion
from lps.sphere import sphere_discrepancy_profile
from test_formulas import wrong_hecke_polynomial


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_envelope(out: str) -> dict:
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_stable_dumps_formatting():
    blob = stable_dumps({"b": 0.8660254037844386, "a": [1, 2.5]})
    assert blob == '{"a":[1,2.5],"b":0.866025404}'
    assert stable_dumps({"x": 7.0}) == '{"x":7.0}'


def test_nine_down_rounds_toward_zero():
    assert stable_dumps(_nine_down(0.8382871739)) == "0.838287173"
    assert stable_dumps(_nine_down(0.8382871731)) == "0.838287173"
    assert _nine_down(1.0) == 1.0


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_nine_down_never_prints_above_its_input(x):
    shown = Decimal(stable_dumps(_nine_down(x)))
    assert shown <= Decimal(x) < shown + Decimal(x) * Decimal("1e-8")


def test_regression_floor_constant():
    assert RAMANUJAN_FLOOR_P5_L24 == 4.34


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["generators"]) == 2
    assert main(["generators", "--prime", "5", "--format", "xml"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_generators_envelope(capsys):
    code, out, _ = run_cli(capsys, ["generators", "--prime", "5"])
    assert code == 0
    env = parse_envelope(out)
    assert env["command"] == "generators"
    assert env["parameters"] == {"prime": 5}
    assert len(env["results"]["generators"]) == 6
    assert all(c["passed"] for c in env["checks"])
    assert "elapsed_ms" not in env
    record = env["results"]["generators"][0]
    assert set(record) >= {"index", "quaternion", "matrix", "inverse_index"}


def test_generators_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, ["generators", "--prime", "13"])
    _, second, _ = run_cli(capsys, ["generators", "--prime", "13"])
    assert first == second


def test_generators_rejects_non_split_prime(capsys):
    code, out, err = run_cli(capsys, ["generators", "--prime", "7"])
    assert code == 2
    assert not out
    assert "error" in err


def test_generators_count_every_norm_p_quaternion(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["generators", "--prime", "13"])
    assert code == 0
    assert parse_envelope(out)["checks"] == [
        {"name": "p13_norm_p_quaternion_count", "passed": True, "measured": 112.0, "bound": 112.0}
    ]
    # a count that misses a quaternion fails the record, not the run
    everything = lps.quaternions.quaternions_of_norm
    monkeypatch.setattr(lps.cli, "quaternions_of_norm", lambda n: everything(n)[1:])
    code, out, _ = run_cli(capsys, ["generators", "--prime", "13"])
    assert code == 1
    assert parse_envelope(out)["checks"][0]["measured"] == 111.0


def test_generators_wrong_representative_count_is_an_internal_fault(capsys, monkeypatch):
    everything, lost = lps.quaternions.quaternions_of_norm, LipschitzQuaternion(1, 2, 0, 0)
    monkeypatch.setattr(
        lps.quaternions, "quaternions_of_norm", lambda n: [q for q in everything(n) if q != lost]
    )
    code, out, err = run_cli(capsys, ["generators", "--prime", "5"])
    assert code == 1
    assert not out
    assert err.startswith("error: expected 6 norm-5 representatives, found 5")


def test_generators_csv(capsys):
    code, out, _ = run_cli(capsys, ["generators", "--prime", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 7


def test_generators_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(capsys, ["generators", "--prime", "5"])
    target = tmp_path / "gens.json"
    code, out, _ = run_cli(capsys, ["generators", "--prime", "5", "--out", str(target)])
    assert code == 0
    assert not out
    assert target.read_text() == stdout_text


def test_norms_table(capsys):
    code, out, _ = run_cli(capsys, ["norms", "--q", "3", "--n-max", "4"])
    assert code == 0
    env = parse_envelope(out)
    rows = env["results"]["rows"]
    assert len(rows) == 5
    assert rows[2]["sphere_count"] == 12 and rows[2]["ball_count"] == 17
    assert rows[1]["ball_norm"] == pytest.approx(0.892820323, abs=1e-9)


def test_norms_degenerate_q_has_no_c_factor(capsys):
    code, out, _ = run_cli(capsys, ["norms", "--q", "1", "--n-max", "3"])
    assert code == 0
    env = parse_envelope(out)
    assert all(r["c_factor"] is None for r in env["results"]["rows"])
    assert all(r["sphere_norm"] == 1 for r in env["results"]["rows"])


def test_verify_ramanujan_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "ramanujan", "--prime", "5", "--l-max", "4"])
    assert code == 0
    env = parse_envelope(out)
    assert env["results"]["global_max_abs"] <= env["results"]["bound"] + 1e-8
    assert len(env["results"]["per_degree"]) == 4
    names = {c["name"] for c in env["checks"]}
    assert "eigenvalues_within_tempered_bound" in names
    assert "degree1_block_is_minus_two_fifths_identity" in names


def test_verify_ramanujan_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "ramanujan", "--prime", "5", "--l-max", "2", "--timings"]
    )
    assert code == 0
    env = parse_envelope(out)
    assert env["elapsed_ms"] > 0


def test_verify_ramanujan_diagnostics_only_with_timings(capsys):
    argv = ["verify", "ramanujan", "--prime", "13", "--l-max", "4"]
    _, plain, _ = run_cli(capsys, argv)
    assert "diagnostics" not in parse_envelope(plain)
    _, timed, _ = run_cli(capsys, argv + ["--timings"])
    env = parse_envelope(timed)
    diagnostics = env.pop("diagnostics")
    # one term per orbit of <c> and sigma: the two fixed points in one
    # diagonal term, the three 4-orbits in two frontiers
    assert diagnostics["frontiers"] == 3
    assert [d["degree"] for d in diagnostics["per_degree"]] == [1, 2, 3, 4]
    for d in diagnostics["per_degree"]:
        assert 0 <= d["trace_defect"] <= lps.sphere.TRACE_TOLERANCE
        assert 0 <= d["square_trace_defect"] <= lps.sphere.TRACE_TOLERANCE
        # the residue classes mod 4 that the exact checks ran on; at degree
        # 1 the fourth is empty
        assert len(d["pieces"]) == 4
        assert sum(d["pieces"]) == 2 * d["degree"] + 1
        # stage timings of each degree's block and spectrum
        assert isinstance(d["block_ms"], float) and d["block_ms"] >= 0
        assert isinstance(d["spectrum_ms"], float) and d["spectrum_ms"] >= 0
    env.pop("elapsed_ms")
    assert stable_dumps(env) + "\n" == plain


def test_verify_freeness_rotations(capsys):
    code, out, _ = run_cli(capsys, ["verify", "freeness", "--prime", "5", "--radius", "3"])
    assert code == 0
    env = parse_envelope(out)
    assert env["results"]["ball_size_found"] == 187


def test_verify_freeness_preset(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "freeness", "--generators", "sanov", "--radius", "4"]
    )
    assert code == 0


def test_verify_freeness_induced_failure(tmp_path, capsys):
    commuting = tmp_path / "commuting.json"
    commuting.write_text(json.dumps([[[1, 1], [0, 1]], [[1, 2], [0, 1]]]))
    code, out, _ = run_cli(
        capsys,
        ["verify", "freeness", "--generators", str(commuting), "--radius", "3"],
    )
    assert code == 1
    env = parse_envelope(out)
    assert not all(c["passed"] for c in env["checks"])
    assert env["results"]["first_collision"] is not None
    # Sanov with [[1, 1], [0, 1]] added: that letter squared is Sanov's first
    sanov_plus = tmp_path / "sanov-plus.json"
    sanov_plus.write_text(json.dumps([[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[1, 1], [0, 1]]]))
    code, out, _ = run_cli(
        capsys,
        ["verify", "freeness", "--generators", str(sanov_plus), "--radius", "2"],
    )
    assert code == 1
    results = parse_envelope(out)["results"]
    assert (results["ball_size_found"], results["ball_size_expected"]) == (29, 37)
    assert results["first_collision"] == [[2], [0, 5]]


def test_freeness_diagnostics_only_with_timings(capsys, tmp_path):
    commuting = tmp_path / "commuting.json"
    commuting.write_text(json.dumps([[[1, 1], [0, 1]], [[1, 2], [0, 1]]]))
    for selector, radius, keys, ties, stable in (
        (["--prime", "5"], "5", 3, True, False),
        (["--generators", "sanov"], "4", 1, False, False),
        (["--generators", str(commuting)], "3", 1, False, True),
    ):
        argv = ["verify", "freeness", *selector, "--radius", radius]
        _, plain, _ = run_cli(capsys, argv)
        assert "diagnostics" not in parse_envelope(plain)
        _, timed, _ = run_cli(capsys, argv + ["--timings"])
        env = parse_envelope(timed)
        walk = env.pop("diagnostics")
        env.pop("elapsed_ms")
        assert stable_dumps(env) + "\n" == plain
        assert len(walk["words_per_level"]) == int(radius) + 1
        assert sum(walk["words_per_level"]) == env["results"]["ball_size_expected"]
        assert walk["keys_per_product"] == keys
        assert (walk["tie_rows"] > 0) == ties
        assert walk["stable_lexsort"] == stable
        assert walk["walk_ms"] >= 0 and walk["sort_ms"] >= 0


def test_verify_freeness_budget_exhaustion_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "freeness", "--prime", "5", "--radius", "6", "--budget", "50"],
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "content",
    [[[[1.5, 2], [0, 1]]], [5]],
    ids=["float", "number"],
)
@pytest.mark.parametrize(
    "argv",
    [["verify", "torus", "--windows", "4"], ["verify", "freeness", "--radius", "2"]],
    ids=["torus", "freeness"],
)
def test_malformed_generator_file_is_usage_error(tmp_path, capsys, content, argv):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, argv + ["--generators", str(path)])
    assert code == 2
    assert err.startswith("error: not a 2x2 matrix of integers")
    assert out == ""


@pytest.mark.parametrize(
    "matrices, argv",
    [
        # length-2 products reach 2**80, past int64 before any window bound
        ([[[1, 2**40], [0, 1]], [[1, 0], [2**40, 1]]], ["--n", "2", "--windows", "4"]),
        # the window bound 3 * (b + 1) = 2**64 + 5 wraps to 5 in int64
        ([[[1, (2**64 + 2) // 3], [0, 1]], [[1, 0], [2, 1]]], ["--windows", "3"]),
    ],
    ids=["products", "window-bound"],
)
def test_torus_overflow_is_usage_error(tmp_path, capsys, matrices, argv):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(matrices))
    code, out, err = run_cli(capsys, ["verify", "torus", "--generators", str(path)] + argv)
    assert code == 2
    assert err.startswith("error: window images would overflow")
    assert out == ""


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run_cli(capsys, ["generators", "--prime", "5", "--out", str(target)])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""
    assert not target.exists()


def test_verify_identities(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "identities", "--q-list", "2,3", "--n-max", "6"]
    )
    assert code == 0
    env = parse_envelope(out)
    assert env["checks"] and all(c["passed"] for c in env["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--q-list", ","],
        ["verify", "identities", "--n-max", "0"],
        ["norms", "--q", "3", "--n-max", "-1"],
        ["verify", "freeness", "--prime", "5", "--radius", "0"],
        ["verify", "freeness", "--generators", "sanov", "--radius", "0"],
        ["report", "--radius", "0"],
        ["report", "--sanov-radius", "0"],
    ],
    ids=["no-q", "no-n", "no-rows", "freeness-r0", "sanov-freeness-r0", "report-r0", "report-sanov-r0"],
)
def test_vacuous_verification_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--seed", "-1"],
        # rank-one settles every window by its diagonal, so no solve would
        # ever read the seed
        ["verify", "torus", "--generators", "rank-one", "--seed", "-1"],
    ],
    ids=["report", "verify-torus"],
)
def test_negative_seed_is_refused_when_parsed(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "argument --seed: not a non-negative integer: '-1'" in err


def test_seed_past_64_bits_reaches_the_solve(capsys):
    def residuals(seed):
        argv = ["verify", "torus", "--windows", "8", "--seed", str(seed), "--timings"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        tables = parse_envelope(out)["diagnostics"]["tables"]
        return [row["ritz_residual"] for table in tables for row in table["rows"]]

    assert residuals(5) != residuals(2**64 + 5)


def test_verify_identities_reaches_n_30(capsys):
    # the edge value of P_n used to come from float Horner, which failed at q=3, n=24
    code, out, err = run_cli(capsys, ["verify", "identities", "--n-max", "30"])
    assert code == 0 and err == ""
    assert all(c["passed"] for c in parse_envelope(out)["checks"])


def test_verify_identities_runs_hecke_sup_at_even_q(capsys, monkeypatch):
    calls = []

    def recorded(q, n):
        calls.append((q, n))
        return lps.formulas.hecke_sup(q, n)

    monkeypatch.setattr(lps.cli, "hecke_sup", recorded)
    code, out, _ = run_cli(capsys, ["verify", "identities", "--q-list", "2", "--n-max", "12"])
    assert code == 0 and all(c["passed"] for c in parse_envelope(out)["checks"])
    assert calls == [(2, n) for n in range(1, 13)]


def test_failed_cross_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(lps.formulas, "hecke_polynomial", wrong_hecke_polynomial)
    code, out, err = run_cli(capsys, ["verify", "identities", "--q-list", "5", "--n-max", "3"])
    assert code == 1
    assert err.startswith("error:") and "Chebyshev" in err
    assert "Traceback" not in err
    assert out == ""


def test_unconverged_norm_solve_exits_one(capsys, monkeypatch, cold_torus_cache):
    monkeypatch.setattr(lps.torus, "LANCZOS_MAX_STEPS", 2)
    code, out, err = run_cli(capsys, ["verify", "torus", "--windows", "8"])
    assert code == 1
    assert err.startswith("error:") and "Lanczos" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ramanujan", "--prime", "5", "--tol", "100"],
        ["verify", "torus", "--tol", "0.5"],
        ["report", "--tol", "1e-3"],
    ],
    ids=["ramanujan", "torus", "report"],
)
def test_no_command_takes_a_tolerance(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


def test_verify_torus_small_windows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "torus", "--windows", "4,8", "--shape", "sphere"],
    )
    assert code == 0
    env = parse_envelope(out)
    names = [c["name"] for c in env["checks"]]
    assert any("below_theory" in n for n in names)
    assert any("nondecreasing" in n for n in names)


RANK_ONE_LADDER = ["verify", "torus", "--generators", "rank-one", "--windows", "32,64,128,256"]


def test_rank_one_ladder_is_nondecreasing(capsys):
    # the window norm is exactly 1 at every radius, so no estimate may fall
    code, out, _ = run_cli(capsys, RANK_ONE_LADDER)
    assert code == 0
    env = parse_envelope(out)
    ladder = [c for c in env["checks"] if c["name"].endswith("_nondecreasing")]
    # from the second window on, each against the previous estimate less the slack
    assert len(ladder) == 6 and all(c["passed"] for c in ladder)
    assert all(c["bound"] == 1.0 - lps.torus.MONOTONICITY_TOLERANCE for c in ladder)
    assert all(r["estimate"] == 1.0 for t in env["results"]["tables"] for r in t["rows"])


# Two sets that are not free, so the closed form of the free group does
# not bound their norms: a commuting pair, whose amenable group has norm 1,
# and Sanov with [[1, 1], [0, 1]] added, whose square is Sanov's first.
NOT_FREE = {
    "commuting": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]],
    "sanov-plus": [[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[1, 1], [0, 1]]],
}


@pytest.mark.parametrize("name", sorted(NOT_FREE))
def test_verify_torus_fails_on_sets_that_are_not_free(capsys, tmp_path, cold_torus_cache, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(NOT_FREE[name]))
    argv = ["verify", "torus", "--generators", str(path), "--shape", "sphere"]
    code, out, _ = run_cli(capsys, argv + ["--windows", "16,64,128", "--timings"])
    assert code == 1
    env = parse_envelope(out)
    below = [c for c in env["checks"] if c["name"].endswith("_below_theory")]
    ladder = [c for c in env["checks"] if c["name"].endswith("_nondecreasing")]
    assert [c["name"] for c in below] == [f"sphere_R{r}_below_theory" for r in (16, 64, 128)]
    # every window lies far above the closed form, yet the ladder climbs
    assert all(not c["passed"] and c["measured"] - c["bound"] >= 0.09 for c in below)
    assert len(ladder) == 2 and all(c["passed"] for c in ladder)
    (table,) = env["diagnostics"]["tables"]
    for row in table["rows"]:
        if name == "commuting":
            # both words fix +-(0, 1), so the diagonal settles every window
            # at 1 before it is built, and the failing rows have no size
            assert row["dimension"] is row["orbits"] is row["symmetry_order"] is None
            assert row["entries"] is None
            assert row["matvecs"] == 0
        else:
            assert row["dimension"] > 0 and row["matvecs"] > 0


def test_verify_torus_same_seed_is_byte_identical(capsys):
    argv = ["verify", "torus", "--n", "2", "--windows", "8,16", "--seed", "3"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_torus_diagnostics_only_with_timings(capsys):
    argv = ["verify", "torus", "--windows", "8,16"]
    _, plain, _ = run_cli(capsys, argv)
    assert "diagnostics" not in parse_envelope(plain)
    _, timed, _ = run_cli(capsys, argv + ["--timings"])
    env = parse_envelope(timed)
    tables = env.pop("diagnostics")["tables"]
    env.pop("elapsed_ms")
    assert stable_dumps(env) + "\n" == plain
    assert [t["shape"] for t in tables] == ["sphere", "ball"]
    for table in tables:
        assert [r["radius"] for r in table["rows"]] == [8, 16]
        # every Sanov sphere window is built and solved; the n = 1 ball
        # windows are derived from the sphere's Ritz vectors with no solve
        solved = table["shape"] == "sphere"
        for row in table["rows"]:
            assert row["dimension"] > 0
            assert row["start"] == {"sphere": "seeded", "ball": "sphere"}[table["shape"]]
            # one [orbits, steps] pair per class mod 2: Sanov has two
            assert len(row["blocks"]) == 2
            assert sum(orbits for orbits, _ in row["blocks"]) == row["orbits"]
            if solved:
                # no breakdown: each block's solve stops at the end of a block
                # of tests or, at R 8, at the dimension of its block; one
                # more product per block gives its Ritz residual
                for orbits, steps in row["blocks"]:
                    assert steps > 0 and (steps % 8 == 0 or steps == orbits <= 16)
                assert row["matvecs"] == sum(steps + 1 for _, steps in row["blocks"])
                assert min(row["window_ms"], row["solve_ms"]) >= 0
                # K's entries on and above the diagonal, within the blocks
                assert 0 < row["entries"] <= sum(o * (o + 1) // 2 for o, _ in row["blocks"])
            else:
                assert row["matvecs"] == 0
                # the derived ball's K is never built
                assert row["entries"] is None
                assert [steps for _, steps in row["blocks"]] == [0, 0]
                assert row["window_ms"] is None and row["solve_ms"] is None
            assert row["certificate_ms"] >= 0
            assert "lanczos_steps_run" not in row and "tridiagonal_solves" not in row
            # Sanov's swap and diag(1, -1) leave a quarter of the rows, and fewer
            assert row["symmetry_order"] == 4
            assert row["dimension"] / 4 <= row["orbits"] < row["dimension"] / 3
            assert 0 <= row["ritz_residual"] < 1e-6
            assert abs(row["ritz_minus_certificate"]) <= 1e-12


def test_ball_solve_warm_starts_from_the_sphere(capsys, cold_torus_cache):
    # Lanczos steps plus the residual's product, summed over the two
    # classes mod 2: each block of the n = 2 ball solve starts from the
    # sphere's Ritz vector on that block, and the n = 1 ball rows are
    # derived from the sphere rows with no solve
    for n, matvecs in (
        (2, {"sphere": [58, 66, 82], "ball": [42, 50, 50]}),
        (1, {"sphere": [90, 106, 130], "ball": [0, 0, 0]}),
    ):
        argv = ["verify", "torus", "--n", str(n), "--windows", "64,128,256", "--timings"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        tables = parse_envelope(out)["diagnostics"]["tables"]
        assert {t["shape"]: [r["matvecs"] for r in t["rows"]] for t in tables} == matvecs
        # no block of the warm-started ball takes more steps than the
        # sphere's block
        sphere, ball = ([r["blocks"] for r in t["rows"]] for t in tables)
        for s_blocks, b_blocks in zip(sphere, ball):
            assert all(b[1] <= s[1] for s, b in zip(s_blocks, b_blocks))
        starts = {t["shape"]: [r["start"] for r in t["rows"]] for t in tables}
        assert starts == {"sphere": ["seeded"] * 3, "ball": ["sphere"] * 3}


def test_report_torus_holds_one_cycle_of_lanczos_basis(cold_torus_cache):
    # The default report's torus envelope, built cold.  Its peak is shared
    # about equally by the R 256 window build, the solve and the
    # certificate; with every Lanczos basis vector of the n 1 sphere R 256
    # solve held to the end, the solve set it at 4.9 MB.
    env, peak = traced_peak(lambda: lps.cli._report_torus([64, 128, 256], 42))
    assert env.checks and all(check.passed for check in env.checks)
    assert peak < 3.8 * 2**20


@pytest.mark.parametrize("n", [1, 2])
def test_ball_alone_prints_what_both_shapes_print(capsys, cold_torus_cache, n):
    argv = ["verify", "torus", "--n", str(n), "--windows", "16,32,64"]
    code, out, _ = run_cli(capsys, argv + ["--shape", "ball"])
    assert code == 0
    alone = parse_envelope(out)
    lps.torus.clear_caches()
    code, out, _ = run_cli(capsys, argv + ["--shape", "both"])
    assert code == 0
    both = parse_envelope(out)
    assert stable_dumps(alone["results"]["tables"]) == stable_dumps(both["results"]["tables"][1:])
    ball_checks = [c for c in both["checks"] if c["name"].startswith("ball_")]
    assert stable_dumps(alone["checks"]) == stable_dumps(ball_checks)


def test_verify_torus_rejects_bad_preset(capsys):
    code, _, err = run_cli(
        capsys, ["verify", "torus", "--generators", "cube", "--windows", "4,8"]
    )
    assert code == 2
    assert "error" in err


def test_sphere_discrepancy_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sphere-discrepancy", "--prime", "5", "--n", "1", "--shape", "sphere", "--l-max", "6"],
    )
    assert code == 0
    env = parse_envelope(out)
    running = env["results"]["running"]
    values = [row["estimate"] for row in running]
    assert values == sorted(values)
    assert [row["l_max"] for row in running] == list(range(1, 7))
    profile = sphere_discrepancy_profile(5, 1, "sphere", 6)
    assert values == [float(f"{v:.9g}") for v in profile]
    assert env["results"]["estimate"] == values[-1]
    assert [c["name"] for c in env["checks"]] == ["estimate_below_closed_form"]
    assert all(c["passed"] for c in env["checks"])


def test_sphere_discrepancy_rejects_l_max_zero(capsys):
    code, out, err = run_cli(
        capsys,
        ["sphere-discrepancy", "--prime", "5", "--n", "1", "--shape", "sphere", "--l-max", "0"],
    )
    assert code == 2
    assert not out
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_format_only_on_tabular_commands(capsys):
    assert main(["verify", "ramanujan", "--prime", "5", "--l-max", "2", "--format", "csv"]) == 2
    assert main(["report", "--format", "json"]) == 2
    argv = ["sphere-discrepancy", "--prime", "5", "--n", "1", "--shape", "sphere"]
    assert main(argv + ["--format", "csv"]) == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, ["norms", "--q", "3", "--n-max", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "n,sphere_count,ball_count,sphere_norm,ball_norm,c_factor"


REPORT_FLAGS = [
    "report",
    "--l-max", "3",
    "--windows", "4,8",
    "--radius", "3",
    "--sanov-radius", "4",
]


def test_report_envelopes_and_determinism(capsys):
    code, first, _ = run_cli(capsys, list(REPORT_FLAGS))
    assert code == 0
    code2, second, _ = run_cli(capsys, list(REPORT_FLAGS))
    assert code2 == 0
    assert first == second, "byte-identical reruns"
    envelopes = [json.loads(line) for line in first.splitlines() if line]
    commands = [e["command"] for e in envelopes]
    assert commands == [
        "report.generators",
        "report.freeness",
        "report.identities",
        "report.ramanujan",
        "report.sphere-discrepancy",
        "report.torus",
        "report.degenerate",
        "report.determinism",
    ]
    for env in envelopes:
        assert all(c["passed"] for c in env["checks"]), env["command"]
        assert "elapsed_ms" not in env and "diagnostics" not in env
    assert envelopes[6]["results"] == {"worst_deviation_from_one": 0.0}


def test_report_timings_cover_every_envelope(capsys):
    code, plain, _ = run_cli(capsys, list(REPORT_FLAGS))
    assert code == 0
    code, timed, _ = run_cli(capsys, list(REPORT_FLAGS) + ["--timings"])
    assert code == 0
    envelopes = [json.loads(line) for line in timed.splitlines() if line]
    assert len(envelopes) == 8
    assert all(isinstance(env.pop("elapsed_ms"), float) for env in envelopes)
    # the freeness, ramanujan and torus envelopes carry diagnostics, the others none
    diagnostics = {env["command"]: env.pop("diagnostics", None) for env in envelopes}
    carrying = [command for command, d in diagnostics.items() if d is not None]
    assert carrying == ["report.freeness", "report.ramanujan", "report.torus"]
    freeness = diagnostics["report.freeness"]
    assert freeness["p5"]["words_per_level"] == [1, 6, 30, 150]
    assert freeness["sanov"]["words_per_level"] == [1, 4, 12, 36, 108]
    assert (freeness["p5"]["keys_per_product"], freeness["sanov"]["keys_per_product"]) == (2, 1)
    assert not freeness["p5"]["stable_lexsort"] and not freeness["sanov"]["stable_lexsort"]
    torus = diagnostics["report.torus"]
    assert torus["rank_one"]["matvecs"] == 0 and len(torus["tables"]) == 2
    assert torus["rank_one"]["start"] is None
    # the diagonal settled the rank-one window before it was built, so it
    # has no size, orbit or entry count, group order or build and solve times
    for key in ("dimension", "orbits", "entries", "symmetry_order", "window_ms", "solve_ms"):
        assert torus["rank_one"][key] is None, key
    assert torus["rank_one"]["certificate_ms"] >= 0
    ramanujan = diagnostics["report.ramanujan"]
    assert ramanujan["frontiers"] == 2
    assert [d["degree"] for d in ramanujan["per_degree"]] == [1, 2, 3]
    assert all(d["block_ms"] >= 0 and d["spectrum_ms"] >= 0 for d in ramanujan["per_degree"])
    # without the timings the two runs print the same bytes
    assert "".join(stable_dumps(env) + "\n" for env in envelopes) == plain


def _report_envelopes(capsys, extra=()):
    code, out, _ = run_cli(capsys, list(REPORT_FLAGS) + list(extra))
    return code, {e["command"]: e for e in map(json.loads, out.splitlines())}


def test_report_ramanujan_is_verify_ramanujan(capsys):
    _, report = _report_envelopes(capsys)
    code, out, _ = run_cli(capsys, ["verify", "ramanujan", "--prime", "5", "--l-max", "3"])
    assert code == 0
    standalone = parse_envelope(out)
    for key in ("parameters", "results", "checks"):
        assert report["report.ramanujan"][key] == standalone[key]


def test_report_torus_sanov_is_verify_torus(capsys):
    _, report = _report_envelopes(capsys, ["--seed", "7"])
    code, out, _ = run_cli(
        capsys, ["verify", "torus", "--generators", "sanov", "--windows", "4,8", "--seed", "7"]
    )
    assert code == 0
    standalone = parse_envelope(out)
    torus = report["report.torus"]
    assert torus["parameters"] == standalone["parameters"]
    assert torus["results"]["tables"] == standalone["results"]["tables"]
    sanov_checks = [c for c in torus["checks"] if c["name"] != "rank_one_estimate_near_one"]
    assert sanov_checks == standalone["checks"]


def test_report_rank_one_needs_a_certificate_of_exactly_one(capsys, monkeypatch):
    _, report = _report_envelopes(capsys)
    assert report["report.torus"]["checks"][-1] == {
        "name": "rank_one_estimate_near_one", "passed": True, "measured": 1.0, "bound": 1.0
    }
    checked = lps.cli.torus_discrepancy_check

    def shaved(genset, n, shape, radii, seed):
        # a rank-one certificate 1e-12 below 1: near one, yet not exactly one
        table = checked(genset, n, shape, radii, seed=seed)
        if genset.q > 1:
            return table
        below = Fraction(1) - Fraction(1, 10**12)
        rows = tuple(
            dataclasses.replace(r, bound=dataclasses.replace(r.bound, certificate=below))
            for r in table.rows
        )
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(lps.cli, "torus_discrepancy_check", shaved)
    code, report = _report_envelopes(capsys)
    assert code == 1
    failed = [(e, c["name"]) for e, env in report.items() for c in env["checks"] if not c["passed"]]
    assert failed == [("report.torus", "rank_one_estimate_near_one")]
    # the estimate is read from the certificate, and printed rounded down
    assert report["report.torus"]["results"]["rank_one_estimate"] < 1.0


def test_report_rank_one_check_can_fail(capsys, monkeypatch, cold_torus_cache):
    # The hyperbolic cat map fixes no pair +-m, so its diagonal cannot
    # settle the window and the solve's certificate stays below 1.
    code, clean = _report_envelopes(capsys, ["--timings"])
    assert code == 0
    assert all(c["passed"] for env in clean.values() for c in env["checks"])
    monkeypatch.setitem(lps.torus.PRESETS, "rank-one", (((2, 1), (1, 1)),))
    code, report = _report_envelopes(capsys, ["--timings"])
    assert code == 1
    failed = [(e, c["name"]) for e, env in report.items() for c in env["checks"] if not c["passed"]]
    assert failed == [("report.torus", "rank_one_estimate_near_one")]
    assert report["report.torus"]["results"]["rank_one_estimate"] < 1.0
    assert report["report.torus"]["diagnostics"]["rank_one"]["matvecs"] > 0


def test_report_regression_floor_can_fail(capsys, monkeypatch):
    # The floor is checked from l_max 24 on, with no slack: one ulp above
    # the largest |eigenvalue| it must fail.
    code, clean = _report_envelopes(capsys, ["--l-max", "24"])
    assert code == 0
    assert all(c["passed"] for env in clean.values() for c in env["checks"])
    top = lps.sphere.verify_ramanujan(5, 24).global_max_abs
    monkeypatch.setattr(lps.cli, "RAMANUJAN_FLOOR_P5_L24", math.nextafter(top, math.inf))
    code, report = _report_envelopes(capsys, ["--l-max", "24"])
    assert code == 1
    failed = [(e, c["name"]) for e, env in report.items() for c in env["checks"] if not c["passed"]]
    assert failed == [("report.ramanujan", "spectra_fill_interval_regression_floor")]


def _below_theory_fault(monkeypatch, shape):
    """Lower the Sanov closed form of `shape` to just below the R 256 certificate - UPPER_TOLERANCE.

    The R 128 certificate lies more than 4e-3 lower, so it stays below.
    """
    sanov = lps.torus.build_torus_genset("sanov")
    top = lps.torus.torus_discrepancy_check(sanov, 1, shape, [256]).rows[0].bound.certificate
    lowered = float(top) - lps.torus.UPPER_TOLERANCE
    while Fraction(lowered + lps.torus.UPPER_TOLERANCE) >= top:
        lowered = math.nextafter(lowered, -math.inf)
    # the slack UPPER_TOLERANCE is crossed by a few ulps and no more
    assert top - Fraction(lowered + lps.torus.UPPER_TOLERANCE) < Fraction(1, 10**15)
    closed_form = lps.torus.regular_norm

    def lowered_closed_form(q, n, which):
        return lowered if (q, n, which) == (3, 1, shape) else closed_form(q, n, which)

    lps.torus.clear_caches()
    monkeypatch.setattr(lps.torus, "regular_norm", lowered_closed_form)


def _nondecreasing_fault(monkeypatch, shape):
    """Set the Sanov R 256 certificate of `shape` just over MONOTONICITY_TOLERANCE below R 128's.

    It is set where _window_certificate returns it: the n = 1 ball row is
    derived from the sphere's without norm_certificate.  A fallen sphere
    certificate moves the ball's derived from it by 4/5 as much, within
    the slack.
    """
    sanov = lps.torus.build_torus_genset("sanov")
    previous = lps.torus.torus_discrepancy_check(sanov, 1, shape, [128]).rows[0].estimate
    # one ulp past the slack
    fallen = math.nextafter(previous - lps.torus.MONOTONICITY_TOLERANCE, -math.inf)
    certify = lps.torus._window_certificate

    def fallen_certificate(genset, n, which, radius, seed):
        bound = certify(genset, n, which, radius, seed)
        if (genset.q, n, which, radius) != (3, 1, shape, 256):
            return bound
        return dataclasses.replace(bound, certificate=Fraction(fallen))

    # clear_caches still empties the memo underneath
    fallen_certificate.cache_clear = certify.cache_clear
    lps.torus.clear_caches()
    monkeypatch.setattr(lps.torus, "_window_certificate", fallen_certificate)


@pytest.mark.parametrize(
    "inject, shape, check",
    [
        (_below_theory_fault, "sphere", "below_theory"),
        (_below_theory_fault, "ball", "below_theory"),
        (_nondecreasing_fault, "sphere", "nondecreasing"),
        (_nondecreasing_fault, "ball", "nondecreasing"),
    ],
    ids=["sphere-below-theory", "ball-below-theory", "sphere-nondecreasing", "ball-nondecreasing"],
)
def test_report_torus_checks_can_fail(capsys, monkeypatch, cold_torus_cache, inject, shape, check):
    # The smallest fault past each check's slack flips that check alone.
    # The ball rows are derived from the sphere rows yet fail on their own.
    flags = ["--windows", "64,128,256", "--timings"]
    code, clean = _report_envelopes(capsys, flags)
    assert code == 0
    assert all(c["passed"] for env in clean.values() for c in env["checks"])
    inject(monkeypatch, shape)
    code, report = _report_envelopes(capsys, flags)
    assert code == 1
    failed = [(e, c["name"]) for e, env in report.items() for c in env["checks"] if not c["passed"]]
    assert failed == [("report.torus", f"{shape}_R256_{check}")]
    tables = report["report.torus"]["diagnostics"]["tables"]
    starts = {t["shape"]: [r["start"] for r in t["rows"]] for t in tables}
    assert starts == {"sphere": ["seeded"] * 3, "ball": ["sphere"] * 3}


def _tempered_fault(monkeypatch):
    """Push the top p = 5 eigenvalue one ulp past 2 sqrt(5) + RAMANUJAN_TOLERANCE.

    Only the tempered check sees it: the sphere rows, whose estimates it
    would also raise past their closed forms, read the spectra unchanged.
    """
    edge = 2.0 * math.sqrt(5) + lps.sphere.RAMANUJAN_TOLERANCE
    pushed = math.nextafter(edge, math.inf)
    verify, spectrum = lps.cli.verify_ramanujan, lps.sphere.block_spectrum

    def past_the_edge(block):
        eigs = spectrum(block)
        return lps.sphere.Spectrum(eigs[:-1] + (pushed,), eigs.trace_defects)

    def verify_past_the_edge(p, l_max):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lps.sphere, "block_spectrum", past_the_edge)
            return verify(p, l_max)

    monkeypatch.setattr(lps.cli, "verify_ramanujan", verify_past_the_edge)


def _degree1_fault(monkeypatch):
    """Raise the middle diagonal entry of the p = 5 degree-1 block by 1/5, one numerator unit.

    The check is exact, with no slack.  A diagonal change keeps the block
    self-adjoint for the binomial pairing, and the middle monomial is its
    own image under the flip J.  Every degree-1 piece is 1x1, and piece 1
    holds index 1.
    """
    koopman = lps.cli.koopman_block

    def perturbed(genset, degree):
        block = koopman(genset, degree)
        pieces = list(block.pieces)
        pieces[1] = pieces[1] + 1
        return dataclasses.replace(block, pieces=tuple(pieces))

    monkeypatch.setattr(lps.cli, "koopman_block", perturbed)


def _sphere_closed_form_fault(n, shape):
    """Lower the p = 5 closed form of (n, shape) to the largest float past the 1e-9 slack."""

    def inject(monkeypatch):
        estimate = lps.sphere.sphere_discrepancy_estimate(5, n, shape, 3)
        lowered = estimate - 1e-9
        while estimate <= lowered + 1e-9:
            lowered = math.nextafter(lowered, -math.inf)
        # one ulp higher, the slack would still cover the estimate
        assert estimate <= math.nextafter(lowered, math.inf) + 1e-9
        closed_form = lps.cli.lps_discrepancy

        def lowered_closed_form(p, m, which):
            return lowered if (p, m, which) == (5, n, shape) else closed_form(p, m, which)

        monkeypatch.setattr(lps.cli, "lps_discrepancy", lowered_closed_form)

    return inject


def _boundary_sum_fault(q):
    """Move the q, n = 12 boundary sum to the nearest float past the relative slack 1e-12."""

    def inject(monkeypatch):
        closed = lps.cli.harish_chandra(q, 12)

        def miss(summed):
            return abs(summed - closed) / abs(closed)

        summed = closed * (1 + 1e-12)
        while miss(summed) <= 1e-12:
            summed = math.nextafter(summed, math.inf)
        # one ulp closer, the slack would still cover the sum
        assert miss(math.nextafter(summed, -math.inf)) <= 1e-12
        boundary_sum = lps.cli.harish_chandra_boundary_sum

        def moved(at_q, n):
            return summed if (at_q, n) == (q, 12) else boundary_sum(at_q, n)

        monkeypatch.setattr(lps.cli, "harish_chandra_boundary_sum", moved)

    return inject


_CONTROLS = [
    (_tempered_fault, "report.ramanujan", "eigenvalues_within_tempered_bound"),
    (_degree1_fault, "report.ramanujan", "degree1_block_is_minus_two_fifths_identity"),
] + [
    (_sphere_closed_form_fault(n, shape), "report.sphere-discrepancy", f"{shape}_n{n}_below_closed_form")
    for n in (1, 2, 3)
    for shape in ("sphere", "ball")
] + [
    (_boundary_sum_fault(q), "report.identities", f"boundary_sum_matches_closed_form_q{q}")
    for q in (2, 3, 5, 9, 13)
]


@pytest.mark.parametrize(
    "inject, envelope, check", [pytest.param(*control, id=control[2]) for control in _CONTROLS]
)
def test_report_sphere_and_identity_checks_can_fail(capsys, monkeypatch, inject, envelope, check):
    # The smallest fault past each check's slack flips that check alone.
    code, clean = _report_envelopes(capsys)
    assert code == 0
    assert all(c["passed"] for env in clean.values() for c in env["checks"])
    inject(monkeypatch)
    code, report = _report_envelopes(capsys)
    assert code == 1
    failed = [(e, c["name"]) for e, env in report.items() for c in env["checks"] if not c["passed"]]
    assert failed == [(envelope, check)]


def test_report_determinism_fails_on_nan(capsys, monkeypatch):
    code, clean = _report_envelopes(capsys)
    assert code == 0
    assert [c["name"] for c in clean["report.determinism"]["checks"]] == ["no_nan_or_infinity"]

    degenerate = lps.cli._report_degenerate

    def with_nan():
        env = degenerate()
        env.results["injected"] = float("nan")
        return env

    monkeypatch.setattr(lps.cli, "_report_degenerate", with_nan)
    code, out, _ = run_cli(capsys, list(REPORT_FLAGS))
    assert code == 1
    envelopes = [json.loads(line) for line in out.splitlines()]
    failed = [
        (e["command"], c["name"]) for e in envelopes for c in e["checks"] if not c["passed"]
    ]
    assert failed == [("report.determinism", "no_nan_or_infinity")]
    assert envelopes[-1]["checks"][0]["measured"] == 1.0


# Each check name that `lps report` emits, as a pattern, and the test in
# this module that makes a check of that name read false.
_CHECK_CONTROLS = {
    r"p\d+_norm_p_quaternion_count": "test_generators_count_every_norm_p_quaternion",
    r"(p5|sanov)_ball_distinct": "test_verify_freeness_induced_failure",
    r"boundary_sum_matches_closed_form_q\d+": "test_report_sphere_and_identity_checks_can_fail",
    r"eigenvalues_within_tempered_bound": "test_report_sphere_and_identity_checks_can_fail",
    r"degree1_block_is_minus_two_fifths_identity": "test_report_sphere_and_identity_checks_can_fail",
    r"spectra_fill_interval_regression_floor": "test_report_regression_floor_can_fail",
    r"(sphere|ball)_n\d+_below_closed_form": "test_report_sphere_and_identity_checks_can_fail",
    r"(sphere|ball)_R\d+_(below_theory|nondecreasing)": "test_report_torus_checks_can_fail",
    r"rank_one_estimate_near_one": "test_report_rank_one_check_can_fail",
    r"no_nan_or_infinity": "test_report_determinism_fails_on_nan",
}


def test_every_report_check_has_a_control(capsys):
    names = set()
    for argv in (["report"], list(REPORT_FLAGS)):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        names |= {c["name"] for e in map(json.loads, out.splitlines()) for c in e["checks"]}
    unmatched = [n for n in sorted(names) if not any(re.fullmatch(p, n) for p in _CHECK_CONTROLS)]
    assert unmatched == []
    # no pattern is stale, and each names a test that exists
    for pattern, test in _CHECK_CONTROLS.items():
        assert any(re.fullmatch(pattern, n) for n in names), pattern
        assert callable(globals().get(test)), test
