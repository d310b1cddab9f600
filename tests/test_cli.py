"""Unit tests for the command-line interface and its deterministic output."""

import json
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lps.cli
import lps.formulas
from lps.cli import RAMANUJAN_FLOOR_P5_L24, _nine_down, main, stable_dumps
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


def test_verify_identities_reaches_n_30(capsys):
    # the edge value of P_n used to come from float Horner, which failed at q=3, n=24
    code, out, err = run_cli(capsys, ["verify", "identities", "--n-max", "30"])
    assert code == 0 and err == ""
    assert all(c["passed"] for c in parse_envelope(out)["checks"])


def test_failed_cross_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(lps.formulas, "hecke_polynomial", wrong_hecke_polynomial)
    code, out, err = run_cli(capsys, ["verify", "identities", "--q-list", "5", "--n-max", "3"])
    assert code == 1
    assert err.startswith("error:") and "Chebyshev" in err
    assert "Traceback" not in err
    assert out == ""


def test_unconverged_norm_solve_exits_one(capsys, monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
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
    assert len(ladder) == 8 and all(c["passed"] for c in ladder)
    assert all(r["estimate"] == 1.0 for t in env["results"]["tables"] for r in t["rows"])


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
        for row in table["rows"]:
            assert row["dimension"] > 0 and row["matvecs"] > 0
            # Sanov's swap and diag(1, -1) leave a quarter of the rows, and fewer
            assert row["symmetry_order"] == 4
            assert row["dimension"] / 4 <= row["orbits"] < row["dimension"] / 3
            assert 0 <= row["ritz_residual"] < 1e-6
            assert abs(row["ritz_minus_certificate"]) <= 1e-12


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


def test_report_timings_cover_every_envelope(capsys):
    code, plain, _ = run_cli(capsys, list(REPORT_FLAGS))
    assert code == 0
    code, timed, _ = run_cli(capsys, list(REPORT_FLAGS) + ["--timings"])
    assert code == 0
    envelopes = [json.loads(line) for line in timed.splitlines() if line]
    assert len(envelopes) == 8
    assert all(isinstance(env.pop("elapsed_ms"), float) for env in envelopes)
    # only the torus envelope carries diagnostics, for both tables and rank-one
    diagnostics = [env.pop("diagnostics", None) for env in envelopes]
    assert [d is not None for d in diagnostics] == [e["command"] == "report.torus" for e in envelopes]
    torus = next(d for d in diagnostics if d is not None)
    assert torus["rank_one"]["matvecs"] == 0 and len(torus["tables"]) == 2
    assert torus["rank_one"]["symmetry_order"] == 2
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
