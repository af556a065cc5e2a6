"""Command-line surface: exit codes, JSON reports, determinism, repro."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fragility

from conftest import NEAR_SEPARATED, write_csv
from fragility import cli
from fragility.cases import empirical_modifier, frame_from_table
from fragility.cli import emit_report, main
from fragility.errors import DiagnosticError
from fragility.stats import Table2x2, fisher_test
from fragility.stochastic import SgfiConfig, SgfiIteration, exact_sfi_2x2, sgfi

T3 = "102,326,216,985"
T2 = "20,380,15,385"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json", "-")
    return rc, json.loads(out), err


# --- exit code 0 ----------------------------------------------------------------


def test_fi_human_output(capsys):
    rc, out, err = run(capsys, "fi", "--table", T3)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "fragility index: 6"
    assert any("event -> nonevent x6" in ln for ln in lines)


def test_fi_json_is_pure_and_round_trips(capsys, tmp_path):
    rc, report, _ = run_json(capsys, "fi", "--table", T3)
    assert rc == 0
    assert report["result"] == 6
    assert report["initial_significant"] is True
    # file target: the emitter reproduces the document byte for byte
    path = tmp_path / "report.json"
    rc2 = main(["fi", "--table", T3, "--json", str(path)])
    assert rc2 == 0
    text = path.read_text(encoding="utf-8")
    assert emit_report(json.loads(text)) == text
    capsys.readouterr()


def test_fi_unbounded_is_success(capsys):
    rc, report, _ = run_json(capsys, "fi", "--table", "0,1,0,1")
    assert rc == 0
    assert report["result"] == "UNBOUNDED"
    assert "note" in report


def test_fi_finds_a_reversal_costlier_than_the_grid_window(capsys):
    # the whole 17 x 17 lattice fits the first window; its cheapest
    # reversal costs 13 shifts, more than the window's 8 per direction
    rc, report, _ = run_json(capsys, "fi", "--table", "8,8,8,8", "--alpha", "1e-5")
    assert rc == 0
    assert report["result"] == -13


def test_fi_negative_index_note(capsys):
    rc, report, _ = run_json(capsys, "fi", "--table", T2)
    assert rc == 0
    assert report["result"] == -7
    assert "not significant" in report["note"]


def test_gfi_q0_matches_fi_from_csv(capsys, tmp_path):
    path = tmp_path / "cases.csv"
    rows = ["group,result"]
    for arm, out, count in (
        ("arm1", "event", 20),
        ("arm1", "nonevent", 380),
        ("arm2", "event", 15),
        ("arm2", "nonevent", 385),
    ):
        rows += [f"{arm},{out}"] * count
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    common = ("--csv", str(path), "--arm", "group", "--outcome", "result")
    rc_fi, rep_fi, _ = run_json(capsys, "fi", *common)
    rc_gfi, rep_gfi, _ = run_json(capsys, "gfi", *common, "--q", "0")
    assert rc_fi == rc_gfi == 0
    assert rep_fi["result"] == rep_gfi["result"] == -7


def test_gfi_covariate_frame_near_separation(capsys, tmp_path):
    # warm-started refits of some flips run away here; their cold fits do
    # not, and ranking every candidate by its cold fit gives -5
    path = tmp_path / "cases.csv"
    rows = ["arm,outcome,x"] + [
        f"arm{a},{'event' if o else 'none'},{x}"
        for a, o, x in zip(*NEAR_SEPARATED.values())
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, report, _ = run_json(capsys, "gfi", "--csv", str(path), "--arm", "arm",
                             "--outcome", "outcome", "--covariates", "x")
    assert rc == 0
    assert report["result"] == -5


def test_gfi_unbounded_above_incidence_boundary(capsys):
    rc, report, _ = run_json(capsys, "gfi", "--table", T3, "--q", "0.77")
    assert rc == 0
    assert report["result"] == "UNBOUNDED"


def test_sgfi_default_run(capsys):
    rc, report, _ = run_json(capsys, "sgfi", "--table", T3, "--seed", "0")
    assert rc == 0
    assert report["result"] == 21
    assert report["parameters"]["r"] == 0.5
    assert len(report["trajectory"]) == 60
    conf = report["confirmation"]
    assert conf["at"]["k"] == 21 and conf["below"]["k"] == 20
    assert conf["at"]["p_hat"] > 0.5 >= conf["below"]["p_hat"]


def test_sgfi_same_seed_same_report(capsys):
    args = ("sgfi", "--table", T3, "--seed", "11", "-B", "100", "-T", "30")
    _, first, _ = run_json(capsys, *args)
    _, second, _ = run_json(capsys, *args)
    first.pop("timing_s")
    second.pop("timing_s")
    assert first == second


def test_sgfi_trajectory_export(capsys, tmp_path):
    path = tmp_path / "walk.csv"
    rc, _, _ = run(
        capsys, "sgfi", "--table", T3, "--seed", "0", "-B", "100", "-T", "30",
        "--trajectory", str(path),
    )
    assert rc == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,k_eval,p_hat,k_next"
    assert len(lines) == 31


def test_sgfi_trajectory_and_json_cannot_share_stdout(capsys):
    rc, out, err = run(capsys, "sgfi", "--table", T3, "--trajectory", "-", "--json", "-")
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_sgfi_grid(capsys):
    rc, report, _ = run_json(
        capsys, "sgfi", "--table", T3, "--grid", "0.25,0.5 x 0", "--seed", "1",
    )
    assert rc == 0
    rows = report["grid"]
    assert [row["r"] for row in rows] == [0.25, 0.5]
    assert all(row["q"] == 0.0 for row in rows)
    # each row is the library's answer for the same seed, B and T, and lies
    # within +-1 of the exact crossing
    table = Table2x2(*map(int, T3.split(",")))
    frame = frame_from_table(table)
    mod, test = empirical_modifier(frame, 0.0), fisher_test(alpha=0.05)
    for row in rows:
        cfg = SgfiConfig(r=row["r"], trials=200, iterations=60, seed=1)
        assert row["index"] == sgfi(frame, mod, test, cfg).index
        exact = exact_sfi_2x2(table, mod, test, r=row["r"]).index
        assert abs(row["index"] - exact) <= 1


def test_election_bundled_fixture(capsys):
    rc, report, _ = run_json(capsys, "election")
    assert rc == 0
    assert report["result"] == 538
    assert report["flip_states"] == ["Florida"]
    assert report["per_state_switches"] == [{"state": "Florida", "switches": 538}]
    assert report["reduction"] == {
        "population": 194331526,
        "pool": 2693686,
        "switches": 538,
    }
    cf = report["closed_form"]
    assert cf["index"] == 38789
    assert cf["initializer"] == 38814


def test_election_eq1(capsys):
    rc, report, _ = run_json(capsys, "election", "--eq1", "100,100,7")
    assert rc == 0
    assert report["closed_form"]["index"] == 7


@pytest.mark.parametrize(
    "argv",
    [("--table", "0,1,0,1"), ("--table", T3, "--r", "1-"), ("--table", T3, "--r", "0")],
    ids=["no-events", "almost-sure", "r0"],
)
def test_sgfi_json_without_root_finder(capsys, argv):
    # these answers need no Robbins-Monro search, so there is no Polyak mean
    rc, report, _ = run_json(capsys, "sgfi", *argv)
    assert rc == 0
    assert report["polyak_mean"] is None


def test_emit_report_numpy_scalars():
    report = {"i": np.int64(3), "f": np.float32(0.5), "b": np.bool_(True), "d": np.float64(0.1)}
    text = emit_report(report)
    assert json.loads(text) == {"i": 3, "f": 0.5, "b": True, "d": 0.1}
    with pytest.raises(TypeError):
        emit_report({"x": object()})


# human output of the report commands, byte for byte
GOLDEN = [
    (
        ("fi", "--table", T3),
        "fragility index: 6\n"
        "p before: 0.0104888   p after: 0.0532337\n"
        "plan: 6 modification(s)\n"
        "  arm1: event -> nonevent x6\n",
    ),
    (
        ("gfi", "--table", T2, "--q", "0.25"),
        "generalized fragility index: -7\n"
        "p before: 0.489839   p after: 0.0325533\n"
        "plan: 7 modification(s)\n"
        "  arm2: event -> nonevent x7\n"
        "note: not significant at the chosen alpha before any modification; the negative "
        "index counts outcome modifications needed to make the result significant\n",
    ),
    (
        ("sgfi", "--table", T3, "--seed", "0", "-B", "100", "-T", "30"),
        "stochastic generalized fragility index: 21   (r=0.5, q=0)\n"
        "p before: 0.0104888   polyak mean: 23.26\n"
        "confirmation: p_hat(21) = 0.52 > r >= p_hat(20) = 0.4275\n",
    ),
    (
        ("sgfi", "--table", T3, "--seed", "0", "-B", "100", "-T", "30",
         "--grid", "0.25,0.5 x 0"),
        "q \\ r           0.25       0.5\n"
        "0                 19        21\n",
    ),
    (
        ("election", "--eq1", "100,100,7"),
        "closed-form SGFI(1/2): 7   (initializer 7, approximation 7.00)\n"
        "sf(7) = 1 > 1/2 >= sf(6) = 0\n",
    ),
]


@pytest.mark.parametrize("argv,want", GOLDEN, ids=["fi", "gfi", "sgfi", "grid", "eq1"])
def test_human_output_golden(capsys, argv, want):
    rc, out, err = run(capsys, *argv)
    assert rc == 0
    assert err == ""
    assert out == want


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0." in capsys.readouterr().out


# --- one process, many calls -----------------------------------------------------


def run_in_turn(capsys, calls):
    """(exit code, output, stderr) of each call in turn, in this process;
    JSON output is parsed and its timing dropped."""
    results = []
    for argv in calls:
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        text = out.out
        if text.startswith("{"):
            text = json.loads(text)
            text.pop("timing_s")
        results.append((rc, text, out.err))
    return results


def same_as_fresh_parsers(capsys, monkeypatch, calls):
    """Results of the calls through the process's one parser, checked
    against a parser built fresh for each call."""
    assert cli.build_parser() is cli.build_parser()
    reused = run_in_turn(capsys, calls)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert run_in_turn(capsys, calls) == reused
    return reused


def test_gfi_default_q_after_an_explicit_q(capsys, monkeypatch):
    first, second = same_as_fresh_parsers(capsys, monkeypatch, [
        ("gfi", "--table", T2, "--q", "0.25", "--json", "-"),
        ("gfi", "--table", T2, "--json", "-"),
    ])
    assert first[1]["parameters"]["q"] == 0.25
    assert second[1]["parameters"]["q"] == 0.0


def test_sgfi_default_seed_after_an_explicit_seed(capsys, monkeypatch):
    first, second = same_as_fresh_parsers(capsys, monkeypatch, [
        ("sgfi", "--table", T3, "-B", "50", "-T", "20", "--seed", "3", "--json", "-"),
        ("sgfi", "--table", T3, "-B", "50", "-T", "20", "--json", "-"),
    ])
    assert first[1]["parameters"]["seed"] == 3
    assert second[1]["parameters"]["seed"] == 0


def test_valid_call_after_a_bad_flag(capsys, monkeypatch):
    bad, good = same_as_fresh_parsers(capsys, monkeypatch, [
        ("fi", "--table", T3, "--bogus"),
        ("fi", "--table", T3, "--json", "-"),
    ])
    assert bad[0] == 2 and "--bogus" in bad[2]
    assert good[0] == 0 and good[1]["result"] == 6


def test_human_lines_after_a_json_call(capsys, monkeypatch):
    quiet, loud = same_as_fresh_parsers(capsys, monkeypatch, [
        ("fi", "--table", T3, "--json", "-"),
        ("fi", "--table", T3),
    ])
    assert quiet[1]["result"] == 6
    assert loud[1] == GOLDEN[0][1]


NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs most of a second to import; only the hypergeometric tails
    # load it, on first use
    env = dict(os.environ, PYTHONPATH=str(Path(fragility.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c", "import fragility, fragility.cli, sys; " + NO_SCIPY],
        env=env, check=True,
    )


@pytest.mark.parametrize("argv", [
    ["fi", "--table", T3],
    ["gfi", "--table", T3, "--q", "0.25"],
    ["sgfi", "--table", "8,2,2,8", "-B", "50", "-T", "10"],
])
def test_one_shot_table_commands_leave_scipy_unloaded(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(fragility.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; from fragility.cli import main; assert main({argv!r}) == 0; " + NO_SCIPY],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


# --- exit code 2: input errors --------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("fi", "--table", "1,2,3"),
        ("fi", "--table", "1,2,3,x"),
        ("fi", "--csv", "/nonexistent/cases.csv", "--arm", "a", "--outcome", "o"),
        ("fi", "--table", T3, "--csv", "also.csv", "--arm", "a", "--outcome", "o"),
        ("fi",),  # neither table nor csv
        ("sgfi", "--table", T3, "--r", "1.5"),
        ("sgfi", "--table", T3, "--grid", "0.5 x nope"),
        ("election", "--eq1", "10,20,3"),  # pool exceeds population
        ("election", "--eq1", "1,2"),
        ("election", "--eq1", "100,100,7", "--csv", "somewhere.csv"),
    ],
)
def test_input_errors_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("cmd", ["gfi", "sgfi"])
def test_non_finite_covariate_exits_2(capsys, tmp_path, cmd, bad):
    # the loader names the row; nan must not reach LAPACK ("SVD did not
    # converge") nor inf the rank check ("design has rank < 3")
    path = tmp_path / "cases.csv"
    rows = ["arm,outcome,x"] + [
        f"arm{a},{'event' if o else 'none'},{x}"
        for a, o, x in zip(*NEAR_SEPARATED.values())
    ]
    rows[3] = rows[3].rsplit(",", 1)[0] + "," + bad
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, out, err = run(capsys, cmd, "--csv", str(path), "--arm", "arm",
                       "--outcome", "outcome", "--covariates", "x")
    assert rc == 2
    assert err.startswith("error:") and "row 3" in err and "finite" in err
    assert "Traceback" not in err and "rank" not in err


CSV_ARGS = {"cases": ["gfi", "--arm", "arm", "--outcome", "outcome"], "tally": ["election"]}


@pytest.mark.parametrize("fault", ["undecodable", "long-field"])
@pytest.mark.parametrize("layout", sorted(CSV_ARGS))
def test_unreadable_csv_exits_2_without_traceback(tmp_path, layout, fault):
    path = write_csv(tmp_path / "bad.csv", layout, fault)
    env = dict(os.environ, PYTHONPATH=str(Path(fragility.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fragility.cli", *CSV_ARGS[layout], "--csv", path],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("layout", sorted(CSV_ARGS))
def test_csv_with_byte_order_mark_reads_like_plain(capsys, tmp_path, layout):
    reports = []
    for name, fault in (("plain.csv", None), ("bom.csv", "bom")):
        path = write_csv(tmp_path / name, layout, fault)
        rc, report, _ = run_json(capsys, *CSV_ARGS[layout], "--csv", path)
        assert rc == 0
        report.pop("timing_s")
        reports.append(json.dumps(report).replace(path, "PATH"))
    assert reports[0] == reports[1]


# --- exit code 3: diagnostics ---------------------------------------------------


def test_sgfi_high_r_is_bracketed(capsys):
    # the confirmation search ends next to the exact crossing, wherever
    # the Polyak mean lands
    rc, report, _ = run_json(capsys, "sgfi", "--table", T3, "--r", "0.9", "-T", "20", "-B", "50")
    assert rc == 0
    table = Table2x2(102, 326, 216, 985)
    mod = empirical_modifier(frame_from_table(table), 0.0)
    exact = exact_sfi_2x2(table, mod, fisher_test(), r=0.9).index
    assert abs(report["result"] - exact) <= 1


@pytest.mark.parametrize("json_out", [False, True], ids=["human", "json"])
def test_unreachable_level_is_a_diagnostic(capsys, monkeypatch, json_out):
    steps = tuple(SgfiIteration(step=t, k_eval=30, p_hat=0.5, k_next=30.0) for t in range(1, 21))

    def unbracketed(*args, **kwargs):
        raise DiagnosticError(
            "confirmation search failed to bracket r=0.9: p_hat(1629) <= r", trajectory=steps
        )

    monkeypatch.setattr(cli, "sgfi", unbracketed)
    argv = ["sgfi", "--table", T3, "--r", "0.9", "-T", "20", "-B", "50"]
    if json_out:
        argv += ["--json", "-"]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert "error:" in err
    assert "trajectory tail:" in err
    # the steps stay on stderr when --json - silences the human lines
    assert sum(ln.lstrip().startswith("step ") for ln in err.splitlines()) == 8
    assert "p_hat(n) <= r" in err
    if json_out:
        assert out == ""


# --- repro ----------------------------------------------------------------------


def test_repro_reports_the_known_red(capsys):
    # the exact half-threshold row checks the computed crossing 21 and
    # reports the published 22 beside it
    rc, out, _ = run(capsys, "repro")
    assert rc == 0
    lines = out.splitlines()
    assert not [ln for ln in lines if ln.startswith("FAIL")]
    half = [ln for ln in lines if "exact half-threshold index equals 21" in ln]
    assert len(half) == 1 and half[0].startswith("PASS")
    assert "computed 21" in half[0]
    assert "P_20=0.405276" in half[0] and "P_21=0.521092" in half[0]
    assert "published 22" in half[0]
    assert sum(ln.startswith("PASS") for ln in lines) == 8
    assert any(ln.startswith("SKIP") for ln in lines)
    assert "8/8 checks passed" in lines[-1]


def test_repro_json(capsys):
    rc, report, _ = run_json(capsys, "repro")
    assert rc == 0
    assert report["failures"] == 0
    assert len(report["checks"]) == 8
    names = [c["name"] for c in report["checks"]]
    assert "election 538 switches and closed form near 38814" in names
