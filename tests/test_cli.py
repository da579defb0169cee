"""Scenario parsing, report determinism, exit codes, CLI plumbing."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from cohomkit.report import CheckRecord, Report, render, render_text, scenario_digest, strip_timing
from cohomkit.scenario import ScenarioError, parse_scenarios
from cohomkit.checks import run_check
from cohomkit.cli import main

MINIMAL = """
scenario tiny
seed 3
base C2
galois C2
check bk-build
"""


def test_parse_minimal():
    (sc,) = parse_scenarios(MINIMAL)
    assert sc.name == "tiny" and sc.seed == 3
    assert sc.base.orders == (2,) and sc.galois.size == 2
    assert [c.name for c in sc.checks] == ["bk-build"]


def test_parse_group_table_and_subgroup():
    text = """
scenario tab
group table 0,1;1,0
subgroup all
base C2
check cohomology degree=1
"""
    (sc,) = parse_scenarios(text)
    assert sc.group.size == 2 and sc.subgroup.size == 2


def test_parse_rejects_bad_table_with_location():
    text = "scenario t\ngroup table 0,1;1,1\nbase C2\ncheck cohomology\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenarios(text)
    assert "line 2" in str(err.value)


def test_parse_rejects_unknown_check():
    with pytest.raises(ScenarioError):
        parse_scenarios("scenario t\ncheck frobnicate\n")


def test_parse_rejects_missing_requirements():
    with pytest.raises(ScenarioError):
        parse_scenarios("scenario t\ncheck bk-build\n")


def test_parse_rejects_nonnormal_subgroup():
    text = "scenario t\ngroup S3\nsubgroup gen:1\nbase C2\ncheck cohomology\n"
    with pytest.raises(ScenarioError):
        parse_scenarios(text)


@pytest.mark.parametrize(
    "check,message",
    [
        ("cohomology degree=1 qq=5", "no parameter 'qq'"),
        ("cohomology degree=-1", "degree=-1 must be in 0..2"),
        ("cohomology degree=3", "degree=3 must be in 0..2"),
        ("sha degree=3", "degree=3 must be in 0..2"),
        ("sha degree=-1", "degree=-1 must be in 0..2"),
        ("q-relevable q=4", "q=4 must be odd"),
        ("q-relevable sigma=-1", "sigma=-1 must be at least 0"),
        ("q-relevable sigma=2", "sigma=2 is not an element"),
        ("neutrality budget=0", "budget=0 must be at least 1"),
        ("b0 degree=1", "no parameter 'degree'"),
        ("cohomology degree=1 degree=2", "'degree' given twice"),
    ],
)
def test_parse_rejects_bad_check_parameters_with_location(check, message):
    with pytest.raises(ScenarioError, match=f"line 4: .*{message}"):
        parse_scenarios(f"scenario t\nbase C2\ngalois C2\ncheck {check}\n")


def test_cli_bad_check_parameter_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.scn"
    f.write_text("scenario t\nbase C2\ngalois C2\ncheck cohomology degree=-1\n")
    assert main(["run", str(f)]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("scenario x\nbase C2\ncheck b0\n", "line 3: scenario 'x': check b0 needs base and galois"),
        ("scenario x\nbase C2\n\ncheck verify-shapiro\n", "line 4: .*needs group, subgroup and base"),
        ("scenario x\ngalois C2\ncheck cohomology\n", "line 3: .*cohomology needs a base module"),
        ("scenario x\nbase C2\n# no group\ncheck cohomology\n", "line 4: .*cohomology needs group or galois"),
    ],
)
def test_cli_missing_requirement_names_the_check_line(tmp_path, capsys, text, message):
    f = tmp_path / "needs.scn"
    f.write_text(text)
    assert main(["run", str(f)]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "twist,got",
    [
        ("1,0|0,1", "2 blocks of width 2"),
        ("0,0,0,0", "1 blocks of width 4"),
        ("0,0,0,0|0,0,0,0|0,0,0,0", "3 blocks of width 4"),
    ],
)
def test_cli_malformed_twist_exits_2_at_its_line(tmp_path, capsys, twist, got):
    """A twist on galois C2 over base C2 needs 2 blocks of width 2 * 2 * 1."""
    f = tmp_path / "twist.scn"
    f.write_text(f"scenario x\nbase C2\ngalois C2\ntwist {twist}\ncheck verify-bk\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"line 4: twist has {got}" in err and "needs 2 blocks of width 4" in err


def test_twist_needs_base_and_galois():
    with pytest.raises(ScenarioError, match="line 3: scenario 'x': twist needs base and galois"):
        parse_scenarios("scenario x\nbase C2\ntwist 0,0|0,0\n")


def _bench_pool_contexts():
    import json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "data", "scenario_pool.json")) as fh:
        return json.load(fh)["contexts"]


def test_parse_accepts_every_check_line_of_the_bench_pool():
    contexts = _bench_pool_contexts()
    lines = [chk["line"] for ctx in contexts for chk in ctx["checks"]]
    assert "q-relevable q=3" in lines and "sha degree=1" in lines
    for ctx in contexts:
        checks = [chk["line"] for chk in ctx["checks"]]
        text = "\n".join(["scenario t", *ctx["directives"], *(f"check {c}" for c in checks)])
        (sc,) = parse_scenarios(text + "\n")
        assert [c.name for c in sc.checks] == [c.split()[0] for c in checks]


@pytest.mark.parametrize("kind", ["verify-bk", "q-relevable", "br-nr"])
def test_bench_pool_reference_records_replay(kind):
    """Each pool item of these kinds with a reference record renders it exactly."""
    replayed = 0
    for ctx in _bench_pool_contexts():
        for chk in ctx["checks"]:
            if chk["line"].split()[0] != kind or chk["expected"] is None:
                continue
            text = "\n".join(["scenario t", "seed 0", *ctx["directives"], f"check {chk['line']}"])
            (sc,) = parse_scenarios(text + "\n")
            rec = run_check(sc, sc.checks[0])
            lines = render(Report("t", "0", 0, 0, [rec]), timing=False).splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith("check "))
            block = "\n".join(lines[start : lines.index("end", start) + 1])
            assert block == chk["expected"], ctx["directives"]
            replayed += 1
    assert replayed >= 12


def test_empty_check_list_is_empty_pass_report():
    (sc,) = parse_scenarios("scenario empty\nbase C2\ngalois C2\n")
    report = Report("empty", scenario_digest(sc.canonical_text()), 0, sc.bound)
    assert report.exit_code() == 0


def test_digest_stable():
    (a,) = parse_scenarios(MINIMAL)
    (b,) = parse_scenarios(MINIMAL)
    assert scenario_digest(a.canonical_text()) == scenario_digest(b.canonical_text())


def test_fail_requires_witness():
    with pytest.raises(AssertionError):
        CheckRecord("x", "fail", {})


def test_exit_code_contract():
    rep = Report("s", "d", 0, 1)
    rep.records = [CheckRecord("a", "pass")]
    assert rep.exit_code() == 0
    rep.records.append(CheckRecord("b", "skipped"))
    assert rep.exit_code() == 3
    rep.records.append(CheckRecord("c", "fail", witness={"w": 1}))
    assert rep.exit_code() == 1


def test_report_determinism_excluding_timing():
    (sc,) = parse_scenarios(MINIMAL)

    def build():
        rep = Report("tiny", scenario_digest(sc.canonical_text()), sc.seed, sc.bound)
        rep.records = [run_check(sc, spec) for spec in sc.checks]
        return render(rep)

    assert strip_timing(build()) == strip_timing(build())


def test_render_key_order_sorted():
    rep = Report("s", "d", 0, 1)
    rep.records = [CheckRecord("a", "pass", {"zz": 1, "aa": 2})]
    body = render(rep, timing=False)
    assert body.index("aa 2") < body.index("zz 1")


def test_cli_run_and_exit_codes(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text(MINIMAL)
    out = tmp_path / "report.txt"
    code = main(["run", str(f), "--out", str(out), "--format", "structured"])
    assert code == 0
    assert "cohomkit-report 1" in out.read_text()


def test_cli_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.scn"
    f.write_text("scenario x\ncheck nope\n")
    assert main(["run", str(f)]) == 2
    assert main(["run", str(tmp_path / "missing.scn")]) == 2


def test_cli_bound_zero_heavy_checks_skipped(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text("scenario s\nbase C2\ngalois C2\ncheck verify-bk\ncheck b0\n")
    out = tmp_path / "r.txt"
    code = main(["run", str(f), "--bound", "8", "--out", str(out)])
    assert code == 3  # skipped entries, distinct from failure
    assert "skipped" in out.read_text()


def test_cli_bound_reaches_the_shapiro_squares(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text(
        "scenario s\ngroup S3\nsubgroup gen:3\nbase C3\ndecomposition trivial\nbound 10\n"
        "check cohomology degree=2\ncheck verify-shapiro\n"
    )
    out = tmp_path / "r.txt"
    assert main(["run", str(f), "--out", str(out)]) == 3
    text = out.read_text()
    shapiro = text[text.index("check verify-shapiro") :]
    assert "status skipped" in shapiro
    for square in ("cup skipped(0)", "j skipped(0)", "loc-H2 skipped(0)", "loc-H1 pass(6)"):
        assert f"square.{square}" in shapiro


def test_cli_env_bound_override(tmp_path, monkeypatch):
    f = tmp_path / "s.scn"
    f.write_text(MINIMAL)
    out = tmp_path / "r.txt"
    monkeypatch.setenv("COHOMKIT_BOUND", "12345")
    assert main(["run", str(f), "--out", str(out)]) == 0
    assert "bound 12345" in out.read_text()


def test_cli_negative_scenario_seed_exits_2_at_its_line(tmp_path, capsys):
    f = tmp_path / "s.scn"
    f.write_text(MINIMAL.replace("seed 3", "seed -1"))
    assert main(["run", str(f)]) == 2
    assert "line 3: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["suite", "--seed", "-1"], "argument --seed: must be at least 0, not -1"),
        (["suite", "--bound", "-5"], "argument --bound: must be at least 1, not -5"),
        (["suite", "--bound", "0"], "argument --bound: must be at least 1, not 0"),
        (["suite", "--seed", "x"], "argument --seed: invalid integer value: 'x'"),
    ],
)
def test_cli_out_of_range_seed_or_bound_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,message", [("abc", "invalid literal for int() with base 10: 'abc'"), ("-3", "must be at least 1, not -3")]
)
def test_cli_bad_env_bound_exits_2(tmp_path, monkeypatch, capsys, value, message):
    f = tmp_path / "s.scn"
    f.write_text(MINIMAL)
    monkeypatch.setenv("COHOMKIT_BOUND", value)
    assert main(["run", str(f)]) == 2
    assert f"cohomkit: COHOMKIT_BOUND: {message}" in capsys.readouterr().err


def test_cli_text_format(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text(MINIMAL)
    out = tmp_path / "r.txt"
    assert main(["run", str(f), "--format", "text", "--out", str(out)]) == 0
    assert "[pass" in out.read_text()


def test_cli_list_fixtures(capsys):
    assert main(["list-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "S3" in out and "bk-C2-C2" in out


def _run_scenario_file(tmp_path, text: str, *flags: str) -> subprocess.CompletedProcess:
    """``python [flags] -m cohomkit run`` on a scenario file holding ``text``."""
    scn = tmp_path / "s.scn"
    scn.write_text(text)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "cohomkit", "run", str(scn)],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_subgroup_checks_survive_optimized_mode(tmp_path):
    # python -O strips assert statements; the subgroup check must not vanish
    text = "scenario sub\nseed 0\ngroup C4\nsubgroup 0,1\nbase C2\ncheck cohomology\n"
    proc = _run_scenario_file(tmp_path, text, "-O")
    assert proc.returncode == 2, proc.stderr
    assert "line 4: not a subgroup" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "line,message",
    [
        ("group table 0,1;1,99999999999999999999999", "invalid multiplication table"),
        ("twist 99999999999999999999999,0,0,0|0,0,0,0", "bad twist table"),
    ],
    ids=["group-table", "twist"],
)
def test_an_integer_outside_int64_is_a_parse_error(tmp_path, line, message, flags):
    proc = _run_scenario_file(tmp_path, f"scenario big\nbase C2\ngalois C2\n{line}\ncheck bk-build\n", *flags)
    assert proc.returncode == 2, proc.stderr
    assert f"line 4: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_no_check_in_the_package_is_a_bare_assert():
    # python -O strips assert statements, so every check raises instead
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "cohomkit"
    bare = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "cohomkit", "list-fixtures"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    assert "suite scenarios:" in proc.stdout


def test_suite_scenarios_parse():
    from cohomkit.fixtures import SUITE_SCENARIOS

    scenarios = parse_scenarios(SUITE_SCENARIOS)
    assert len(scenarios) >= 5
    names = [sc.name for sc in scenarios]
    assert "bk-smallest" in names

