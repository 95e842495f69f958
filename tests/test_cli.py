"""CLI surface: subcommands, exit codes, JSON stability."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vspart
from vspart.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "s.part"
    code, out, _ = run_cli(capsys, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(out_file))
    assert code == 0
    assert "5x2" in out
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    assert "valid" in out


def test_verify_invalid_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.part"
    doc = {
        "format": "vspart-partition",
        "version": 1,
        "p": 2,
        "e": 1,
        "modulus": [0, 1],
        "n": 2,
        "components": [[[0, 1]], [[1, 0]]],
    }
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1


def test_search_exhausted_exit(capsys):
    code, out, _ = run_cli(capsys, "search", "--q", "2", "--n", "5", "--type", "1x2,4x3")
    assert code == 1
    assert "exhausted" in out


def test_search_certified_type_exits_1_at_zero_nodes(capsys):
    # 1x1,10x2 fails the paper's s >= q + t, so no node is spent on it.
    code, out, _ = run_cli(
        capsys, "search", "--q", "2", "--n", "5", "--type", "1x1,10x2", "--budget", "1000", "--json"
    )
    assert code == 1
    assert json.loads(out) == {"nodes": 0, "status": "exhausted", "type": None}


def test_search_found_writes_file(tmp_path, capsys):
    out_file = tmp_path / "found.part"
    code, out, _ = run_cli(
        capsys, "search", "--q", "2", "--n", "5", "--type", "8x2,1x3", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.exists()


def test_search_needs_exactly_one_goal(capsys):
    for goal in [(), ("--type", "5x2", "--T", "2")]:
        code, out, err = run_cli(capsys, "search", "--q", "2", "--n", "5", *goal)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: search needs exactly one of --type or --T"]


def test_search_budget_exit(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--q", "2", "--n", "6", "--type", "14x2,3x3", "--budget", "10"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, env_budget",
    [
        (("enumerate", "--q", "2", "--n", "-1"), None),
        (("enumerate", "--q", "2", "--n", "0"), None),
        (("conjecture-scan", "--q", "2", "--n", "0"), None),
        (("search", "--q", "2", "--n", "-1", "--type", "1x1"), None),
        (("search", "--q", "2", "--n", "0", "--T", "1"), None),
        (("search", "--q", "2", "--n", "3", "--type", "7x1", "--budget", "-1"), None),
        (("search", "--q", "2", "--n", "3", "--type", "7x1"), "-5"),
        (("enumerate", "--q", "2", "--n", "3"), "-5"),
        (("conjecture-scan", "--q", "2", "--n", "3"), "-5"),
        (("construct", "tpartition", "--q", "2", "--T", "2", "--n", "4", "--budget", "-5"), None),
        (("construct", "tpartition", "--q", "2", "--T", "2", "--n", "4"), "-5"),
        (("search", "--q", "2", "--n", "3", "--type", "7x1"), "abc"),
        (("enumerate", "--q", "2", "--n", "3"), "abc"),
        (("construct", "tpartition", "--q", "2", "--T", "2", "--n", "4"), "abc"),
    ],
)
def test_search_commands_refuse_bad_n_and_budget(capsys, monkeypatch, argv, env_budget):
    if env_budget is not None:
        monkeypatch.setenv("VSPART_BUDGET", env_budget)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "must be" in lines[0]
    if env_budget == "abc":
        assert "VSPART_BUDGET" in lines[0]


def test_solve_flags(capsys):
    code, out, _ = run_cli(capsys, "solve", "--q", "2", "--n", "5", "--dims", "2,3")
    assert code == 0
    assert "x=(1, 4)" in out and "fails" in out
    assert "x=(8, 1)" in out and "passes" in out


def test_solve_json_schema(capsys):
    code, out, _ = run_cli(capsys, "solve", "--q", "2", "--n", "5", "--dims", "2,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"q", "n", "dims", "solutions"}
    assert doc["solutions"][1]["x"] == [8, 1]
    assert doc["solutions"][1]["passes"] is True
    # Stable across runs.
    _, out2, _ = run_cli(capsys, "solve", "--q", "2", "--n", "5", "--dims", "2,3", "--json")
    assert out == out2


def test_construct_tpartition_uncovered_exit(capsys):
    code, _, err = run_cli(capsys, "construct", "tpartition", "--q", "2", "--T", "3", "--n", "7")
    assert code == 1
    assert "uncovered" in err


def test_bounds(tmp_path, capsys):
    f = tmp_path / "p.part"
    run_cli(capsys, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(f))
    code, out, _ = run_cli(capsys, "bounds", str(f))
    assert code == 0
    assert "t=2 s=5 r=5" in out


def test_induce(tmp_path, capsys):
    f = tmp_path / "p.part"
    out_f = tmp_path / "induced.part"
    run_cli(capsys, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(f))
    code, out, _ = run_cli(
        capsys, "induce", str(f), "--w", "1,0,0,0;0,1,0,0;0,0,1,0", "--out", str(out_f)
    )
    assert code == 0
    assert "4x1,1x2" in out
    code, _, _ = run_cli(capsys, "verify", str(out_f))
    assert code == 0


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 9
    assert doc["types"]["4x1,1x2"] == 7


@pytest.mark.parametrize("command", ["enumerate", "conjecture-scan"])
def test_enumeration_budget_stop_exits_2_at_once(command):
    # V_4(3) takes minutes to enumerate; a small budget stops it in a fresh
    # process, well inside the timeout, with one line on stderr and no
    # partial census.
    env = dict(os.environ, PYTHONPATH=str(Path(vspart.__file__).parents[1]), VSPART_BUDGET="10000")
    proc = subprocess.run(
        [sys.executable, "-m", "vspart.cli", command, "--q", "3", "--n", "4"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "budget exceeded: enumerating V_4(GF(3)) needs more than 10000 nodes"
    ]


@pytest.mark.parametrize("argv", [
    ["solve", "--q", "2", "--n", "100", "--dims", "1,2"],
    ["construct", "tpartition", "--q", "2", "--T", "1,2", "--n", "70"],
])
def test_solution_class_past_maxsize_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(vspart.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vspart.cli", *argv], capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["budget exceeded: more than 1000000 solutions"]


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify-23", "--n", "5")
    assert code == 0
    assert "does not exist" in out


def test_conjecture_scan(capsys):
    code, out, _ = run_cli(capsys, "conjecture-scan", "--q", "2", "--n", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == 0
    assert doc["min_s"] == {"1": 3, "2": 5}


def test_code_and_design(tmp_path, capsys):
    f = tmp_path / "p.part"
    run_cli(capsys, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(f))
    code, out, _ = run_cli(capsys, "code", str(f), "--check")
    assert code == 0
    assert "size 64" in out and "perfect: True" in out
    code, out, _ = run_cli(capsys, "design", str(f), "--check")
    assert code == 0
    assert "5 resolution classes" in out


@pytest.mark.parametrize(
    "n,components",
    [(40, [[[0] * 39 + [1]]]), (4, [[[0, 0, 0, 1]], [[0, 0, 1, 0]], [[0, 0, 1, 1]]])],
    ids=["one_line_v40", "plane_lines_v4"],
)
def test_code_check_rejects_non_spanning_components(tmp_path, capsys, n, components):
    f = tmp_path / "p.part"
    doc = {"format": "vspart-partition", "version": 1, "p": 2, "e": 1,
           "modulus": [0, 1], "n": n, "components": components}
    f.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(f))[0] == 1
    code, out, _ = run_cli(capsys, "code", str(f), "--check", "--json")
    assert code == 1
    assert json.loads(out)["check"]["perfect"] is False


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bounds"], ["induce", "--w", "1,0"], ["code", "--check", "--json"],
     ["design", "--check", "--json"]],
    ids=lambda argv: argv[0],
)
def test_empty_components_is_usage_error(tmp_path, capsys, argv):
    # A file with no components is refused when read, so no command reports
    # on a "partition" of nothing.
    f = tmp_path / "empty.part"
    doc = {"format": "vspart-partition", "version": 1, "p": 2, "e": 1,
           "modulus": [0, 1], "n": 2, "components": []}
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: a partition needs at least one component"]


def test_usage_error_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/file.part")
    assert code == 2


def test_construct_near_spread_and_typed(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "near-spread", "--q", "2", "--n", "5", "--d", "2")
    assert code == 0 and "8x2,1x3" in out
    code, out, _ = run_cli(capsys, "construct", "typed", "--q", "2", "--n", "4", "--type", "5x2")
    assert code == 0 and "5x2" in out
    code, out, _ = run_cli(capsys, "construct", "hsection", "--q", "2", "--k", "2", "--d", "2")
    assert code == 0 and "4x1,1x2" in out


def test_construct_tpartition(capsys):
    code, out, _ = run_cli(capsys, "construct", "tpartition", "--q", "2", "--T", "1,2", "--n", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "3x1,4x2"
    assert doc["provenance"]["rule"] == "lines-refined-base"

@pytest.mark.parametrize(
    "builder,argv,missing",
    [
        ("spread", ["--d", "2"], "--n"),
        ("near-spread", ["--n", "5"], "--d"),
        ("hsection", ["--d", "2"], "--k"),
        ("typed", ["--n", "4"], "--type"),
        ("tpartition", ["--n", "4"], "--T"),
    ],
)
def test_construct_missing_option_is_usage_error(capsys, builder, argv, missing):
    code, out, err = run_cli(capsys, "construct", builder, "--q", "2", *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: construct {builder} needs {missing}"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve", "--q", "2", "--n", "4", "--dims", "a"],
         "--dims: expected comma-separated integers such as 2,3, got 'a'"),
        (["search", "--q", "2", "--n", "4", "--type", "2y3"],
         "--type: expected pairs such as 1x2,4x3, got '2y3'"),
        (["search", "--q", "2", "--n", "4", "--T", "2,,3"],
         "--T: expected comma-separated integers such as 2,3, got '2,,3'"),
        (["construct", "tpartition", "--q", "2", "--n", "4", "--T", "x"],
         "--T: expected comma-separated integers such as 2,3, got 'x'"),
        (["construct", "typed", "--q", "2", "--n", "4", "--type", "5"],
         "--type: expected pairs such as 1x2,4x3, got '5'"),
        (["induce", "FILE", "--w", "x"], "--w: expected integer rows such as 1,0;0,1, got 'x'"),
    ],
)
def test_malformed_option_value_names_the_option(tmp_path, capsys, argv, message):
    path = tmp_path / "s.part"
    run_cli(capsys, "construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", str(path))
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_solve_rejects_bad_q(capsys):
    for q in ("1", "6", str(2**61 - 1)):
        code, _, err = run_cli(capsys, "solve", "--q", q, "--n", "3", "--dims", "1")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_search_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--q", "2", "--n", "4", "--T", "2", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bounds"], ["induce", "--w", "1"], ["code", "--check"], ["design", "--check"]],
)
def test_nonpositive_dimension_is_usage_error(tmp_path, capsys, n, argv):
    f = tmp_path / "bad.part"
    doc = {"format": "vspart-partition", "version": 1, "p": 2, "e": 1,
           "modulus": [0, 1], "n": n, "components": []}
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: ambient dimension n must be positive, got {n}"]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("components", 5, "components must be a list, not int"),
        ("components", [5], "component 0 must be a list, not int"),
        ("components", [[5]], "a row of component 0 must be a list, not int"),
        ("components", [[[None, 1]]], "the entries of component 0 must be integers"),
        ("modulus", 3, "modulus must be a list, not int"),
        ("n", None, "n must be an integer, not NoneType"),
        ("n", "2", "n must be an integer, not str"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bounds"], ["induce", "--w", "1"], ["code", "--check"], ["design", "--check"]],
)
def test_malformed_partition_file_is_usage_error(tmp_path, capsys, key, value, message, argv):
    f = tmp_path / "bad.part"
    doc = {"format": "vspart-partition", "version": 1, "p": 2, "e": 1,
           "modulus": [0, 1], "n": 2, "components": [[[0, 1]], [[1, 0]], [[1, 1]]]}
    doc[key] = value
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "p,e",
    [(2**61 - 1, 1), (3, 10**9), (4, 10**9)],
)
def test_huge_field_in_partition_file_fails_fast(tmp_path, p, e):
    # The order guard runs before the primality test and before p**e, so a
    # fresh process answers at once instead of hanging.
    f = tmp_path / "huge.part"
    doc = {"format": "vspart-partition", "version": 1, "p": p, "e": e,
           "modulus": [0, 1], "n": 2, "components": []}
    f.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(vspart.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vspart.cli", "verify", str(f)],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {p}^{e} exceeds the guard 2^20"]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # Each line runs in order (later lines read the files earlier ones
    # write) and exits as its comment states, or 0 when it states none.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1].splitlines()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VSPART_BUDGET", raising=False)
    assert len(lines) == 16
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "vspart", line
        stated = re.search(r"# exit (\d+)", line)
        code = run(argv[1:])
        capsys.readouterr()
        assert code == (int(stated.group(1)) if stated else 0), line


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "spread", "--q", "2", "--n", "4", "--d", "2"],
        ["induce", "s.part", "--w", "1,0,0,0;0,1,0,0"],
        ["search", "--q", "2", "--n", "6", "--T", "2,3"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_failed_out_write_prints_nothing(tmp_path, capsys, monkeypatch, argv, as_json):
    # The file is written before anything is printed, so a write that fails
    # leaves one error line and an empty stdout.
    monkeypatch.chdir(tmp_path)
    run(["construct", "spread", "--q", "2", "--n", "4", "--d", "2", "--out", "s.part"])
    capsys.readouterr()
    target = str(tmp_path / "missing" / "out.part")
    code, out, err = run_cli(capsys, *argv, "--out", target, *(["--json"] if as_json else []))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and target in lines[0], err
    assert not (tmp_path / "missing").exists()
