import json
import shlex
from pathlib import Path

from floordiag import cli
from floordiag.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_text(capsys):
    code, out, _ = run(capsys, "invariant", "--polygon", "abn:3,0,1", "--genus", "0")
    assert code == 0
    assert out.strip() == "q + 10 + q^-1"


def test_invariant_genus_three(capsys):
    code, out, _ = run(capsys, "invariant", "--polygon", "abn:4,0,1", "--genus", "3")
    assert code == 0 and out.strip() == "1"


def test_invariant_large_genus_warns_zero(capsys):
    code, out, err = run(capsys, "invariant", "--polygon", "abn:3,0,1", "--genus", "99")
    assert code == 0
    assert out.strip() == "0"
    assert "warning" in err


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--polygon", "abn:3,0,1", "--genus", "0",
                       "--format", "json")
    assert json.loads(out) == {"2": 1, "0": 10, "-2": 1}


def test_descendant(capsys):
    code, out, _ = run(capsys, "descendant", "--polygon", "abn:4,0,1", "--s", "5")
    assert code == 0
    assert out.strip() == "q^3 + 3*q^2 + 14*q + 24 + 14*q^-1 + 3*q^-2 + q^-3"


def test_descendant_s0_matches_invariant(capsys):
    _, out1, _ = run(capsys, "descendant", "--polygon", "abn:3,0,1", "--s", "0")
    _, out2, _ = run(capsys, "invariant", "--polygon", "abn:3,0,1", "--genus", "0")
    assert out1 == out2


def test_descendant_custom_pairing(capsys):
    _, out1, _ = run(capsys, "descendant", "--polygon", "abn:4,0,1", "--s", "1",
                     "--pairing", "pairs:3-4")
    _, out2, _ = run(capsys, "descendant", "--polygon", "abn:4,0,1", "--s", "1")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "invariant", "--polygon", "nonsense", "--genus", "0")
    assert code == 2
    assert "error" in err


def test_malformed_literal_is_usage_error(capsys):
    for argv in (["invariant", "--genus", "0", "--polygon", "ht:dl=[0,0];dr=[1,1];db=2;dt=0;x=9"],
                 ["invariant", "--genus", "0", "--polygon", "ht:dl=[0,0];dr=[1,1];db=2;dt=0;dt=1"],
                 ["invariant", "--genus", "0", "--polygon", "abn:3,x,1"],
                 ["descendant", "--polygon", "abn:4,0,1", "--s", "1", "--pairing", "pairs:1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert repr(argv[-1]) in err and "invalid literal for int()" not in err, err


def test_engine_fault_exit_code(capsys, monkeypatch):
    from floordiag import invariant
    from floordiag.laurent import EngineError

    def fault(*args, **kwargs):
        raise EngineError("non-exact Laurent division (remainder)")

    monkeypatch.setattr(invariant, "refined_invariant", fault)
    code, _, err = run(capsys, "invariant", "--polygon", "abn:3,0,1", "--genus", "0")
    assert code == 3
    assert "engine fault" in err


def test_engine_check_failure_exit_code(capsys, monkeypatch):
    from floordiag.templates import CappingTree

    monkeypatch.setattr(CappingTree, "codeg", lambda self: -1)
    code, _, err = run(capsys, "capping", "--a", "4", "--n", "1", "--max-codeg", "2")
    assert code == 3
    assert "engine fault" in err


def test_unknown_suite_is_usage_error(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--i", "1",
                       "--grid", "a=2..3,b=2..2,n=1..1,s=0..0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,a,b,n,s,value,source"
    assert "1,2,2,1,0,12,closed_form" in lines


def test_coeffs_check_mode_agrees(capsys):
    code, out, _ = run(capsys, "coeffs", "--i", "1", "--check", "--format", "json",
                       "--grid", "a=2..3,b=2..3,n=1..1,s=0..1")
    rows = json.loads(out)
    by_point = {}
    for row in rows:
        key = (row["a"], row["b"], row["n"], row["s"])
        by_point.setdefault(key, set()).add(row["value"])
    assert all(len(v) == 1 for v in by_point.values())


def test_coeffs_empty_grid_usage_error(capsys):
    code, _, err = run(capsys, "coeffs", "--i", "3",
                       "--grid", "a=2..3,b=2..3,n=1..1,s=0..0")
    assert code == 2


def test_templates_text(capsys):
    code, out, _ = run(capsys, "templates", "--max-genus", "1", "--max-codeg", "2")
    assert code == 0
    assert "genus 1 codegree 2: 10 templates" in out


def test_capping_json(capsys):
    code, out, _ = run(capsys, "capping", "--a", "4", "--n", "1", "--max-codeg", "2",
                       "--format", "json")
    data = json.loads(out)
    assert len(data) == 1 and data[0]["codegree"] == 2


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "PASS suite identities" in out


def test_verify_recursion(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recursion")
    assert code == 0


def test_verify_all_prints_the_pinned_report(capsys):
    pinned = json.loads(REFERENCE.read_text())["cli_session"]["verify --suite all"]["stdout"]
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out == pinned


def test_verify_fails_on_a_changed_table_entry(capsys, monkeypatch):
    table = cli.paper_examples()
    table["invariants"][0]["value"]["0"] += 1
    monkeypatch.setattr(cli, "paper_examples", lambda: table)
    code, out, _ = run(capsys, "verify", "--suite", "paper-examples")
    assert code == 1
    assert out.startswith("FAIL suite paper-examples\n")


def test_fit_negative_codegree_is_usage_error(capsys):
    for argv in (["fit", "--i", "-1", "--genus", "1", "--grid", "a=4..7,b=1..3,n=1..3"],
                 ["capping", "--a", "4", "--n", "1", "--max-codeg", "-1"],
                 ["capping", "--a", "2", "--n", "0", "--max-codeg", "2"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in err


def test_fit_grid_missing_variable_is_usage_error(capsys):
    code, _, err = run(capsys, "fit", "--i", "1", "--genus", "1",
                       "--grid", "a=4..8,b=2..5")
    assert code == 2
    assert "missing ['n']" in err


def test_grid_empty_range_is_usage_error(capsys):
    code, out, err = run(capsys, "fit", "--i", "1", "--genus", "1",
                         "--grid", "a=5..3,b=2..5,n=1..3")
    assert code == 2 and out == ""
    assert "grid variable a has an empty range 5..3" in err


def test_grid_repeated_variable_is_usage_error(capsys):
    for var, argv in (
            ("a", ["coeffs", "--i", "1", "--grid", "a=2..3,a=9..9,b=2..2,n=1..1,s=0..0"]),
            ("b", ["fit", "--i", "0", "--genus", "1", "--grid", "a=4..7,b=1..3,n=1..3,b=2..4"])):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "grid sets variable %s twice" % var in err


def test_grid_repeated_value_is_usage_error(capsys):
    for argv in (["coeffs", "--i", "1", "--grid", "a=3|3,b=2..2,n=1..1,s=0..0"],
                 ["fit", "--i", "0", "--genus", "1", "--grid", "a=3|3,b=1..3,n=1..3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "grid variable a repeats a value in 3|3" in err


def test_grid_malformed_range_is_usage_error(capsys):
    for bad in ("x", "2|x", "2..3..4", "", "2..x"):
        code, out, err = run(capsys, "fit", "--i", "0", "--genus", "1",
                             "--grid", "a=%s,b=1..3,n=1..3" % bad)
        assert code == 2 and out == "", bad
        assert "grid variable a has a malformed range %r" % bad in err


def test_grid_unknown_variable_is_usage_error(capsys):
    for argv in (["coeffs", "--i", "1", "--grid", "a=2..3,b=2..3,n=1..1,s=0..1,x=1"],
                 ["fit", "--i", "1", "--grid", "a=3..5,b=2..4,n=1..3,s=0..2,x=1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "grid sets x, which this command does not take" in err


def test_fit_s_needs_genus_zero(capsys):
    code, _, err = run(capsys, "fit", "--i", "0", "--genus", "1",
                       "--grid", "a=4..7,b=1..3,n=1..3,s=0..2")
    assert code == 2
    assert "grid sets s, which this command does not take (it takes a, b, n)" in err


def test_readme_commands_exit_zero(capsys, monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    block = (ROOT / "README.md").read_text().split("## Command line")[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 10
    for argv in commands:
        assert argv[0] == "floordiag"
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_fit_exit_code(capsys):
    fits = []
    for grid in ("a=4..7,b=1..3,n=1..3", "a=10|4|8|6,b=3|1|2,n=1..3"):
        code, out, _ = run(capsys, "fit", "--i", "0", "--genus", "1", "--grid", grid)
        assert code == 0, grid
        fits.append(json.loads(out))
        assert fits[-1]["passed"]
    assert fits[0]["polynomial"] == fits[1]["polynomial"]


def test_cache_commands(capsys):
    code, out, _ = run(capsys, "cache", "dir")
    assert code == 0 and out.strip()
    code, out, _ = run(capsys, "cache", "info")
    assert code == 0
    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0
