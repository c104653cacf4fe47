"""Command line interface: reports, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from wittmod.cli import main, parse_vector_literal, parse_window_arg
from wittmod.report import aggregate_verdict, exit_code_for
from wittmod.tensor import element_from_json


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- argument parsing ----------------------------------------------------


def test_parse_vector_literal():
    assert parse_vector_literal("v:3@2,-1") == (3, (2, -1))
    for bad in ("v3@2,-1", "v:x@0,0", "v:0@1", "v:0@1,2,3", "w:0@0,0"):
        with pytest.raises(Exception):
            parse_vector_literal(bad)


def test_parse_window_arg():
    w = parse_window_arg("3,2,2,1")
    assert w.to_json() == {"i": [-3, 3], "r": [[-2, 2], [-2, 2]], "margin": 1}
    assert parse_window_arg("2,1,1").to_json()["margin"] == 0
    with pytest.raises(Exception):
        parse_window_arg("3,2")


def test_exit_code_table():
    assert [exit_code_for(v) for v in ("pass", "fail", "error", "refused")] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        exit_code_for("maybe")
    assert aggregate_verdict(["pass", "refused", "fail"]) == "fail"
    assert aggregate_verdict(["pass", "error", "refused"]) == "refused"
    assert aggregate_verdict(["pass", "error"]) == "error"
    assert aggregate_verdict(["pass", "pass"]) == "pass"


# -- happy paths ----------------------------------------------------------


def test_act_pinned_value(capsys):
    rc, out, _ = run_cli(capsys, "act", "--word", "E11", "--vector", "v:3@2,-1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["check"] == "act" and doc["verdict"] == "pass"
    assert doc["result"]["terms"] == [{"coeff": "35/17", "index": 3, "r": [2, -1]}]
    # the result element round-trips through the JSON format
    back = element_from_json(doc["result"])
    assert back.coefficient(3, (2, -1)) == 35 / Fraction(17)


def test_check_generic_pass(capsys):
    rc, out, _ = run_cli(capsys, "check-generic")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert len(doc["generic"]["conditions"]) == 10


def test_check_generic_fail_from_config(capsys, tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# desk parameters with c pinned to 3b\nc = 3/11\n")
    rc, out, _ = run_cli(capsys, "check-generic", "--config", str(cfg))
    doc = json.loads(out)
    assert rc == 1 and doc["verdict"] == "fail"
    bad = [c for c in doc["generic"]["conditions"] if not c["holds"]]
    assert [c["name"] for c in bad] == ["c-3b"]


def test_brackets_numeric_window(capsys):
    rc, out, _ = run_cli(capsys, "brackets", "--mode", "numeric", "--window", "2,1,1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert doc["sl3"]["ok"] and doc["embedding"]["ok"]


def test_witt_small_trials(capsys):
    rc, out, _ = run_cli(capsys, "witt", "--trials", "6", "--jacobi", "2")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"


def test_generate_default_seed(capsys):
    rc, out, _ = run_cli(capsys, "generate", "--window", "2,2,2,1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert [s["stage"] for s in doc["subchecks"]] == ["antidiagonal", "lower-levels", "full"]


def test_irreducible_single_seed(capsys):
    rc, out, _ = run_cli(
        capsys, "irreducible", "--seed", "v:1@1,-1", "--window", "2,2,2,1"
    )
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass" and doc["seed_count"] == 1


def test_degenerate_preset(capsys):
    rc, out, _ = run_cli(capsys, "degenerate")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert doc["witness"] == {"index": -2, "r": [-2, -2]}
    assert doc["params"] == {
        "l": "1/7", "b": "1/11", "c": "1/13", "a1": "18/77", "a2": "-4/77",
    }


def test_derham_small(capsys):
    rc, out, _ = run_cli(capsys, "derham", "--box", "1", "--uv", "1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"


def test_proof_identities(capsys):
    rc, out, _ = run_cli(capsys, "proof-identities", "--s", "1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"


def test_factorization_flags_offset(capsys):
    rc, out, _ = run_cli(capsys, "factorization", "--s", "1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert doc["flags"] == ["s=1: second factor is offset -2 from its reference form"]


def test_gt_obstruction_only(capsys):
    rc, out, _ = run_cli(capsys, "gt", "--gt-check", "obstruction", "--window", "3,1,1")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert doc["subchecks"][0]["check"] == "gt-obstruction"


# -- refusals and errors ----------------------------------------------------


def test_generate_refuses_degenerate_config(capsys, tmp_path):
    cfg = tmp_path / "deg.cfg"
    cfg.write_text("a1 = 18/77\na2 = -4/77\n")
    rc, out, _ = run_cli(capsys, "generate", "--config", str(cfg), "--window", "2,2,2,1")
    doc = json.loads(out)
    assert rc == 3 and doc["verdict"] == "refused"


def test_irreducibility_gate_does_not_block_generation(capsys, tmp_path):
    # c = 3b breaks the tenth condition but not the eight spanning conditions
    cfg = tmp_path / "c3b.cfg"
    cfg.write_text("c = 3/11\n")
    rc, out, _ = run_cli(capsys, "check-generic", "--config", str(cfg))
    assert rc == 1
    rc, out, _ = run_cli(capsys, "generate", "--config", str(cfg), "--window", "2,2,2,1")
    assert rc == 0 and json.loads(out)["verdict"] == "pass"


def test_bad_vector_literal_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "act", "--word", "E11", "--vector", "nope")
    assert rc == 2 and "error:" in err


def test_unknown_word_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "act", "--word", "E14", "--vector", "v:0@0,0")
    assert rc == 2 and "E14" in err


def test_bad_config_line_reports_location(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("b = 1/11\nq = 3\n")
    rc, _, err = run_cli(capsys, "check-generic", "--config", str(cfg))
    assert rc == 2
    assert "bad.cfg:2" in err


def test_symbolic_mode_rejects_config(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("b = 1/11\n")
    rc, _, err = run_cli(capsys, "brackets", "--mode", "symbolic", "--config", str(cfg))
    assert rc == 2 and "numeric mode only" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-generic", "--out", "{missing}/x.json"),
        ("witt", "--trials", "-5"),
        ("witt", "--jacobi", "-1"),
        ("derham", "--box", "-1", "--uv", "-1"),
        ("irreducible", "--trials", "-1"),
        ("proof-identities", "--s", "-1"),
    ],
)
def test_bad_input_and_io_exit_2_with_one_line(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["no-such-check"]) == 2


# -- output files and determinism ---------------------------------------------


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "check-generic", "--out", str(out_path))
    assert rc == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["check"] == "check-generic"


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "degenerate", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wittmod.cli", "check-generic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
