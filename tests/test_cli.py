"""Command line interface: reports, exit codes, determinism."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wittmod import cli
from wittmod.cli import main, parse_vector_literal, parse_window_arg
from wittmod.report import aggregate_verdict, exit_code_for


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


@pytest.mark.parametrize(
    "raw",
    [b"\xef\xbb\xbfl=1/7\n", b"l=1/7\r\n", b"\xef\xbb\xbf# saved on Windows\r\nl=1/7\r\n"],
    ids=["bom", "crlf", "bom-crlf"],
)
def test_config_reads_a_bom_and_crlf_line_ends(capsys, tmp_path, raw):
    cfg = tmp_path / "params.cfg"
    cfg.write_bytes(raw)
    rc, out, err = run_cli(capsys, "check-generic", "--config", str(cfg))
    assert (rc, err) == (0, "")
    plain = tmp_path / "plain.cfg"
    plain.write_text("l = 1/7\n")
    assert run_cli(capsys, "check-generic", "--config", str(plain)) == (0, out, "")
    assert json.loads(out)["params"]["l"] == "1/7"


def test_check_generic_refuses_symbolic_params(capsys):
    rc, out, _ = run_cli(capsys, "check-generic", "--mode", "symbolic")
    doc = json.loads(out)
    assert rc == 3 and doc["verdict"] == "refused"
    assert doc["reason"] == "symbolic parameters: conditions are undecidable"


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


def test_gt_obstruction_refuses_a_non_generic_config(capsys, tmp_path):
    # c = l: the extreme component of E23*E32 vanishes at index 0, r = (-2, -2),
    # as the ten conditions allow, so the run is refused rather than failed
    cfg = tmp_path / "cl.cfg"
    cfg.write_text("c = 1/7\n")
    rc, out, _ = run_cli(capsys, "gt", "--gt-check", "obstruction", "--config", str(cfg))
    (sub,) = json.loads(out)["subchecks"]
    assert rc == 3 and sub["verdict"] == "refused"
    assert sub["reason"] == "genericity condition c-l fails"


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


def test_undecodable_config_names_the_file(capsys, tmp_path):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"b = 1/\xff1\n")
    rc, out, err = run_cli(capsys, "check-generic", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot read config: {cfg}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_symbolic_mode_rejects_config(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("b = 1/11\n")
    rc, _, err = run_cli(capsys, "brackets", "--mode", "symbolic", "--config", str(cfg))
    assert rc == 2 and "numeric mode only" in err


def test_gt_rejects_config_before_any_subcheck_runs(capsys, tmp_path, monkeypatch):
    # the default central check is symbolic, so --config is refused up front
    def must_not_run(*args, **kwargs):
        raise AssertionError("gt ran a subcheck before checking its arguments")

    monkeypatch.setattr(cli, "gt_obstruction", must_not_run)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("b = 1/11\n")
    rc, _, err = run_cli(capsys, "gt", "--config", str(cfg))
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
        # a repeated length or word length used to run and print twice
        ("proof-identities", "--s", "1,1"),
        ("factorization", "--s", "2,2"),
        ("gt", "--k", "1,1", "--gt-check", "central"),
        ("witt", "--trials", "0", "--jacobi", "0"),
        ("irreducible", "--window", "1,1,1,1"),
        ("derham", "--uv", "0"),
        ("irreducible", "--seed", ""),
        ("irreducible", "--seed", "v:9@0,0"),
        # windows and boxes too large to enumerate
        ("brackets", "--mode", "numeric", "--window", "99999999999999999999,0,0"),
        ("irreducible", "--window", "99999999999999999999,1,1"),
        ("derham", "--box", "99999999999999999999", "--uv", "1"),
        # an inner window of one basis vector: the seed is the only target
        ("irreducible", "--trials", "0", "--window", "0,0,0,0"),
        ("irreducible", "--seed", "v:0@0,0", "--window", "1,1,1,1"),
        ("generate", "--window", "1,1,1,1"),
        ("generate", "--window", "0,0,0"),
        # ... and for degenerate the only target, which used to exit 1
        ("degenerate", "--window", "0,0,0"),
        ("degenerate", "--window", "1,1,1,1"),
        ("degenerate", "--window", "2,2,2,2"),
        # a repeated config key used to run at its last value
        ("check-generic", "--config", "{repeated}"),
    ],
)
def test_bad_input_and_io_exit_2_with_one_line(capsys, tmp_path, argv):
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("l = 1/7\nl = 2/7\n")
    argv = [a.format(missing=tmp_path / "missing", repeated=repeated) for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--config" in argv:
        assert err == f"error: {repeated}:2: parameter key 'l' is repeated\n"


@pytest.mark.parametrize(
    "report, argv",
    [
        ("bracket_report", ("brackets", "--mode", "numeric", "--window", "99999999999,1,1")),
        ("check_irreducible", ("irreducible", "--window", "99999999999,1,1")),
        ("derham_report", ("derham", "--box", "99999999999", "--uv", "1")),
    ],
    ids=["brackets", "irreducible", "derham"],
)
def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, report, argv):
    # such a window or box fits an int but not memory; the report is made
    # to raise MemoryError, so that nothing is really allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, report, out_of_memory)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: input too large: out of memory\n")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["no-such-check"]) == 2


CALLS = (
    ("generate", "--seed"),  # usage error: --seed needs a value
    ("act", "--mode", "symbolic", "--word", "E13", "--vector", "v:1@0,0"),
    ("act", "--word", "E13", "--vector", "v:1@0,0"),  # numeric by default again
    ("irreducible", "--seed", "v:0@0,0", "--window", "1,1,1"),
    ("generate", "--window", "1,1,1"),  # its own --seed default, not the last value
    ("check-generic",),
)


def test_parser_is_built_once_and_calls_do_not_share_state(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    alone = []
    for argv in CALLS:
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert len(built) == len(CALLS)
    assert alone[0][0] == 2 and alone[0][2].startswith("usage: wittmod generate")
    assert json.loads(alone[1][1])["mode"] == "symbolic"
    assert json.loads(alone[2][1])["mode"] == "numeric"
    built.clear()
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in CALLS] == alone
    assert len(built) == 1


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


def test_package_runs_as_module():
    # `python -m wittmod` works from a checkout, without `pip install`
    proc = subprocess.run(
        [sys.executable, "-m", "wittmod", "check-generic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"


TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


def _cli(argv) -> str:
    return f"import os, wittmod.cli; assert wittmod.cli.main({argv!r} + ['--out', os.devnull]) == 0"


def _table(name) -> str:
    # the report of that name in the lock's producer table
    return (
        f"import sys; sys.path.insert(0, {str(TESTS)!r}); import producers; "
        f"assert producers.PRODUCERS[{name!r}]()[1]['verdict'] == 'pass'"
    )


# the benchmark's set-up of every workload: its warm-up and request lists
BENCH_SETUP = (
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; workloads.warm_up(); "
    "[workloads.build(w, 1) for w in workloads.WORKLOADS]"
)

SYMPY_FREE_RUNS = {
    "import": "import wittmod",
    "check-generic": _cli(["check-generic"]),
    "brackets": _cli(["brackets"]),
    "brackets-numeric": _cli(["brackets", "--mode", "numeric", "--window", "2,1,1"]),
    "proof-identities": _cli(["proof-identities"]),
    "generate": _cli(["generate"]),
    "irreducible": _cli(["irreducible"]),
    "irreducible-seed": _cli(["irreducible", "--seed", "v:0@0,0"]),
    "degenerate": _cli(["degenerate"]),
    "derham": _cli(["derham"]),
    "derham-n3": _cli(["derham", "--n", "3"]),
    "witt": _cli(["witt"]),
    "gt-central": _cli(["gt", "--gt-check", "central"]),
    "gt-central-numeric": _cli(["gt", "--gt-check", "central", "--mode", "numeric"]),
    "gt": _cli(["gt"]),
    "act": _cli(["act", "--word", "E11", "--vector", "v:0@0,0"]),
    "act-symbolic": _cli(
        ["act", "--mode", "symbolic", "--word", "E13*E32", "--vector", "v:1@1,-1"]
    ),
    "factorization": _cli(["factorization"]),
    "factorization-s1-7": _cli(["factorization", "--s", "1,2,3,4,5,6,7"]),
    "generation": _table("generation"),
    "bench-setup": BENCH_SETUP,
}


@pytest.mark.parametrize("code", SYMPY_FREE_RUNS.values(), ids=SYMPY_FREE_RUNS.keys())
def test_numeric_paths_do_not_load_sympy(code):
    # No producer and no benchmark set-up loads sympy, whose import would
    # add its time and memory to every run: not the numeric sweeps, not
    # the symbolic brackets sweep (window 3,2,2), the proof identities or
    # the symbolic central words, which stay in ParamPolynomial
    # arithmetic, and not factorization, which reduces each ratio and
    # factors each obstruction by dividing out linear forms.  The gt
    # leakage splits are read off the generator table, and act applies its
    # word in the arithmetic of its mode.  Each run must pass, so its whole
    # path is covered.
    proc = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_sympy_guard_covers_the_acceptance_table():
    # every report the lock pins is among the runs checked above
    import producers

    runs = set(SYMPY_FREE_RUNS.values())
    for name, argv in producers.CLI_RUNS.items():
        assert _cli(argv) in runs, name
    for name in set(producers.PRODUCERS) - set(producers.CLI_RUNS):
        assert _table(name) in runs, name


def test_public_names_resolve():
    import wittmod

    names = wittmod.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(wittmod, name) for name in names)
    # the gl layer defines its two module families and no formal-sum type
    # of its own: gl generators act on tensor.ModuleElement
    defined = {
        name for name, value in vars(wittmod.glmod).items()
        if isinstance(value, type) and value.__module__ == "wittmod.glmod"
    }
    assert defined == {"CuspidalGl2", "FinDimGlModule"}
    assert defined <= set(names)
    # factorizations are plain tuples and reports are never read back:
    # scalars defines no result, parser or parse-error class
    scalar_types = {
        name for name, value in vars(wittmod.scalars).items()
        if isinstance(value, type) and value.__module__ == "wittmod.scalars"
    }
    assert scalar_types == {"ParamPolynomial", "Scalar"}
    removed = {"IotaFactorization", "ScalarParseError", "parse_scalar", "element_from_json"}
    assert not removed & set(names)


def _unused_imports(source: str) -> list:
    """The names a module's imports bind and no expression of it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports to re-export; every other module
    # imports only what it reads
    assert _unused_imports("import os.path\nfrom re import sub as s, fullmatch\ns()") == [
        "os", "fullmatch"
    ]
    modules = sorted((TESTS.parent / "src" / "wittmod").glob("*.py"))
    assert {"engine.py", "sl3.py", "tensor.py"} <= {path.name for path in modules}
    for path in modules:
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
