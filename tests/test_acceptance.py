"""Acceptance run and behaviour lock over one table of canonical reports.

``PRODUCERS`` holds every report the lock pins: each subcommand run
through ``cli.main`` at its default arguments (``act`` gets a minimal
word and vector), the rank-three ``derham --n 3``, the numeric bracket
sweep ``brackets --mode numeric --window 2,1,1``, which the default
symbolic ``brackets`` does not reach, plus ``generation``,
the irreducibility run of criterion 4.  Each report is
produced once per session and shared by the criteria, which read their
sub-reports from it.

Each criterion is a single test that prints its own PASS/FAIL line (run
pytest with -s to see them inline) and asserts the stated tolerance.
Criterion 11 replays every producer and demands byte-identical reports.
The lock tests compare each report with the SHA-256 digest recorded in
``report_digests.json``, so a report cannot drift between commits unless
a change re-records it on purpose, with

    PYTHONPATH=src python tests/test_acceptance.py > tests/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from wittmod.cli import main
from wittmod.engine import Window, check_irreducible
from wittmod.report import canonical_json, exit_code_for
from wittmod.sl3 import Params, basis_element

LOCK = Path(__file__).with_name("report_digests.json")

CLI_RUNS = {
    "check-generic": ["check-generic"],
    "act": ["act", "--word", "E11", "--vector", "v:0@0,0"],
    "brackets": ["brackets"],
    "brackets-numeric": ["brackets", "--mode", "numeric", "--window", "2,1,1"],
    "witt": ["witt"],
    "generate": ["generate"],
    "irreducible": ["irreducible"],
    "degenerate": ["degenerate"],
    "derham": ["derham"],
    "derham-n3": ["derham", "--n", "3"],
    "proof-identities": ["proof-identities"],
    "factorization": ["factorization"],
    "gt": ["gt"],
}


def cli_report(argv):
    """(stdout, parsed report) of one CLI run; its exit code must match
    the report's verdict."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    doc = json.loads(text)
    assert code == exit_code_for(doc["verdict"]), (argv, code, doc["verdict"])
    return text, doc


def generation_report():
    """Every basis vector of the 3 x 3 box around the origin regenerates
    the inner window."""
    params = Params.numeric()
    seeds = [basis_element(params, idx, pt) for idx, pt in Window.symmetric(2, 1, 1).basis()]
    doc = check_irreducible(params, Window.symmetric(4, 4, 4, margin=2), seeds=seeds)
    return canonical_json(doc), doc


PRODUCERS = {name: partial(cli_report, argv) for name, argv in CLI_RUNS.items()}
PRODUCERS["generation"] = generation_report

_CACHE: dict = {}
_TIMES: dict = {}


def produce(name: str):
    """(text, doc) of one report, computed once per session."""
    if name not in _CACHE:
        t0 = time.monotonic()
        _CACHE[name] = PRODUCERS[name]()
        _TIMES[name] = time.monotonic() - t0
    return _CACHE[name]


def report_line(num: int, ok: bool, label: str, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num}: {status} - {label}{tail}")
    assert ok, f"criterion {num} failed: {label}"


def gt_subchecks(check: str) -> list:
    return [s for s in produce("gt")[1]["subchecks"] if s["check"] == check]


def test_criterion_01_symbolic_structure_constants():
    doc = produce("brackets")[1]["sl3"]
    elapsed = _TIMES["brackets"]
    ok = doc["ok"] and doc["checked"] == 81 * 175 and elapsed < 60
    report_line(
        1, ok, "symbolic structure constants on |i|<=3, |r|<=2", f"{elapsed:.1f}s"
    )


def test_criterion_02_embedding_consistency():
    doc = produce("brackets")[1]["embedding"]
    ok = doc["ok"] and doc["checked"] == 9 * 175
    report_line(2, ok, "all nine generators match their vector-field route")


def test_criterion_03_witt_bracket_law():
    doc = produce("witt")[1]
    elapsed = _TIMES["witt"]
    ok = (
        doc["verdict"] == "pass"
        and doc["bracket_trials"] == 200
        and doc["jacobi_trials"] == 50
        and doc["bracket_failures"] == 0
        and doc["jacobi_failures"] == 0
        and all(c["ok"] for c in doc["gl_bracket_checks"])
        and elapsed < 120
    )
    report_line(3, ok, "bracket law on 200 random pairs + 50 Jacobi triples", f"{elapsed:.1f}s")


def test_criterion_04_seed_generation():
    doc = produce("generation")[1]
    elapsed = _TIMES["generation"]
    ok = (
        doc["verdict"] == "pass"
        and doc["seed_count"] == 45
        and all(s["ok"] and not s["missed"] for s in doc["subchecks"])
        and elapsed < 600
    )
    report_line(4, ok, "45/45 seeds regenerate the inner window", f"{elapsed:.1f}s")


def test_criterion_05_proof_identity_suite():
    doc = produce("proof-identities")[1]
    ok = (
        doc["verdict"] == "pass"
        and all(d["ok"] for d in doc["displays"])
        and {t["s"] for t in doc["truncations"]} == {1, 2, 3, 4}
        and all(t["ok"] for t in doc["truncations"])
    )
    report_line(5, ok, "display and cancellation identities for s in 1..4")


def test_criterion_06_factorization_oracle():
    doc = produce("factorization")[1]
    results = {r["s"]: r for r in doc["results"]}
    ok = doc["verdict"] == "pass" and set(results) == {1, 2, 3}
    for s, res in results.items():
        ok = ok and res["index_free"] and res["iota_free"]
        ok = ok and len(res["derived_factors"]) == 2
        first = res["first_factor"]
        ok = ok and first["matches"] and first["reference"] == f"c + 3*b - {s + 2}"
        second = res["second_factor"]
        ok = ok and second["reference"] == f"c - 3*b + {s + 3}"
        # the derived second factor disagrees with its reference form;
        # the discrepancy must be flagged, never suppressed
        ok = ok and (second["matches"] or doc["flags"])
    report_line(
        6, ok, "obstruction factors derived; second-factor discrepancy flagged",
        f"flags={len(doc['flags'])}",
    )


def test_criterion_07_gt_obstruction():
    (doc,) = gt_subchecks("gt-obstruction")
    ok = doc["verdict"] == "pass" and len(doc["operators"]) == 3
    for op in doc["operators"]:
        ok = ok and op["triangular_ok"] and op["extreme_nonzero_ok"]
        ok = ok and op["factors_covered"] and op["first_failure"] is None
        for pt in op["factor_analysis"]:
            for fac in pt["factors"]:
                cov = fac["covered_by"]
                ok = ok and cov is not None
                ok = ok and Fraction(cov["shift"]).denominator == 1
    report_line(7, ok, "quadratic-operator factors covered by named conditions")


def test_criterion_08_gt_centrality():
    central = {(s["m"], s["k"]): s for s in gt_subchecks("gt-central")}
    c31, c32 = central[(3, 1)], central[(3, 2)]
    ok = (
        c31["verdict"] == "pass"
        and c31["trace_zero"] is True
        and c31["failure_count"] == 0
        and c32["verdict"] == "pass"
        and c32["absorbed"]
        and c32["failure_count"] == 0
    )
    report_line(8, ok, "degree-one word acts as zero; degree-two word is central")


def test_criterion_09_degenerate_reducibility():
    doc = produce("degenerate")[1]
    ok = (
        doc["verdict"] == "pass"
        and doc["singular_count"] > 0
        and doc["missed_count"] >= 1
        and doc["proper"]
        and doc["witness"] is not None
    )
    report_line(
        9, ok, "integral parameters yield a proper submodule",
        f"witness v_{doc['witness']['index']} at {tuple(doc['witness']['r'])}",
    )


def test_criterion_10_derham():
    doc = produce("derham")[1]
    ok = (
        doc["verdict"] == "pass"
        and doc["dd_failures"] == 0
        and doc["intertwining_pairs"] == 625
        and doc["intertwining_failures"] == 0
        and doc["image_failures"] == 0
    )
    report_line(10, ok, "d squares to zero, intertwines, image invariant")


def test_criterion_11_determinism():
    ok = True
    for name, producer in PRODUCERS.items():
        if produce(name)[0] != producer()[0]:
            ok = False
            print(f"  nondeterministic report: {name}")
    report_line(11, ok, f"all {len(PRODUCERS)} certificates reproduce byte for byte")


# -- the behaviour lock ---------------------------------------------------


def digest(name: str) -> str:
    return hashlib.sha256(produce(name)[0].encode()).hexdigest()


def lock_text() -> str:
    """The lock file's contents, recorded from this session's reports."""
    return json.dumps({name: digest(name) for name in PRODUCERS}, indent=2, sort_keys=True) + "\n"


def test_every_producer_is_recorded():
    assert set(json.loads(LOCK.read_text())) == set(PRODUCERS)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_report_matches_recorded_digest(name):
    assert digest(name) == json.loads(LOCK.read_text())[name]


def test_reports_match_recorded_digests():
    assert lock_text() == LOCK.read_text()


if __name__ == "__main__":
    sys.stdout.write(lock_text())
