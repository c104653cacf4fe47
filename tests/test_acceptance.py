"""Acceptance run and behaviour lock over the table of canonical reports
in ``producers.py``.

Each report is produced once per session and shared by the criteria,
which read their sub-reports from it.  Each criterion is a single test
that prints its own PASS/FAIL line (run pytest with -s to see them
inline) and asserts the stated tolerance.  Criterion 11 replays every
producer and demands byte-identical reports.  The lock tests compare
each report with the SHA-256 digest recorded in ``report_digests.json``;
one of them runs every producer with no site-packages on the path, so
the reports are shown to need only the standard library and ``src/``.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from producers import PRODUCERS, lock_text, sha256_of

TESTS = Path(__file__).parent
LOCK = TESTS / "report_digests.json"

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
    return sha256_of(produce(name)[0])


def test_every_producer_is_recorded():
    assert set(json.loads(LOCK.read_text())) == set(PRODUCERS)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_report_matches_recorded_digest(name):
    assert digest(name) == json.loads(LOCK.read_text())[name]


def test_reports_match_recorded_digests():
    assert lock_text({name: produce(name)[0] for name in PRODUCERS}) == LOCK.read_text()


def test_every_producer_runs_on_the_standard_library_alone():
    # python -S leaves site-packages off the path, and with it sympy,
    # pytest and hypothesis: every pinned report must still print its
    # recorded digest
    proc = subprocess.run(
        [sys.executable, "-S", str(TESTS / "producers.py")],
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    printed, pinned = json.loads(proc.stdout), json.loads(LOCK.read_text())
    assert len(pinned) == 14 and printed.keys() == pinned.keys()
    assert [name for name in pinned if printed[name] != pinned[name]] == []
