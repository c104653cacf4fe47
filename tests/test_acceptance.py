"""Acceptance run: the eleven desk-scale certificates, one line each.

Each criterion is a single test that prints its own PASS/FAIL line (run
pytest with -s to see them inline) and asserts the stated tolerance.
Criterion 11 replays every producer and demands byte-identical reports;
the last test compares each report with a SHA-256 digest recorded in
``report_digests.json``, so a report cannot drift between commits either.
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

from wittmod.engine import (
    Window,
    check_degenerate_reducibility,
    check_irreducible,
    derham_report,
    gt_central_check,
    gt_obstruction,
    proof_report,
    recursion_factorization_oracle,
    witt_consistency_report,
)
from wittmod.report import canonical_json
from wittmod.sl3 import (
    DEGENERATE_VALUES,
    Params,
    verify_embedding,
    verify_sl3_brackets,
)

NUM = Params.numeric()
SYM = Params.symbolic()
DEG = Params.numeric(DEGENERATE_VALUES)

BRACKET_WINDOW = Window.symmetric(3, 2, 2)
CENTRAL_WINDOW = Window.symmetric(4, 3, 3, margin=2)

_CACHE: dict = {}
_TIMES: dict = {}


def produce(name: str):
    if name not in _CACHE:
        t0 = time.monotonic()
        _CACHE[name] = PRODUCERS[name]()
        _TIMES[name] = time.monotonic() - t0
    return _CACHE[name]


PRODUCERS = {
    "structure-constants": lambda: verify_sl3_brackets(
        SYM, BRACKET_WINDOW.points(), BRACKET_WINDOW.indices()
    ),
    "embedding": lambda: verify_embedding(
        SYM, BRACKET_WINDOW.points(), BRACKET_WINDOW.indices()
    ),
    "witt-law": witt_consistency_report,
    "generation": lambda: check_irreducible(
        NUM,
        Window.symmetric(4, 4, 4, margin=2),
        seed_box=Window.symmetric(2, 1, 1),
        random_counts=(0, 0),
    ),
    "proof-identities": lambda: proof_report((1, 2, 3, 4)),
    "factorization": lambda: recursion_factorization_oracle((1, 2, 3)),
    "gt-obstruction": lambda: gt_obstruction(NUM, Window.symmetric(4, 2, 2)),
    "gt-central": lambda: {
        "c31": gt_central_check(SYM, CENTRAL_WINDOW, 3, 1),
        "c32": gt_central_check(SYM, CENTRAL_WINDOW, 3, 2),
    },
    "degenerate": lambda: check_degenerate_reducibility(
        DEG, Window.symmetric(4, 4, 4, margin=2)
    ),
    "derham": derham_report,
}


def report_line(num: int, ok: bool, label: str, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num}: {status} - {label}{tail}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_symbolic_structure_constants():
    doc = produce("structure-constants")
    elapsed = _TIMES["structure-constants"]
    ok = doc["ok"] and doc["checked"] == 81 * 175 and elapsed < 60
    report_line(
        1, ok, "symbolic structure constants on |i|<=3, |r|<=2", f"{elapsed:.1f}s"
    )


def test_criterion_02_embedding_consistency():
    doc = produce("embedding")
    ok = doc["ok"] and doc["checked"] == 9 * 175
    report_line(2, ok, "all nine generators match their vector-field route")


def test_criterion_03_witt_bracket_law():
    doc = produce("witt-law")
    elapsed = _TIMES["witt-law"]
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
    doc = produce("generation")
    elapsed = _TIMES["generation"]
    ok = (
        doc["verdict"] == "pass"
        and doc["seed_count"] == 45
        and all(s["ok"] and not s["missed"] for s in doc["subchecks"])
        and elapsed < 600
    )
    report_line(4, ok, "45/45 seeds regenerate the inner window", f"{elapsed:.1f}s")


def test_criterion_05_proof_identity_suite():
    doc = produce("proof-identities")
    ok = (
        doc["verdict"] == "pass"
        and all(d["ok"] for d in doc["displays"])
        and {t["s"] for t in doc["truncations"]} == {1, 2, 3, 4}
        and all(t["ok"] for t in doc["truncations"])
    )
    report_line(5, ok, "display and cancellation identities for s in 1..4")


def test_criterion_06_factorization_oracle():
    doc = produce("factorization")
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
    doc = produce("gt-obstruction")
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
    doc = produce("gt-central")
    c31, c32 = doc["c31"], doc["c32"]
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
    doc = produce("degenerate")
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
    doc = produce("derham")
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
        first = canonical_json(produce(name))
        second = canonical_json(producer())
        if first != second:
            ok = False
            print(f"  nondeterministic report: {name}")
    report_line(11, ok, "all ten certificates reproduce byte for byte")


def test_reports_match_recorded_digests():
    recorded = json.loads(Path(__file__).with_name("report_digests.json").read_text())
    assert set(recorded) == set(PRODUCERS)
    changed = [
        name
        for name in PRODUCERS
        if hashlib.sha256(canonical_json(produce(name)).encode()).hexdigest()
        != recorded[name]
    ]
    assert not changed, f"reports differ from their recorded digests: {changed}"
