"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
from fractions import Fraction

import pytest

import run
import tracing
import workloads
import wittmod
from wittmod import engine, scalars, sl3, tensor
from run import BENCH_DIR


def test_command_offers_every_workload():
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests(name):
    keys = [r.key for r in workloads.build(name, 7)]
    assert keys == [r.key for r in workloads.build(name, 7)]
    assert keys != [r.key for r in workloads.build(name, 8)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_golden_covers_every_drawable_request(name):
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[name]
    for seed in range(20):
        assert all(r.golden_key in golden for r in workloads.build(name, seed))


def test_self_times_on_synthetic_tree():
    # root [0,10] holds a [1,4] (which holds g [2,3]) and b [5,9];
    # c [8,12] overlaps b and runs past the root's end
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = tracing.self_times(starts, ends, parents)
    # root: 10 minus the union of [1,4], [5,9] and [8,10] = 10 - 8
    assert got == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_wrappers_count_nested_and_reimported_calls():
    params = sl3.Params.numeric()
    x = sl3.basis_element(params, 0, (0, 0))
    word = sl3.parse_word("E13*E32")
    original_act_gen = sl3.act_gen
    original_add = vars(scalars.Scalar)["__add__"]
    original_basis = vars(tensor.ModuleElement)["basis"]
    symbolic = sl3.Params.symbolic()
    xs = sl3.basis_element(symbolic, 0, (0, 0))
    tracer = tracing.Tracer()
    tracer.install(wittmod)
    try:
        # act_word reaches act_gen through the sl3 namespace, twice
        sl3.act_word(params, word, x)
        # find_singular_vectors calls act_gen through the engine's import
        window = engine.Window.symmetric(0, 0, 0)
        engine.find_singular_vectors(params, window)
        # and the package re-exports it
        wittmod.act_gen(params, 1, 2, x)
        # poly_gcd recurses; only the outer call counts
        b, c = scalars.Scalar.sym("b").num, scalars.Scalar.sym("c").num
        scalars.poly_gcd(b * b * c, b * c * c)
        # Scalar arithmetic inside act_gen belongs to scalars, not sl3
        sl3.act_gen(symbolic, 1, 2, xs)
    finally:
        tracer.remove()
    assert sl3.act_gen is original_act_gen and engine.act_gen is original_act_gen
    assert vars(scalars.Scalar)["__add__"] is original_add
    assert vars(tensor.ModuleElement)["basis"] is original_basis
    names, _, _, parents = tracer.spans()

    def callers(name):
        return [
            names[parents[k]] if parents[k] >= 0 else None
            for k, n in enumerate(names)
            if n == name
        ]

    # at generic parameters E31 and E32 have no joint kernel on v_0(0,0),
    # so find_singular_vectors applies each once and certifies nothing
    assert callers("sl3.act_gen") == (
        ["sl3.act_word"] * 2 + ["engine.find_singular_vectors"] * 2 + [None] * 2
    )
    assert tracer.counters["sl3.act_gen.calls"] == 6
    assert tracer.counters["sl3.act_gen.terms"] == 6
    assert tracer.counters["scalars.poly_gcd.calls"] == 1
    # a method opens a span when called from another layer only; inside
    # it, its own layer's helpers run in its span
    assert "sl3.act_gen" in callers("scalars.Scalar.__add__")
    assert all(
        c is None or not c.startswith("scalars.")
        for n in set(names) if n.startswith("scalars.Scalar.")
        for c in callers(n)
    )
    self_s = tracer.self_time_by_name()
    assert self_s["scalars.Scalar.__add__"] > 0
    assert tracing.layer_metrics(tracer)["scalars.self_s"][0] >= self_s["scalars.Scalar.__add__"]


def test_traced_and_untraced_digests_equal():
    wedges = workloads._wedges()
    requests = [
        workloads._bracket_window(sl3.Params.symbolic(), 1, (0, -1)),
        workloads._d_intertwines(wedges, 0, (1, 0, -2), (2, -1, 1)),
        workloads._d_intertwines(wedges, 1, (0, 2, 1), (1, 1, 0)),
        workloads._irreducible_basis(0, (0, 0)),
    ]
    golden = {}
    for name in workloads.WORKLOADS:
        golden.update(json.loads((BENCH_DIR / "golden.json").read_text())[name])
    plain = run.run_pass(workloads, requests, golden, probe=False)
    tracer = tracing.Tracer()
    tracer.install(wittmod)
    root = tracer.name_id(tracing.REQUEST_SPAN)
    try:
        traced = run.run_pass(
            workloads, [run.in_request_span(tracer, root, r) for r in requests], golden, probe=False
        )
    finally:
        tracer.remove()
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    names = tracer.spans()[0]
    assert names.count(tracing.REQUEST_SPAN) == len(requests)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["tensor.act_witt.calls"][0] > 0
    assert metrics["scalars.poly_mul.calls"][0] > 0


def test_tail_keeps_ten_samples_beyond():
    values = [Fraction(k) for k in range(1, 63)]
    pct, value = run.tail(values)
    assert (pct, value) == (83, 52)
    assert sum(1 for v in values if v > value) >= run.TAIL_BEYOND


def test_gate_counts_every_mismatch():
    def boom():
        raise ValueError("bad input")

    requests = [
        workloads.Request("ok", lambda: ("pass", "report")),
        workloads.Request("wrong digest", lambda: ("pass", "other report")),
        workloads.Request("wrong verdict", lambda: ("fail", "report")),
        workloads.Request("raises", boom),
        workloads.Request("unrecorded", lambda: ("pass", "report")),
    ]
    entry = {"verdict": "pass", "sha256": workloads.digest("report")}
    golden = {r.key: entry for r in requests if r.key != "unrecorded"}
    result = run.run_pass(workloads, requests, golden, probe=False)
    assert [f["key"] for f in result["failures"]] == [r.key for r in requests[1:]]
    assert len(result["latencies"]) == len(requests)
