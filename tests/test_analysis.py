"""Window closures, module checks, and the factorization oracle."""

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.polys.rings import PolyElement

from wittmod import engine, glmod, scalars, sl3, tensor
from wittmod.cli import main
from wittmod.engine import (
    DEFAULT_WORDS,
    GT_OBSTRUCTION_OPS,
    SubspaceBasis,
    Window,
    _randbelow,
    check_degenerate_reducibility,
    check_generation,
    check_irreducible,
    closure,
    derham_report,
    find_singular_vectors,
    gt_central_check,
    gt_obstruction,
    nullspace,
    proof_report,
    recursion_factorization_oracle,
    witt_consistency_report,
)
from wittmod.glmod import CuspidalGl2, FinDimGlModule, exterior_power
from wittmod.report import canonical_json
from wittmod.scalars import (
    IOTA,
    ONE,
    SYMBOLS,
    ParamPolynomial,
    Scalar,
    add_term,
    iota_split,
    scalar_to_text,
    shift_symbols,
)
from wittmod.sl3 import (
    DEFAULT_VALUES,
    DEGENERATE_VALUES,
    GENERATORS,
    Params,
    act_gen,
    act_word,
    basis_element,
    check_generic,
    lattice_shift,
    lowering_operator,
    moved,
    parse_word,
    raising_operator,
    verify_embedding,
    verify_sl3_brackets,
    word_path,
    word_shift,
)
from wittmod.tensor import ModuleElement, verify_d_intertwines

from sympy_reference import lowest_terms

NUM = Params.numeric()
DEG = Params.numeric(DEGENERATE_VALUES)
WEDGES2 = [exterior_power(2, k) for k in range(3)]


# -- windows ----------------------------------------------------------------


def test_window_geometry():
    w = Window.symmetric(3, 2, 2, margin=1)
    assert w.contains(3, (0, 0)) and not w.contains(4, (0, 0))
    assert w.contains(2, (0, 0), inner=True) and not w.contains(3, (0, 0), inner=True)
    assert w.contains(0, (2, -2)) and not w.contains(0, (3, 0))
    assert not w.contains(0, (2, 2), inner=True)
    assert w.contains(0, (1, 1), inner=True)
    assert not w.contains(4, (3, 0)) and not w.contains(0, (0,))
    assert len(w.points()) == 25 and len(w.points(inner=True)) == 9
    assert len(w.basis()) == 175 and len(w.basis(inner=True)) == 45
    assert w.to_json() == {"i": [-3, 3], "r": [[-2, 2], [-2, 2]], "margin": 1}


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0, 1, ((0, 1), (0, 1)), margin=-1)
    with pytest.raises(ValueError):
        Window(0, 1, ((0, 1), (0, 1)), margin=2)  # inner box empty
    for axes in (((-1, 1),), ((-1, 1),) * 3):
        with pytest.raises(ValueError, match=f"^window needs two lattice axes, got {len(axes)}$"):
            Window(-1, 1, axes)


@pytest.mark.parametrize(
    "bounds",
    [
        (0.5, 2.7, ((-1.9, 1.2), (0, 0))),
        (0, 2, ((-1, Fraction(3, 2)), (0, 0))),
        (0, 2, ((-1, 1), (0, 0)), Fraction(1, 2)),
    ],
    ids=["floats", "fraction-bound", "fraction-margin"],
)
def test_window_refuses_non_integral_bounds(bounds):
    with pytest.raises(ValueError):
        Window(*bounds)


def test_window_accepts_integral_fractions():
    w = Window(Fraction(-2, 2), Fraction(4, 2), ((0, Fraction(3)), (0, 0)))
    assert w.to_json() == {"i": [-1, 2], "r": [[0, 3], [0, 0]], "margin": 0}
    assert all(type(v) is int for v in (w.i_min, w.i_max, *w.r_bounds[0]))


def test_truncation_lengths_must_be_integers():
    with pytest.raises(ValueError):
        recursion_factorization_oracle([Fraction(3, 2)])
    with pytest.raises(ValueError):
        proof_report([2.5])
    assert recursion_factorization_oracle([Fraction(2, 2)])["s_values"] == [1]


def test_truncation_lengths_refuse_a_repeat():
    # a repeated length used to run its identities or its oracle twice and
    # print both entries
    with pytest.raises(ValueError, match="truncation length 2 is repeated"):
        recursion_factorization_oracle([2, 3, 2])
    with pytest.raises(ValueError, match="truncation length 1 is repeated"):
        proof_report([1, Fraction(2, 2)])


@pytest.mark.parametrize("s_values", [[], [-1], [0], [2.5]], ids=["empty", "-1", "0", "2.5"])
def test_proof_identities_validate_their_lengths(s_values):
    with pytest.raises(ValueError, match="non-empty list of positive integers"):
        sl3.proof_identity_report(s_values)


# -- row reduction ------------------------------------------------------------


def _assert_canonical(rows):
    # insertion order: each row is zero at every earlier row's pivot
    pivots = [p for p, _ in rows]
    assert len(set(pivots)) == len(pivots)
    for k, (p, r) in enumerate(rows):
        assert not any(q in r for q in pivots[:k])
        assert all(type(v) is int and v for v in r.values())
        assert min(r) == p and r[p] > 0 and math.gcd(*r.values()) == 1


def _assert_same_span(a, b):
    """Two ``SubspaceBasis`` objects span the same subspace at every point:
    the same rank, and each one's stored rows reduce to nothing in the other."""
    for pt in set(a.by_point) | set(b.by_point):
        assert a.rank(pt) == b.rank(pt)
        assert all(not b.reduce(pt, r) for _, r in a.by_point.get(pt, []))
        assert all(not a.reduce(pt, r) for _, r in b.by_point.get(pt, []))


def test_subspace_basis_canonical_rows():
    pt = (0, 0)
    sb = SubspaceBasis()
    assert sb.insert(pt, {1: 2, 3: 3}) == {1: 2, 3: 3}  # primitive pivot 2
    # a negative leading entry: the stored row is signed so its pivot is positive
    assert sb.insert(pt, {0: Fraction(-1, 2), 1: 1, 4: Fraction(3, 2)}) == {0: 1, 3: 3, 4: -3}
    assert sb.by_point[pt] == [(1, {1: 2, 3: 3}), (0, {0: 1, 3: 3, 4: -3})]
    _assert_canonical(sb.by_point[pt])
    # the same span from other vectors, in the other order
    other = SubspaceBasis()
    other.insert(pt, {0: 3, 1: -6, 4: -9})
    other.insert(pt, {1: Fraction(-4, 5), 3: Fraction(-6, 5)})
    _assert_same_span(other, sb)
    # the returned row is zero at every earlier pivot; stored rows stay as
    # they were returned, in insertion order
    assert sb.insert(pt, {1: Fraction(5), 3: Fraction(10)}) == {3: 1}
    assert sb.by_point[pt] == [(1, {1: 2, 3: 3}), (0, {0: 1, 3: 3, 4: -3}), (3, {3: 1})]
    _assert_canonical(sb.by_point[pt])
    assert sb.insert(pt, {0: 2, 3: 7, 4: -6}) is None  # dependent
    assert sb.contains(pt, {3: Fraction(7)})
    assert sb.contains_basis(pt, 1) and sb.contains_basis(pt, 3)
    assert not sb.contains_basis(pt, 0)
    assert sb.rank(pt) == 3 and sb.total_rank() == 3


def test_closure_and_elimination_never_hold_floats():
    w = Window.symmetric(2, 2, 2, 1)
    basis, _ = closure(NUM, [basis_element(NUM, 0, (0, 0))], DEFAULT_WORDS, w)
    stored = [v for rows in basis.by_point.values() for _, r in rows for v in r.values()]
    assert stored and all(type(v) is int for v in stored)
    sb = SubspaceBasis()
    sb.insert((0, 0), {0: 1, 1: 3})
    assert not any(isinstance(v, float) for _, r in sb.by_point[(0, 0)] for v in r.values())
    ker = nullspace([[1, 2, 3], [0, 2, 1]], 3)
    assert ker and all(type(v) is Fraction for vec in ker for v in vec)
    with pytest.raises(TypeError):
        sb.insert((0, 0), {2: 0.5})


def test_subspace_basis_takes_int_rows_as_they_are_and_never_holds_them():
    pt = (0, 0)
    sb = SubspaceBasis()
    row = {1: 2, 3: 4}
    assert engine._integer_row(row) is row  # nonzero ints: no copy, no check per entry
    assert sb.insert(pt, row) == {1: 1, 3: 2}
    assert row == {1: 2, 3: 4}
    row[1] = 5
    assert sb.by_point[pt] == [(1, {1: 1, 3: 2})]
    # a row that meets no stored pivot is stored as a new dict too
    row = {0: 3, 2: -6}
    red = sb.insert(pt, row)
    assert red == {0: 1, 2: -2} and red is not row and sb.by_point[pt][-1][1] is red
    # rows that are not nonzero ints: zeros dropped, Fractions cleared,
    # inexact and symbolic entries refused
    assert sb.reduce(pt, {0: 0, 4: 5}) == {4: 1}
    assert sb.reduce(pt, {4: Fraction(1, 2), 5: Fraction(3)}) == {4: 1, 5: 6}
    for bad in (0.5, Scalar.sym("c")):
        with pytest.raises(TypeError):
            sb.insert(pt, {4: 1, 5: bad})
    assert sb.rank(pt) == 2


def test_subspace_rank_matches_sympy():
    rnd = random.Random(5)
    pt = (0, 0)
    for _ in range(12):
        vecs = [
            {i: Fraction(rnd.randint(-3, 3)) for i in range(5) if rnd.random() < 0.7}
            for _ in range(rnd.randint(1, 7))
        ]
        vecs = [{i: c for i, c in v.items() if c} for v in vecs]
        sb = SubspaceBasis()
        for v in vecs:
            if v:
                sb.insert(pt, dict(v))
        mat = sympy.Matrix([[v.get(i, 0) for i in range(5)] for v in vecs if v])
        expected = mat.rank() if vecs else 0
        assert sb.rank(pt) == expected


def test_nullspace_pinned():
    ker = nullspace([[Fraction(1), Fraction(2)]], 2)
    assert ker == [[Fraction(-2), Fraction(1)]]
    rows = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    ker = nullspace(rows, 3)
    assert len(ker) == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, ker[0])) == 0


def test_every_basis_of_a_span_reduces_alike_and_keeps_its_rows():
    # two spanning sets of one subspace (the second a unitriangular integer
    # recombination of the first, shuffled) often store different echelon rows
    # but reduce every probe alike, so each row a closure pushes is the
    # same; a stored row is the dict insert returned, kept in insertion
    # order and never rewritten
    rnd = random.Random(11)
    pt = (0, 0)
    for _ in range(60):
        n = rnd.randint(2, 6)
        gens = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(rnd.randint(1, n + 1))]
        mixed = []
        for j, a in enumerate(gens):
            mixed.append(list(a))
            for b in gens[j + 1:]:
                c = rnd.randint(-2, 2)
                mixed[-1] = [x + c * y for x, y in zip(mixed[-1], b)]
        rnd.shuffle(mixed)
        first, second = SubspaceBasis(), SubspaceBasis()
        returned = []
        for vec in gens:
            red = first.insert(pt, {k: v for k, v in enumerate(vec) if v})
            if red is not None:
                returned.append((red, dict(red)))
        for vec in mixed:
            second.insert(pt, {k: Fraction(v, 3) for k, v in enumerate(vec) if v})
        _assert_same_span(first, second)
        _assert_canonical(first.by_point.get(pt, []))
        _assert_canonical(second.by_point.get(pt, []))
        for _ in range(8):
            probe = {k: rnd.randint(-4, 4) for k in range(n)}
            probe = {k: v for k, v in probe.items() if v}
            assert first.reduce(pt, probe) == second.reduce(pt, probe)
        # stored in insertion order: the dicts insert returned, one by one
        stored = [r for _, r in first.by_point.get(pt, [])]
        assert list(map(id, stored)) == [id(red) for red, _ in returned]
        assert all(red == copy for red, copy in returned)


@pytest.mark.parametrize(
    "rows",
    [
        # row 0 keeps entries at both later pivots; the last is pivot-only
        [[1, 2, 3, 4], [0, 1, 5, 0], [0, 0, 0, 3]],
        [[2, 4, 1, 0, 6], [0, 3, 0, 1, 1], [0, 0, 7, 0, 0]],
        [[0, 1, 1], [0, 0, 2], [0, 3, 1]],
    ],
)
def test_nullspace_back_substitutes_an_unreduced_echelon_form(rows):
    ncols = len(rows[0])
    sb = SubspaceBasis()
    for r in rows:
        sb.insert(None, dict(enumerate(r)))
    echelon = sb.by_point[None]
    pivots = [p for p, _ in echelon]
    # the premise: the stored form is not reduced, and some row is pivot-only
    assert any(q in r for p, r in echelon for q in pivots if q != p)
    assert any(len(r) == 1 for _, r in echelon)
    _assert_kernel(rows, ncols)


def _assert_kernel(rows, ncols):
    """``nullspace`` gives Fraction vectors that annihilate every row, as
    many as sympy's rank leaves."""
    ker = nullspace(rows, ncols)
    assert all(type(v) is Fraction for vec in ker for v in vec)
    assert len(ker) == ncols - sympy.Matrix(rows).rank()
    for vec in ker:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_nullspace_matches_sympy_on_random_matrices():
    rnd = random.Random(3)
    for _ in range(40):
        ncols = rnd.randint(1, 6)
        nrows = rnd.randint(1, 5)
        rows = [[rnd.choice([0, 0, 1, -2, 3]) for _ in range(ncols)] for _ in range(nrows)]
        _assert_kernel(rows, ncols)


# -- closure -----------------------------------------------------------------


def test_closure_single_word_orbit():
    w = Window.symmetric(2, 2, 2, margin=1)
    basis, stats = closure(NUM, [basis_element(NUM, 0, (0, 0))], [((3, 1),)], w)
    # E31 only walks left along r1 with eigen coefficient r1 + a1 - b - l - iota... nonzero
    assert sorted(basis.points()) == [(-2, 0), (-1, 0), (0, 0)]
    assert stats["rank"] == 3 and stats["exhausted"]


@pytest.mark.parametrize("params", [NUM, Params.symbolic()], ids=["numeric", "symbolic"])
def test_default_words_map_a_point_to_its_shifted_point(params):
    # closure computes each word's target point from word_shift alone
    for letters in DEFAULT_WORDS:
        shift = word_shift(letters)
        for idx in (-1, 0, 2):
            for pt in ((0, 0), (2, -1), (-3, 1)):
                y = act_word(params, letters, basis_element(params, idx, pt))
                assert not y.is_zero()
                assert y.support_points() == {(pt[0] + shift[0], pt[1] + shift[1])}


def test_closure_no_words_is_span_of_seeds():
    w = Window.symmetric(2, 2, 2)
    seeds = [
        basis_element(NUM, 0, (0, 0)),
        basis_element(NUM, 1, (0, 0)),
        basis_element(NUM, 0, (0, 0)) + basis_element(NUM, 1, (0, 0)),
    ]
    basis, stats = closure(NUM, seeds, [], w)
    assert stats["rank"] == 2  # third seed is dependent


def test_closure_idempotent_and_monotone():
    w = Window.symmetric(2, 1, 1, margin=0)
    words = [parse_word("E12"), parse_word("E21")]
    seed = basis_element(NUM, 0, (0, 0))
    basis1, stats1 = closure(NUM, [seed], words, w)
    again = [
        basis_element(NUM, 0, (0, 0)),
        basis_element(NUM, 1, (1, -1)),
    ]
    basis2, stats2 = closure(NUM, again, words, w)
    assert stats2["rank"] >= stats1["rank"]
    # feeding the closure its own conclusions changes nothing
    assert stats2["rank"] == stats1["rank"] or not basis1.contains_basis((1, -1), 1)


@pytest.mark.parametrize(
    "word, name", [(((4, 4),), "E44"), (((1, 2), (0, 1)), "E01")], ids=["E44", "E01"]
)
def test_closure_refuses_a_letter_outside_the_nine_generators(monkeypatch, word, name):
    # E44 would pass for a diagonal word and be skipped, E01 reach the
    # generator table; both are refused by name before any row is bound
    def must_not_run(params):
        raise AssertionError("closure bound its rows before checking its words")

    monkeypatch.setattr(engine, "row_action", must_not_run)
    seed, window = basis_element(NUM, 0, (0, 0)), Window.symmetric(1, 1, 1)
    with pytest.raises(ValueError, match=f"^no generator {name}$"):
        closure(NUM, [seed], [*DEFAULT_WORDS, word], window)


def test_closure_rejects_bad_seeds():
    w = Window.symmetric(1, 1, 1)
    with pytest.raises(ValueError):
        closure(NUM, [basis_element(NUM, 5, (0, 0))], [], w)  # index outside
    with pytest.raises(ValueError):
        closure(NUM, [basis_element(NUM, 0, (9, 0))], [], w)  # point outside
    sym = Params.symbolic()
    with pytest.raises(ValueError, match="numeric parameters"):
        closure(sym, [basis_element(sym, 0, (0, 0))], [], w)  # no integer columns
    with pytest.raises(ValueError):
        closure(NUM, [ModuleElement.zero(NUM.alpha())], [], w)


# -- generation and irreducibility --------------------------------------------


def test_generation_fills_all_stages():
    doc = check_generation(NUM, Window.symmetric(4, 4, 4, margin=2))
    assert doc["verdict"] == "pass"
    got = [(s["stage"], s["reached"], s["targets"]) for s in doc["subchecks"]]
    assert got == [("antidiagonal", 25, 25), ("lower-levels", 75, 75), ("full", 125, 125)]
    assert all(not s["missed"] for s in doc["subchecks"])


def test_generation_refuses_symbolic_params():
    doc = check_generation(Params.symbolic(), Window.symmetric(2, 2, 2, margin=1))
    assert doc["verdict"] == "refused"


def test_generation_refuses_degenerate_params():
    doc = check_generation(DEG, Window.symmetric(2, 2, 2, margin=1))
    assert doc["verdict"] == "refused"
    assert doc["reason"] == "genericity condition a1-b-l fails"
    assert doc["generic"] == check_generic(DEG)


def test_generation_rejects_spread_seed():
    w = Window.symmetric(2, 2, 2, margin=1)
    seed = basis_element(NUM, 0, (0, 0)) + basis_element(NUM, 1, (1, 0))
    with pytest.raises(ValueError):
        check_generation(NUM, w, seed=seed)


def test_irreducible_small_window():
    doc = check_irreducible(NUM, Window.symmetric(3, 2, 2, margin=1), random_count=2)
    assert doc["verdict"] == "pass"
    assert doc["seed_count"] == 49  # 45 inner basis seeds + 2 + 2 random
    assert all(s["ok"] and not s["missed"] for s in doc["subchecks"])


def test_irreducible_rejects_seed_box_too_small_for_random_seeds():
    w = Window.symmetric(1, 1, 1, margin=1)  # one inner basis vector
    with pytest.raises(ValueError, match="too few for 2-term random seeds"):
        check_irreducible(NUM, w)
    # without random seeds the one inner basis vector would be both the
    # only seed and the only target
    with pytest.raises(ValueError, match="inner window holds one basis vector"):
        check_irreducible(NUM, w, random_count=0)


SMALL = Window.symmetric(2, 2, 2, margin=1)  # 27 basis + 4 random seeds at random_count=2
ANCHOR = (0, (0, 0))


def _spy_closure(monkeypatch, keep_stop=True):
    """Record (stop_at, exhausted) of every closure the engine runs; with
    ``keep_stop=False`` each closure ignores stop_at and runs to exhaustion."""
    calls = []
    run = engine.closure

    def spy(params, seeds, words, window, stop_at=None):
        basis, stats = run(params, seeds, words, window, stop_at=stop_at if keep_stop else None)
        calls.append((stop_at, stats["exhausted"]))
        return basis, stats

    monkeypatch.setattr(engine, "closure", spy)
    return calls


def test_irreducible_chained_report_equals_exhaustive(monkeypatch):
    engine._anchor_rank.cache_clear()
    calls = _spy_closure(monkeypatch)
    chained = check_irreducible(NUM, SMALL, random_count=2)
    # one anchor closure, then every default seed stops at the anchor
    assert calls == [(None, True)] + [(ANCHOR, False)] * 31
    monkeypatch.undo()
    calls = _spy_closure(monkeypatch, keep_stop=False)
    assert check_irreducible(NUM, SMALL, random_count=2) == chained
    assert [exhausted for _, exhausted in calls] == [True] * 31
    assert chained["verdict"] == "pass"


def test_irreducible_without_full_anchor_runs_every_seed_to_exhaustion(monkeypatch):
    chained = check_irreducible(NUM, SMALL, random_count=2)
    monkeypatch.setattr(engine, "_anchor_rank", lambda key, bounds: len(SMALL.basis()) - 1)
    calls = _spy_closure(monkeypatch)
    assert check_irreducible(NUM, SMALL, random_count=2) == chained
    assert calls == [(None, True)] * 31


def test_anchor_closure_is_shared_by_equal_parameter_vectors():
    # each one-seed CLI call builds its own Params.numeric(); equal
    # vectors hash equal, so the anchor's closure runs once per point and box
    engine._anchor_rank.cache_clear()
    first, second = Params.numeric(), Params.numeric()
    assert first is not second and first == second
    for params in (first, second):
        doc = check_irreducible(params, SMALL, seeds=[basis_element(params, 1, (1, -1))])
        assert doc["verdict"] == "pass"
    info = engine._anchor_rank.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_closure_stops_once_the_anchor_is_in_the_span():
    seed = basis_element(NUM, 1, (1, -1))
    _, full = closure(NUM, [seed], DEFAULT_WORDS, SMALL)
    basis, stats = closure(NUM, [seed], DEFAULT_WORDS, SMALL, stop_at=ANCHOR)
    assert full["exhausted"] and full["rank"] == len(SMALL.basis())
    assert not stats["exhausted"] and basis.contains_basis((0, 0), 0)
    assert stats["rows_processed"] < full["rows_processed"]
    # an anchor the words cannot reach: the closure runs to exhaustion
    basis, stats = closure(NUM, [seed], [parse_word("E12")], SMALL, stop_at=ANCHOR)
    assert stats["exhausted"] and not basis.contains_basis((0, 0), 0)


@pytest.mark.parametrize(
    "params, seeds, words, target",
    [
        (NUM, [basis_element(NUM, 1, (1, -1))], [parse_word("E12")], ANCHOR),
        # the degenerate closure of the singular vectors misses v_-1(-1,-1)
        (DEG, find_singular_vectors(DEG, SMALL), DEFAULT_WORDS, (-1, (-1, -1))),
    ],
    ids=["E12-only", "degenerate"],
)
def test_closure_order_cannot_change_an_exhausted_closure(params, seeds, words, target):
    # breadth-first without stop_at, nearest to the target first with it:
    # a closure that never reaches its target ends with the same rows
    bfs, bfs_stats = closure(params, seeds, words, SMALL)
    assert not bfs.contains_basis(target[1], target[0])
    directed, stats = closure(params, seeds, words, SMALL, stop_at=target)
    assert stats["exhausted"]
    _assert_same_span(directed, bfs)
    # each stored row was processed once, in either order
    assert stats["rows_processed"] == bfs_stats["rows_processed"] == bfs.total_rank()
    assert stats["rank"] == bfs_stats["rank"]


def test_every_inner_basis_seed_of_the_default_window_stops_at_the_anchor():
    window = Window.symmetric(4, 4, 4, margin=2)
    anchor = engine._anchor(window)
    assert anchor == ANCHOR
    for idx, pt in window.basis(inner=True):
        basis, stats = closure(
            NUM, [basis_element(NUM, idx, pt)], DEFAULT_WORDS, window, stop_at=anchor
        )
        assert not stats["exhausted"] and basis.contains_basis(anchor[1], anchor[0])


@pytest.mark.parametrize(
    "seed",
    [
        basis_element(NUM, 0, (0, 0)),
        basis_element(NUM, 0, (0, 0)) + basis_element(NUM, 1, (1, 0)).scale(Fraction(-2, 3)),
    ],
    ids=["anchor", "anchor-plus-other-point"],
)
def test_seed_spanning_the_anchor_stops_before_any_round(monkeypatch, seed):
    basis, stats = closure(NUM, [seed], DEFAULT_WORDS, SMALL, stop_at=ANCHOR)
    assert (stats["rounds"], stats["rows_processed"], stats["exhausted"]) == (0, 0, False)
    doc = check_irreducible(NUM, SMALL, seeds=[seed])
    assert doc["verdict"] == "pass" and doc["subchecks"][0]["rank"] == len(SMALL.basis())
    _spy_closure(monkeypatch, keep_stop=False)
    assert check_irreducible(NUM, SMALL, seeds=[seed]) == doc


@pytest.mark.parametrize(
    "seed, message",
    [
        (ModuleElement.zero(NUM.alpha()), "zero seed"),
        (ModuleElement.basis((0, 0), 0, (0, 0)), "twist"),
        (basis_element(NUM, 9, (0, 0)), "outside the window"),
    ],
    ids=["zero", "twist", "outside"],
)
def test_irreducible_checks_seeds_before_the_anchor(monkeypatch, seed, message):
    def no_anchor(key, bounds):
        raise AssertionError("anchor closure ran before the seeds were checked")

    monkeypatch.setattr(engine, "_anchor_rank", no_anchor)
    with pytest.raises(ValueError, match=message):
        check_irreducible(NUM, SMALL, seeds=[basis_element(NUM, 0, (0, 0)), seed])


def test_cli_irreducible_anchor_seed_passes(capsys):
    assert main(["irreducible", "--seed", "v:0@0,0", "--window", "2,2,2,1"]) == 0
    assert json.loads(capsys.readouterr().out)["subchecks"][0]["ok"] is True


@pytest.mark.parametrize(
    "run",
    [
        lambda: witt_consistency_report(bracket_trials=-1),
        lambda: witt_consistency_report(jacobi_trials=-1),
        lambda: witt_consistency_report(bracket_trials=0, jacobi_trials=0),
        lambda: derham_report(box_bound=-1),
        lambda: derham_report(uv_bound=-1),
        lambda: check_irreducible(NUM, Window.symmetric(2, 2, 2, margin=1), random_count=-1),
        lambda: derham_report(uv_bound=0),
        lambda: check_irreducible(NUM, Window.symmetric(2, 2, 2, margin=1), seeds=[]),
        lambda: verify_sl3_brackets(NUM, [], range(2)),
        lambda: verify_sl3_brackets(NUM, [(0, 0)], range(0)),
        lambda: verify_embedding(NUM, [], range(2)),
        lambda: verify_embedding(NUM, [(0, 0)], []),
        lambda: verify_d_intertwines((1, 0), (0, 1), NUM.alpha(), [], 2, 0, WEDGES2),
        lambda: verify_d_intertwines((1, 0), (0, 1), NUM.alpha(), iter(()), 2, 0, WEDGES2),
        lambda: verify_d_intertwines((1, 0), (0, 1), NUM.alpha(), [(0, 0), (0, 0)], 2, 0, WEDGES2),
        lambda: verify_d_intertwines((0.1, 0.2), (1, 0), NUM.alpha(), [(0, 0), (1, 1)], 2, 0, WEDGES2),
        lambda: verify_d_intertwines((1, 0), (1, 0), (0.1, 0.3), [(0, 0), (1, 1)], 2, 0, WEDGES2),
        lambda: sl3.act_gen(NUM, 1, 2, ModuleElement.basis(NUM.alpha(), 0.5, (0, 0))),
        lambda: sl3.act_gen(NUM, 1, 2, ModuleElement.basis(NUM.alpha(), Fraction(1, 2), (0, 0))),
        lambda: proof_report([]),
        lambda: proof_report([0]),
        lambda: proof_report([-1]),
        lambda: recursion_factorization_oracle([]),
        lambda: proof_report([1, 1]),
        lambda: recursion_factorization_oracle([2, 3, 2]),
        lambda: derham_report(n=4),
        lambda: derham_report(n=1),
    ],
    ids=[
        "witt-trials", "witt-jacobi", "witt-no-trials", "derham-box", "derham-uv", "irreducible",
        "derham-uv-zero", "irreducible-no-seeds", "sl3-brackets-no-points",
        "sl3-brackets-no-indices", "embedding-no-points", "embedding-no-indices",
        "d-intertwines-no-box", "d-intertwines-empty-iterator",
        "d-intertwines-repeated-point", "d-intertwines-float-direction",
        "d-intertwines-float-twist", "act-gen-float-index", "act-gen-fraction-index",
        "proof-no-lengths",
        "proof-zero-length", "proof-negative-length", "factorization-no-lengths",
        "proof-repeated-length", "factorization-repeated-length",
        "derham-rank-4", "derham-rank-1",
    ],
)
def test_engine_rejects_counts_without_evidence(run):
    with pytest.raises(ValueError):
        run()


def _scaled_binding(bind, factor, only=None):
    """``witt_operator`` whose operators on ``only`` (every module when
    None) return ``factor`` times the true image."""

    def scaled(D, module, alpha, scale=1):
        act = bind(D, module, alpha, scale)
        if only is not None and module is not only:
            return act
        return lambda x: act(x).scale(factor)

    return scaled


@pytest.mark.parametrize("factor", [0, 2], ids=["zero", "double"])
def test_derham_image_check_needs_the_exact_multiple(monkeypatch, factor):
    # D(u, r) d(t^m) must be (u|m + alpha) d(t^(m+r)), not any multiple of it;
    # both sweeps bind D through engine.witt_operator, and the intertwining
    # count stays 0 only because both of its sides scale alike
    monkeypatch.setattr(engine, "witt_operator", _scaled_binding(engine.witt_operator, factor))
    doc = derham_report(box_bound=0, uv_bound=1)
    assert doc["verdict"] == "fail"
    assert doc["image_failures"] == doc["image_checked"] == 8 * 9 * 9
    assert doc["intertwining_failures"] == 0


def test_derham_dd_check_needs_the_crossing_signs(monkeypatch):
    # without the sign from moving e_j past S, d goes wrong from degree one
    # up; the intertwining and image checks run on functions (degree 0,
    # S empty), so only dd = 0 notices
    real = tensor._differential_table
    monkeypatch.setattr(
        tensor,
        "_differential_table",
        lambda src, dst: tuple(tuple((j, pos, 0) for j, pos, _ in row) for row in real(src, dst)),
    )
    doc = derham_report()
    assert doc["verdict"] == "fail"
    assert (doc["dd_failures"], doc["intertwining_failures"], doc["image_failures"]) == (25, 0, 0)
    assert "first_intertwining_failure" not in doc and "first_image_failure" not in doc


@pytest.mark.parametrize("n", [2, 3])
def test_a_passing_derham_report_prints_no_first_failure(n):
    doc = derham_report(n=n)
    assert doc["verdict"] == "pass"
    assert not any(key.startswith("first_") for key in doc)


def _derham_sweep(n, box_bound=2, uv_bound=2):
    """(twist, wedge modules, d²'s box, directions, small box) of
    ``derham_report(n, box_bound, uv_bound)``, each in the report's order."""
    box = list(product(range(-box_bound, box_bound + 1), repeat=n))
    directions = list(product(range(-uv_bound, uv_bound + 1), repeat=n))
    small_box = list(product(range(-1, 2), repeat=n))
    wedges = [exterior_power(n, k) for k in range(n + 1)]
    return engine.TWIST[:n], wedges, box, directions, small_box


def _dd(alpha, wedges, kk, idx, m):
    x = ModuleElement.basis(alpha, idx, m)
    return tensor.de_rham_differential(tensor.de_rham_differential(x, wedges, kk), wedges, kk + 1)


def _image_residual(alpha, wedges, u, r, m):
    """D(u, r) d(t^m) - (u|m + alpha) d(t^(m+r))."""
    d_m = tensor.de_rham_differential(ModuleElement.basis(alpha, 0, m), wedges, 0)
    weight = sum(uk * (mk + ak) for uk, mk, ak in zip(u, m, alpha))
    target = ModuleElement.basis(alpha, 0, [mk + rk for mk, rk in zip(m, r)], weight)
    moved = tensor.act_witt(tensor.WittGenerator(u, r), d_m, wedges[1])
    return moved - tensor.de_rham_differential(target, wedges, 0)


def _first_failures_replay(doc, n, box_bound=2, uv_bound=2):
    """Each first failure ``doc`` prints gives back its printed residual,
    and no earlier point of its sweep fails."""
    alpha, wedges, box, directions, small_box = _derham_sweep(n, box_bound, uv_bound)
    failure = doc.get("first_dd_failure")
    if doc["dd_failures"]:
        kk, m = failure["degree"], failure["m"]
        res = _dd(alpha, wedges, kk, wedges[kk].positions[tuple(failure["index"])], m)
        assert not res.is_zero()
        assert tensor.element_to_json(res, wedges[kk + 2]) == failure["residual"]
        first = next(
            (k, wedges[k].label(i), list(p))
            for k in range(n - 1) for i in range(wedges[k].dim) for p in box
            if not _dd(alpha, wedges, k, i, p).is_zero()
        )
        assert first == (kk, failure["index"], m)
    failure = doc.get("first_intertwining_failure")
    if doc["intertwining_failures"]:
        u, r, m = failure["u"], failure["r"], failure["m"]
        [replayed] = verify_d_intertwines(u, r, alpha, [m], n, 0, wedges)["failures"]
        assert replayed["residual"] == failure["residual"]
        first = next(
            [list(u), list(r), found["failures"][0]["basis"]["m"]]
            for r in directions for u in directions
            for found in [verify_d_intertwines(u, r, alpha, small_box, n, 0, wedges)]
            if found["failures"]
        )
        assert first == [u, r, m]
    failure = doc.get("first_image_failure")
    if doc["image_failures"]:
        u, r, m = failure["u"], failure["r"], failure["m"]
        res = _image_residual(alpha, wedges, u, r, m)
        assert not res.is_zero()
        assert tensor.element_to_json(res, wedges[1]) == failure["residual"]
        first = next(
            [list(u), list(r), list(p)]
            for r in directions for u in directions for p in small_box
            if not _image_residual(alpha, wedges, u, r, p).is_zero()
        )
        assert first == [u, r, m]


@pytest.mark.parametrize("n, box_bound", [(2, 2), (3, 1)])
def test_first_dd_failure_replays_from_the_report(monkeypatch, n, box_bound):
    # the crossing-sign mutant on every table in rank 2; in rank 3 only on
    # the 2-forms' table, so degree 0 passes and degree 1 fails first
    real = tensor._differential_table

    def unsigned(src, dst):
        rows = real(src, dst)
        if n == 3 and len(src.label(0)) != 2:
            return rows
        return tuple(tuple((j, pos, 0) for j, pos, _ in row) for row in rows)

    monkeypatch.setattr(tensor, "_differential_table", unsigned)
    doc = derham_report(n=n, box_bound=box_bound)
    assert doc["first_dd_failure"]["degree"] == n - 2
    _first_failures_replay(doc, n, box_bound)


def test_first_intertwining_and_image_failures_replay_from_the_report(monkeypatch):
    bind = _weighed_twice(tensor.witt_operator)
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    doc = derham_report()
    assert (doc["intertwining_failures"], doc["image_failures"]) == (3840, 4000)
    assert "first_dd_failure" not in doc
    _first_failures_replay(doc, 2)


@pytest.mark.parametrize("factor", [0, 2], ids=["zero", "double"])
def test_first_image_failure_replays_from_the_report(monkeypatch, factor):
    bind = _scaled_binding(tensor.witt_operator, factor)
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    doc = derham_report(box_bound=0, uv_bound=1)
    assert doc["image_failures"] == 8 * 9 * 9 and "first_intertwining_failure" not in doc
    _first_failures_replay(doc, 2, box_bound=0, uv_bound=1)


def test_derham_first_failures_follow_the_sweep_order(monkeypatch):
    # a weight off by u_1 - u_2 only where r_1 > 0 and m_1 > 0 passes at
    # the first r, the first u and the first m of the sweep, so each first
    # failure is the first (r, u, m) that fails, not the first one swept
    bind = _extra_weight(
        tensor.witt_operator, lambda u, r, m: (u[0] - u[1]) * (r[0] > 0 and m[0] > 0)
    )
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    doc = derham_report()
    for key in ("first_intertwining_failure", "first_image_failure"):
        assert [doc[key][k] for k in "urm"] == [[-2, -1], [1, -2], [1, -1]]
    _first_failures_replay(doc, 2)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("factor", [0, 2], ids=["zero", "double"])
def test_d_intertwining_needs_the_exact_target_action(monkeypatch, k, factor):
    # d D(u, r) x = D(u, r) d x fails once D acts on the target wedge module
    # by a wrong multiple: for every u != 0 and every basis vector (8 * 9
    # pairs, two points, wedge^k of gl2 of dimension k + 1)
    monkeypatch.setattr(
        tensor, "witt_operator", _scaled_binding(tensor.witt_operator, factor, WEDGES2[k + 1])
    )
    box = [(0, 0), (1, -1)]
    checked = failed = 0
    for u in product(range(-1, 2), repeat=2):
        for r in product(range(-1, 2), repeat=2):
            res = verify_d_intertwines(u, r, NUM.alpha(), box, 2, k, WEDGES2)
            checked += res["checked"]
            failed += len(res["failures"])
    assert (checked, failed) == (81 * 2 * (k + 1), 8 * 9 * 2 * (k + 1))


def _d_intertwines_per_vector(u, r, alpha, box, n, k, wedges):
    """``verify_d_intertwines``' report with one residual per basis
    vector e_S t^m, box order then basis order, from unscaled operators
    bound through ``tensor.witt_operator``: the reference for the
    box-wide route."""
    D = tensor.WittGenerator(u, r)
    src, dst = wedges[k], wedges[k + 1]
    act_src = tensor.witt_operator(D, src, alpha)
    act_dst = tensor.witt_operator(D, dst, alpha)
    failures = []
    for m in box:
        for idx in range(src.dim):
            x = ModuleElement.basis(alpha, idx, m)
            res = tensor.de_rham_differential(act_src(x), wedges, k) - act_dst(
                tensor.de_rham_differential(x, wedges, k)
            )
            if not res.is_zero():
                failures.append({
                    "generator": repr(D),
                    "basis": {"index": src.label(idx), "m": list(m)},
                    "residual": tensor.element_to_json(res, dst),
                })
    return {"ok": not failures, "checked": len(box) * src.dim, "failures": failures}


def _poisoned_wedges(n):
    """The wedge modules of gl_n with one sign of E12 on wedge^1 flipped."""
    wedges = [exterior_power(n, k) for k in range(n + 1)]
    wedges[1] = _with_entry(wedges[1], (1, 2), 0, 1, -wedges[1].action[(1, 2)][0][1])
    return wedges


INTERTWINING_PAIRS = {
    2: [((1, 2), (1, -1)), ((0, 1), (2, 0)), ((1, 0), (0, 0)), ((-2, 1), (1, 1))],
    3: [((1, 1, 0), (1, 0, 0)), ((1, 0, -1), (0, 1, 0)), ((2, -1, 1), (-1, 1, 2))],
}


@pytest.mark.parametrize("case", ["intact", "poisoned", "zero", "double"])
@pytest.mark.parametrize("n", [2, 3])
def test_box_wide_intertwining_equals_the_per_vector_route(monkeypatch, n, case):
    # the box-wide residual, split by point, is the per-vector report:
    # checked count, failure order and printed residuals, for every degree
    wedges = _poisoned_wedges(n) if case == "poisoned" else [exterior_power(n, k) for k in range(n + 1)]
    alpha = engine.TWIST[:n]
    box = [tuple(m) for m in product(range(-1, 2), repeat=n)]
    failed = 0
    for k in range(n):
        with monkeypatch.context() as patch:
            if case in ("zero", "double"):
                factor = 0 if case == "zero" else 2
                patch.setattr(
                    tensor, "witt_operator",
                    _scaled_binding(tensor.witt_operator, factor, wedges[k + 1]),
                )
            for u, r in INTERTWINING_PAIRS[n]:
                doc = verify_d_intertwines(u, r, alpha, box, n, k, wedges)
                assert doc == _d_intertwines_per_vector(u, r, alpha, box, n, k, wedges), (k, u, r)
                failed += len(doc["failures"])
    # only the intact sweep passes everywhere
    assert (failed == 0) == (case == "intact")


def _shifted_twice(bind):
    """``witt_operator`` whose images land at m + 2r: the true image moved
    by r once more."""

    def mutant(D, module, alpha, scale=1):
        act = bind(D, module, alpha, scale)

        def apply(x):
            y = act(x)
            return ModuleElement(y.alpha, {
                (p, tuple(a + b for a, b in zip(t, D.r))): c for (p, t), c in y.terms.items()
            })

        return apply

    return mutant


@pytest.mark.parametrize("n", [2, 3])
def test_d_intertwining_catches_a_doubled_shift(monkeypatch, n):
    # d at m + 2r weighs by m + 2r + alpha, the moved d D x by m + r + alpha:
    # each residual is r ^ D x at m + 2r, nonzero on functions for u, r != 0.
    # For the box point furthest along r, m + r is outside the box, so the
    # split refuses that term instead of reporting it at a wrong point
    monkeypatch.setattr(tensor, "witt_operator", _shifted_twice(tensor.witt_operator))
    wedges = [exterior_power(n, k) for k in range(n + 1)]
    box = [tuple(m) for m in product(range(-1, 2), repeat=n)]
    for u, r in INTERTWINING_PAIRS[n]:
        if any(u) and any(r):
            with pytest.raises(ValueError, match="outside the box shifted by"):
                verify_d_intertwines(u, r, engine.TWIST[:n], box, n, 0, wedges)


@pytest.mark.parametrize("n", [2, 3])
def test_derham_refuses_a_doubled_shift(monkeypatch, n):
    # the same mutant moves derham's box-wide residuals to m + 2r; a term
    # past box + r belongs to no point, so it is refused, not counted at
    # a wrong one
    monkeypatch.setattr(engine, "witt_operator", _shifted_twice(engine.witt_operator))
    with pytest.raises(ValueError, match="outside the box shifted by"):
        derham_report(n=n, box_bound=0, uv_bound=1)


def _extra_weight(bind, extra_weight):
    """``witt_operator`` whose weight is off by ``extra_weight(u, r, m)``,
    linear in u: the true image plus L extra_weight(u, r, m) v(m + r)."""

    def mutant(D, module, alpha, scale=1):
        act = bind(D, module, alpha, scale)

        def apply(x):
            extra = {}
            for (idx, m), c in x.terms.items():
                w = extra_weight(D.u, D.r, m)
                add_term(extra, (idx, tuple(a + b for a, b in zip(m, D.r))), scale * w * c)
            return act(x) + ModuleElement(x.alpha, extra)

        return apply

    return mutant


def _weighed_twice(bind):
    """``witt_operator`` whose weight is (u|alpha + 2m)."""
    return _extra_weight(bind, lambda u, r, m: sum(uk * mk for uk, mk in zip(u, m)))


def test_witt_and_derham_fail_under_a_doubled_weight(monkeypatch):
    # (u|alpha + 2m) is still affine in m, yet it breaks the bracket law,
    # the Jacobi identity, d's intertwining and the image of d: both
    # default reports fail on both of their counts
    bind = _weighed_twice(tensor.witt_operator)
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    witt = witt_consistency_report()
    assert witt["verdict"] == "fail"
    assert (witt["bracket_failures"], witt["jacobi_failures"]) == (185, 30)
    derham = derham_report()
    assert derham["verdict"] == "fail" and derham["dd_failures"] == 0
    assert (derham["intertwining_failures"], derham["image_failures"]) == (3840, 4000)


def _witt_input_named(name):
    """The gl input that ``witt``'s ``gl_bracket_checks`` calls ``name``,
    built afresh."""
    if name == "cuspidal gl2":
        return CuspidalGl2(DEFAULT_VALUES["l"], DEFAULT_VALUES["b"], DEFAULT_VALUES["c"])
    k, n = re.fullmatch(r"wedge\^(\d) of gl(\d)", name).groups()
    return exterior_power(int(n), int(k))


def _replayed_trial_input(failure):
    """(module, x) of a failing ``witt`` trial, rebuilt from its printed
    input name, basis index and lattice point; a wedge input's index
    prints as its subset."""
    module = _witt_input_named(failure["module"])
    label = failure["basis"]["index"]
    idx = label if module.kind == "cuspidal" else module.positions[tuple(label)]
    return module, ModuleElement.basis(engine.TWIST[:module.n], idx, failure["basis"]["m"])


@pytest.mark.parametrize("seed", [20260817, 13])
def test_first_bracket_failure_replays_from_the_report(monkeypatch, seed):
    # the printed fields alone rebuild the failing trial; seed 13's first
    # failure is on a wedge input
    bind = _weighed_twice(tensor.witt_operator)
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    failure = witt_consistency_report(rng_seed=seed)["first_bracket_failure"]
    module, x = _replayed_trial_input(failure)
    u, r, v, s = (failure[key] for key in ("u", "r", "v", "s"))
    res = tensor.witt_bracket_residual(u, r, v, s, x, module)
    assert not res.is_zero()
    assert tensor.element_to_json(res, module) == failure["residual"]


def test_first_jacobi_failure_replays_from_the_report(monkeypatch):
    # a passing report prints no Jacobi failure; under the doubled weight
    # (30 Jacobi failures at the default seed) the first one's printed
    # generators, input and basis vector give back its printed residual
    assert "first_jacobi_failure" not in witt_consistency_report()
    bind = _weighed_twice(tensor.witt_operator)
    monkeypatch.setattr(tensor, "witt_operator", bind)
    monkeypatch.setattr(engine, "witt_operator", bind)
    doc = witt_consistency_report()
    assert doc["jacobi_failures"] == 30
    _assert_jacobi_failure_replays(doc["first_jacobi_failure"])


def _assert_jacobi_failure_replays(failure):
    module, x = _replayed_trial_input(failure)
    gens = [tensor.WittGenerator(g["u"], g["r"]) for g in failure["generators"]]
    res = tensor.jacobi_residual(gens, x, module)
    assert not res.is_zero()
    assert tensor.element_to_json(res, module) == failure["residual"]


def _corrupted_gl2_forms():
    """The 1-forms of gl2 with E12 e_2 = -e_1: [E12, E21] e_1 is off."""
    return _with_entry(exterior_power(2, 1), (1, 2), 0, 1, Fraction(-1))


def test_first_gl_bracket_failure_replays_from_the_report(monkeypatch):
    # a passing report prints no gl failure; with one entry of an input
    # corrupted, that input's check prints its first failure, whose
    # generator pair and basis index give back its printed residual
    checks = witt_consistency_report()["gl_bracket_checks"]
    assert not any("first_failure" in check for check in checks)
    wedge = exterior_power
    monkeypatch.setattr(
        engine, "exterior_power",
        lambda n, k: _corrupted_gl2_forms() if (n, k) == (2, 1) else wedge(n, k),
    )
    engine._witt_inputs.cache_clear()
    try:
        doc, again = [witt_consistency_report(bracket_trials=1, jacobi_trials=0) for _ in range(2)]
    finally:
        engine._witt_inputs.cache_clear()
    assert doc["verdict"] == "fail"
    [check] = [check for check in doc["gl_bracket_checks"] if not check["ok"]]
    assert check["module"] == "wedge^1 of gl2"
    failure = check["first_failure"]
    # each report holds its own copy of the cached failure
    assert again["gl_bracket_checks"][2]["first_failure"] == failure
    assert again["gl_bracket_checks"][2]["first_failure"]["residual"] is not failure["residual"]
    pair = re.fullmatch(r"\[E(\d)(\d),E(\d)(\d)\]", failure["generators"]).groups()
    module = _corrupted_gl2_forms()
    v = ModuleElement.basis((), module.positions[tuple(failure["basis_index"])], ())
    res = glmod.bracket_residual(module.act, *map(int, pair), v)
    assert not res.is_zero()
    printed = {str(module.label(t)): scalars.coeff_to_text(c) for (t, _), c in res.sorted_terms()}
    assert printed == failure["residual"]


def test_witt_and_derham_fail_without_a_nonzero_column(monkeypatch):
    # a binding reads only the columns ``nonzero_columns`` names: leave
    # E12 out on the 1-forms of gl2 and both default reports fail, the
    # Witt trials on that input and every derham check on 1-forms
    full = FinDimGlModule.nonzero_columns

    def dropped(self, idx):
        gens = full(self, idx)
        return tuple(g for g in gens if g != (1, 2)) if (self.n, self.dim) == (2, 2) else gens

    monkeypatch.setattr(FinDimGlModule, "nonzero_columns", dropped)
    witt = witt_consistency_report()
    assert witt["verdict"] == "fail"
    assert (witt["bracket_failures"], witt["jacobi_failures"]) == (25, 6)
    assert witt["first_bracket_failure"]["module"] == "wedge^1 of gl2"
    # a wedge input's Jacobi failure replays from its printed subset
    assert witt["first_jacobi_failure"]["module"] == "wedge^1 of gl2"
    _assert_jacobi_failure_replays(witt["first_jacobi_failure"])
    derham = derham_report()
    assert derham["verdict"] == "fail" and derham["dd_failures"] == 0
    assert (derham["intertwining_failures"], derham["image_failures"]) == (3600, 3600)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_witt_draws_are_randints_draws(width):
    # ``witt`` draws through ``engine._randbelow``; mixed with the report's
    # other widths, each draw must be the one ``randint`` makes from the
    # same seed, so every trial stays the one the reports pin
    widths = [width, 5, width, 3, width, 1, width, 2] * 60
    for seed in range(25):
        getrandbits = random.Random(seed).getrandbits
        reference = random.Random(seed)
        drawn = [_randbelow(getrandbits, k) - 2 for k in widths]
        assert drawn == [reference.randint(-2, k - 3) for k in widths]


DERHAM_COUNTS = (
    "intertwining_pairs", "intertwining_checked", "intertwining_failures",
    "image_checked", "image_failures",
)


def _derham_counts_pair_by_pair(wedges, uv_bound):
    """``derham_report``'s intertwining and image counts with one check
    per (u, r) pair: ``verify_d_intertwines`` on the functions of
    [-1, 1]^n, and D(u, r) bound on the 1-forms and compared unscaled
    with (u|m + alpha) d(t^(m+r))."""
    n = len(wedges) - 1
    alpha = engine.TWIST[:n]
    directions = list(product(range(-uv_bound, uv_bound + 1), repeat=n))
    box = list(product(range(-1, 2), repeat=n))

    def d(m):
        return tensor.de_rham_differential(ModuleElement.basis(alpha, 0, m), wedges, 0)

    counts = dict.fromkeys(DERHAM_COUNTS, 0)
    for u in directions:
        for r in directions:
            counts["intertwining_pairs"] += 1
            res = verify_d_intertwines(u, r, alpha, box, n, 0, wedges)
            counts["intertwining_checked"] += res["checked"]
            counts["intertwining_failures"] += len(res["failures"])
            if not any(u):
                continue
            act = tensor.witt_operator(tensor.WittGenerator(u, r), wedges[1], alpha)
            for m in box:
                weight = sum(uk * (mk + ak) for uk, mk, ak in zip(u, m, alpha))
                target = d(tuple(a + b for a, b in zip(m, r)))
                counts["image_checked"] += 1
                counts["image_failures"] += act(d(m)) != target.scale(weight)
    return counts


def _with_entry(module, g, p, q, value):
    """``module`` with entry (p, q) of E_g set to ``value``."""
    action = {key: [list(row) for row in mat] for key, mat in module.action.items()}
    action[g][p][q] = value
    return FinDimGlModule(module.n, module.dim, action, module.basis_labels)


def _first_weight_off_on_forms(bind):
    """``witt_operator`` whose D(u, r) on 1-forms of gl2 weighs each term
    by one more u_1 than it should: linear in u, nonzero on e_1 only,
    at every shift r including 0."""

    def mutant(D, module, alpha, scale=1):
        act = bind(D, module, alpha, scale)
        if module.dim != 2:
            return act

        def apply(x):
            extra = {(idx, tuple(a + b for a, b in zip(m, D.r))): D.u[0] * scale * c
                     for (idx, m), c in x.terms.items()}
            return act(x) + ModuleElement(x.alpha, extra)

        return apply

    return mutant


@pytest.mark.parametrize(
    "mutant, n, uv_bound, expected",
    [
        # E12 e_2 = -e_1 on 1-forms: the column of e_2 breaks where r_1 != 0,
        # so u_2 != 0 and r_1 != 0 fail: 6 * 6 pairs at 9 points, and
        # 20 * 20 at the default bound
        pytest.param("e12-sign", 2, 1, (324, 324), id="e12-sign"),
        pytest.param("e12-sign", 2, 2, (3600, 3600), id="e12-sign-uv2"),
        # the same on gl3's 1-forms: 18 * 18 pairs at 27 points
        pytest.param("e12-sign", 3, 1, (8748, 8748), id="e12-sign-rank3"),
        # the weight of e_1 on 1-forms is off by one at every r: 6 * 9 pairs
        pytest.param("e1-weight", 2, 1, (486, 486), id="e1-weight"),
        # E11 t^m = t^m on functions: the column of e_1 breaks where r_1 != 0,
        # and the image check, which reads 1-forms only, stays exact
        pytest.param("e1-column-on-functions", 2, 1, (324, 0), id="e1-column-on-functions"),
    ],
)
def test_derham_unit_sweep_equals_the_pair_by_pair_sweep(
    monkeypatch, mutant, n, uv_bound, expected
):
    # derham_report derives every u's verdict from the unit directions;
    # under each mutant its counts equal those of checking every (u, r)
    wedges = [exterior_power(n, k) for k in range(n + 1)]
    if mutant == "e12-sign":
        wedges[1] = _with_entry(wedges[1], (1, 2), 0, 1, Fraction(-1))
    elif mutant == "e1-column-on-functions":
        wedges[0] = _with_entry(wedges[0], (1, 1), 0, 0, Fraction(1))
    else:
        bind = _first_weight_off_on_forms(tensor.witt_operator)
        monkeypatch.setattr(tensor, "witt_operator", bind)
        monkeypatch.setattr(engine, "witt_operator", bind)
    monkeypatch.setattr(engine, "exterior_power", lambda n, k: wedges[k])
    doc = derham_report(n=n, box_bound=0, uv_bound=uv_bound)
    direct = _derham_counts_pair_by_pair(wedges, uv_bound)
    assert {key: doc[key] for key in DERHAM_COUNTS} == direct
    assert (direct["intertwining_failures"], direct["image_failures"]) == expected
    directions = (2 * uv_bound + 1) ** n
    assert (direct["intertwining_checked"], direct["image_checked"]) == (
        directions ** 2 * 3 ** n, (directions - 1) * directions * 3 ** n
    )
    assert doc["verdict"] == "fail"


def test_irreducible_refuses_near_integral():
    p = Params.numeric({"c": Fraction(3, 11)})  # c - 3b integral
    doc = check_irreducible(p, Window.symmetric(2, 2, 2, margin=1))
    assert doc["verdict"] == "refused"


# -- degenerate regime ---------------------------------------------------------


def test_no_singular_vectors_at_generic_point():
    assert find_singular_vectors(NUM, Window.symmetric(2, 2, 2)) == []


def test_singular_vectors_on_antidiagonal():
    found = find_singular_vectors(DEG, Window.symmetric(2, 2, 2))
    supports = sorted(list(x.terms.keys())[0] for x in found)
    assert supports == [(r1, (r1, -r1)) for r1 in range(-2, 3)]
    assert all(len(x.terms) == 1 for x in found)


def test_degenerate_reducibility_report():
    doc = check_degenerate_reducibility(DEG, Window.symmetric(4, 4, 4, margin=2))
    assert doc["verdict"] == "pass"
    assert doc["integrality"] == {"a1-b-l": "0", "a2-b+l": "0"}
    assert doc["singular_count"] == 9
    assert (doc["reached"], doc["missed_count"], doc["targets"]) == (35, 90, 125)
    assert doc["witness"] == {"index": -2, "r": [-2, -2]}
    assert doc["proper"]


def test_singular_vectors_refuse_symbolic_parameters():
    with pytest.raises(ValueError, match="find_singular_vectors needs numeric parameters"):
        find_singular_vectors(Params.symbolic(), Window.symmetric(1, 0, 0))


def _nullspace_route(params, window):
    """The joint kernel as the general elimination finds it: at each point,
    the ``row_action`` columns of E31 and E32, stacked, through ``nullspace``."""
    apply = sl3.row_action(params)
    indices = window.indices()
    found = []
    for pt in window.points():
        rows = []
        for g in engine.SINGULAR_OPS:
            cols = [apply((g,), {idx: 1}, pt) for idx in indices]
            images = sorted({k for col in cols for k in col})
            rows += [[col.get(k, 0) for col in cols] for k in images]
        for vec in nullspace(rows, len(indices)):
            terms = {(indices[t], pt): cf for t, cf in enumerate(vec)}
            found.append(ModuleElement(params.alpha(), terms))
    return found


SINGULAR_WINDOWS = [
    Window.symmetric(2, 2, 2),
    Window.symmetric(1, 0, 0),
    Window(0, 3, ((-1, 2), (-3, 0)), margin=1),
    Window(-4, -2, ((1, 1), (-2, 2))),
]


@pytest.mark.parametrize(
    "base", [{}, {"l": Fraction(2, 5), "b": Fraction(-1, 3), "c": Fraction(5, 7)}],
    ids=["defaults", "other"],
)
def test_singular_vectors_match_the_nullspace_of_the_stacked_images(base):
    # a1 - b - l and a2 - b + l run over the integers in [-2, 2]; c + l and
    # c - l stay non-integral
    values = {**DEFAULT_VALUES, **base}
    assert all((values["c"] + s * values["l"]).denominator > 1 for s in (1, -1))
    nonempty = 0
    for k1, k2 in product(range(-2, 3), repeat=2):
        a1, a2 = values["b"] + values["l"] + k1, values["b"] - values["l"] + k2
        params = Params.numeric({**values, "a1": a1, "a2": a2})
        for window in SINGULAR_WINDOWS:
            found = find_singular_vectors(params, window)
            assert found == _nullspace_route(params, window)
            nonempty += bool(found)
    assert nonempty > 0
    for window in SINGULAR_WINDOWS:
        assert find_singular_vectors(NUM, window) == _nullspace_route(NUM, window) == []


def test_singular_ops_are_diagonal_with_the_degenerate_conditions_as_forms():
    # the premise of the diagonal read; the forms are the two integrality
    # conditions check_degenerate_reducibility gates on
    for g, name in zip(engine.SINGULAR_OPS, ("a1-b-l", "a2-b+l")):
        ((offset, form),) = sl3.GENERATORS[g][2]
        assert offset == 0 and form == sl3.CONDITIONS[name]


def test_singular_vectors_refuse_an_off_diagonal_entry(monkeypatch):
    u, r, formula = sl3.GENERATORS[(3, 1)]
    monkeypatch.setitem(sl3.GENERATORS, (3, 1), (u, r, formula + ((1, (0, 0, 1, 0, 0)),)))
    with pytest.raises(AssertionError, match="^E31 is not diagonal on a point's basis$"):
        find_singular_vectors(DEG, Window.symmetric(2, 2, 2))


def test_singular_vectors_certify_every_kernel_vector(monkeypatch):
    # at the degenerate preset E32 kills v_0(1, 0) and E31 does not, so an
    # E31 image of the basis sum without its v_0 term makes v_0(1, 0) look
    # like a singular vector; the act_gen certification must catch it
    window = Window(-1, 1, ((1, 1), (0, 0)))
    assert find_singular_vectors(DEG, window) == []
    real = engine.act_gen

    def dropped(params, i, j, x):
        y = real(params, i, j, x)
        if (i, j) == (3, 1) and len(x.terms) > 1:
            return ModuleElement(y.alpha, {k: cf for k, cf in y.terms.items() if k[0] != 0})
        return y

    monkeypatch.setattr(engine, "act_gen", dropped)
    with pytest.raises(AssertionError, match="kernel certification failed"):
        find_singular_vectors(DEG, window)


def test_degenerate_fails_when_the_closure_holds_every_target(monkeypatch):
    # three inner vectors, v_i(0, 0) for i in -1..1
    window = Window.symmetric(2, 1, 1, 1)
    every = [basis_element(DEG, idx, pt) for idx, pt in window.basis()]
    monkeypatch.setattr(engine, "find_singular_vectors", lambda params, w: every)
    doc = check_degenerate_reducibility(DEG, window)
    assert doc["verdict"] == "fail"
    assert doc["proper"] is False and doc["witness"] is None
    assert doc["reached"] == doc["targets"] == 3


@pytest.mark.parametrize(
    "values, nonintegral",
    [
        ({"a1": Fraction(18, 77)}, "a2-b+l"),
        ({"a2": Fraction(-4, 77)}, "a1-b-l"),
        ({}, "a1-b-l and a2-b+l"),
    ],
    ids=["a1-integral", "a2-integral", "defaults"],
)
def test_degenerate_check_refuses_generic_point(values, nonintegral):
    params = Params.numeric(values)
    doc = check_degenerate_reducibility(params, Window.symmetric(2, 2, 2, margin=1))
    assert doc["verdict"] == "refused"
    assert doc["reason"] == f"degenerate regime requires {nonintegral} integral"


def test_degenerate_check_refuses_symbolic_params():
    doc = check_degenerate_reducibility(Params.symbolic(), Window.symmetric(1, 1, 1))
    assert doc["verdict"] == "refused"
    assert doc["reason"] == "symbolic parameters: integrality is undecidable"


def test_degenerate_fails_without_a_singular_vector_in_the_window():
    # the singular vectors sit at v_i(i, -i); none has r1 and r2 both positive
    doc = check_degenerate_reducibility(DEG, Window(-1, 1, ((1, 2), (1, 2))))
    assert doc["verdict"] == "fail"
    assert doc["singular_count"] == 0
    assert doc["reason"] == "no singular vector inside the window"


def test_witt_inputs_are_built_once_and_each_report_gets_its_own_checks(monkeypatch):
    engine._witt_inputs.cache_clear()
    checked = []
    verify = engine.verify_gl_brackets

    def spy(module):
        checked.append(module)
        return verify(module)

    monkeypatch.setattr(engine, "verify_gl_brackets", spy)
    first = witt_consistency_report(rng_seed=1, bracket_trials=3, jacobi_trials=1)
    first_bytes = canonical_json(first)
    second = witt_consistency_report(rng_seed=2, bracket_trials=3, jacobi_trials=1)
    # the cuspidal input and seven wedge powers, checked for the first report only
    assert len(checked) == 8
    assert first["gl_bracket_checks"] == second["gl_bracket_checks"]
    assert first["verdict"] == second["verdict"] == "pass"
    second["gl_bracket_checks"][0]["ok"] = False
    assert canonical_json(first) == first_bytes
    again = witt_consistency_report(rng_seed=1, bracket_trials=3, jacobi_trials=1)
    assert canonical_json(again) == first_bytes and len(checked) == 8


# -- factorization oracle -------------------------------------------------------


def test_oracle_s1_pinned():
    doc = recursion_factorization_oracle((1,))
    assert doc["verdict"] == "pass"
    (res,) = doc["results"]
    assert res["top_kill"] and res["bottom_kill"] and res["normalization_ok"]
    assert res["index_free"] and res["iota_free"]
    assert res["obstruction"] == "c^2 - 9*b^2 - c + 15*b - 6"
    assert res["unit"] == "1"
    assert res["derived_factors"] == ["c - 3*b + 2", "c + 3*b - 3"]
    assert res["first_factor"]["matches"] and res["first_factor"]["offset"] == "0"
    assert not res["second_factor"]["matches"]
    assert res["second_factor"]["offset"] == "-2"
    assert res["second_factor"]["reference"] == "c - 3*b + 4"
    assert doc["flags"] == ["s=1: second factor is offset -2 from its reference form"]


def test_oracle_derives_both_factors_at_large_integer_contents():
    # s = 9, 12, 25 give larger integer contents than s = 1..7, so the
    # peel tries more divisor candidates before each factor
    doc = recursion_factorization_oracle([9, 12, 25])
    assert doc["verdict"] == "pass" and doc["s_values"] == [9, 12, 25]
    for res in doc["results"]:
        s = res["s"]
        assert res["derived_factors"] == [f"c - 3*b + {s + 1}", f"c + 3*b - {s + 2}"]
        assert res["unit"] == "1"
        assert res["second_factor"]["offset"] == "-2"
        assert res["ok"]


def test_oracle_obstruction_divides_by_the_denominators_leading_coefficient():
    c, b = Scalar.sym("c"), Scalar.sym("b")
    # (c + 1)/(2b + 3) keeps the integer content in den: (c + 1, 2b + 3)
    q = lowest_terms((c + 1).num, (2 * b + 3).num)
    assert q[1].leading_coeff() == 2
    # monic: ((c + 1)/2) / (b + 3/2), so N = (c + 1)/2 - (b + 3/2)
    assert engine._monic_obstruction(*q) == c / 2 - b - 1
    assert engine._monic_obstruction(*lowest_terms((2 * c).num, (2 * b).num)) == c - b


def _ratio_route_obstructions(s: int) -> list:
    """N at j = 1..s on the ratio route, each ratio normalised by rho_a
    and rho_b and divided out, in sympy's field of rational functions
    over ZZ, from the oracle's T_A, T_B, E31 and E32 images."""
    from sympy import ZZ
    from sympy.polys.fields import field

    K = field(",".join(SYMBOLS), ZZ)[0]

    def el(x):
        x = x if isinstance(x, Scalar) else Scalar.from_rational(x)
        return K(K.ring.from_dict(dict(x.num.terms))) / x.den

    params = Params.symbolic(with_iota_index=True)
    up, down = (1, -1), (-1, 1)
    js = range(s + 1)
    t_a = [raising_operator(params, s, basis_element(params, j, (0, 0))) for j in js]
    t_b = [lowering_operator(params, basis_element(params, j, (0, 0))) for j in js]
    c1a = [el(t_a[j].coefficient(j, up)) for j in js]
    c2a = {j: el(t_a[j - 1].coefficient(j, up)) for j in js[1:]}
    c1b = [el(t_b[j].coefficient(j, down)) for j in js]
    c2b = {j: el(t_b[j + 1].coefficient(j, down)) for j in js[:-1]}
    g, h = {}, {}
    for j, r in product(js, (0, 1)):
        e31 = act_gen(params, 3, 1, basis_element(params, j, (r, 0)))
        e32 = act_gen(params, 3, 2, basis_element(params, j, (0, r)))
        g[j, r], h[j, r] = el(e31.coefficient(j, (r - 1, 0))), el(e32.coefficient(j, (0, r - 1)))
    rho_a = [(g[0, 1] / g[j, 1]) * (h[j, 0] / h[0, 0]) for j in js]
    rho_b = [(g[j, 0] / g[0, 0]) * (h[0, 1] / h[j, 1]) for j in js]
    assert rho_a[0] == rho_b[0] == K.one
    k_a, k_b = c1a[0], c1b[s] / rho_b[s]
    out = []
    for j in js[1:]:
        r_a = (k_a * rho_a[j] - c1a[j]) / c2a[j]
        r_b = c2b[j - 1] / (k_b * rho_b[j - 1] - c1b[j - 1])
        q = r_a / r_b
        num, den = (ParamPolynomial({e: int(v) for e, v in p.items()}) for p in (q.numer, q.denom))
        out.append(Scalar(num - den) / den.leading_coeff())
    return out


def test_oracle_pairs_match_the_ratio_route_in_sympys_field():
    # the one polynomial pair per (s, j) gives the N of the rho/kappa
    # route, computed with every division in an independent field
    doc = recursion_factorization_oracle(range(1, 7))
    assert doc["verdict"] == "pass"
    for res in doc["results"]:
        reference = _ratio_route_obstructions(res["s"])
        assert len(reference) == res["s"]
        assert [scalar_to_text(n) for n in reference] == [res["obstruction"]] * res["s"]


def test_oracle_refuses_a_vanishing_e32_factor(monkeypatch):
    # a zero E32 form makes every h vanish: the ratio route divided by
    # h[0,0], and the pair route refuses it instead of printing N = -1
    u, shift, ((off, form),) = GENERATORS[3, 2]
    monkeypatch.setitem(GENERATORS, (3, 2), (u, shift, ((off, (0,) * len(form)),)))
    with pytest.raises(ZeroDivisionError, match="E31/E32 factor"):
        recursion_factorization_oracle([1])


def test_oracle_refuses_a_vanishing_denominator_of_r_b(monkeypatch):
    # without T_B's diagonal, c1b and so b vanish while c2b does not: the
    # ratio route divided by b, and the pair a*b would print N = -1
    real = sl3.lowering_operator

    def off_diagonal(params, x):
        ((j, _),) = x.terms
        image = real(params, x)
        return ModuleElement(image.alpha, {k: v for k, v in image.terms.items() if k[0] != j})

    monkeypatch.setattr(sl3, "lowering_operator", off_diagonal)
    with pytest.raises(ZeroDivisionError, match="R_B's denominator is 0 at s=1, j=1"):
        recursion_factorization_oracle([1])


def test_oracle_reduces_each_pair_once(monkeypatch):
    # one linear_quotient per (s, j): 1 + 2 + 3 for the default s = 1, 2, 3;
    # sympy's ring is never built, and no Scalar is built with a
    # non-constant denominator (a Scalar's den is an int, and every
    # division is exact)
    calls, sympy_calls = [], []
    real = engine.linear_quotient
    monkeypatch.setattr(
        engine, "linear_quotient", lambda nums, dens: calls.append(1) or real(nums, dens)
    )
    ring = scalars._ring
    monkeypatch.setattr(scalars, "_ring", lambda: sympy_calls.append(1) or ring())
    dens = []
    canon = scalars._canon
    monkeypatch.setattr(scalars, "_canon", lambda num, den: dens.append(den) or canon(num, den))
    assert recursion_factorization_oracle([1, 2, 3])["verdict"] == "pass"
    assert len(calls) == 6 and sympy_calls == []
    assert dens and all(type(den) is int for den in dens)


def test_oracle_pairs_are_the_lowest_terms_of_the_expanded_pairs(monkeypatch):
    # each pair that linear_quotient gives, before any product, is the one
    # sympy's cofactors give for the expanded product a*b over the
    # expanded six-factor denominator, for s = 1..7
    pairs = []
    real = engine.linear_quotient

    def checked(nums, dens):
        got = real(nums, dens)
        num, den = nums[0] * nums[1], ONE
        for _, f in dens:
            den = den * f
        assert got == lowest_terms(num.num.scale(den.den), den.num.scale(num.den))
        pairs.append(got)
        return got

    monkeypatch.setattr(engine, "linear_quotient", checked)
    assert recursion_factorization_oracle(range(1, 8))["verdict"] == "pass"
    assert len(pairs) == sum(range(1, 8))


def test_linear_quotient_refuses_a_factor_that_is_not_linear(monkeypatch):
    # a squared E32 coefficient makes h[0,0] quadratic: the oracle names it
    c, b = Scalar.sym("c"), Scalar.sym("b")
    with pytest.raises(ValueError, match=r"denominator factor q = c\^2 \+ b is not linear"):
        scalars.linear_quotient((c,), [("q", c * c + b)])
    real = engine.act_gen

    def squared_e32(params, i, j, x):
        y = real(params, i, j, x)
        if (i, j) != (3, 2):
            return y
        return ModuleElement(y.alpha, {k: v * v for k, v in y.terms.items()})

    monkeypatch.setattr(engine, "act_gen", squared_e32)
    with pytest.raises(ValueError, match=r"denominator factor h\[0,0\] = .* is not linear"):
        recursion_factorization_oracle([1])


def test_oracle_fails_on_an_obstruction_with_an_irreducible_quadratic(monkeypatch):
    # negative control: N = (c + 3b - 3)(c^2 + 3b + 1) peels one linear
    # factor and gives the quadratic back whole, as one unfactored
    # cofactor; it is no shift of the second reference, so the entry and
    # the report fail
    c, b = Scalar.sym("c"), Scalar.sym("b")
    quadratic = c * c + 3 * b + 1
    n_poly = (c + 3 * b - 3) * quadratic
    assert scalars.factor_polynomial(n_poly) == (ONE, ((c + 3 * b - 3, 1), (quadratic, 1)))
    monkeypatch.setattr(engine, "_monic_obstruction", lambda num, den: n_poly)
    doc = recursion_factorization_oracle([1])
    assert doc["verdict"] == "fail"
    (res,) = doc["results"]
    assert not res["ok"]
    assert res["derived_factors"] == ["c + 3*b - 3", "c^2 + 3*b + 1"]
    assert res["first_factor"]["matches"] and res["second_factor"]["derived"] is None
    assert doc["flags"] == ["s=1: no derived factor is a constant shift of the second reference"]


def test_oracle_offset_is_constant_in_s():
    doc = recursion_factorization_oracle((2, 3))
    assert doc["verdict"] == "pass"
    for res in doc["results"]:
        s = res["s"]
        assert res["derived_factors"] == [f"c - 3*b + {s + 1}", f"c + 3*b - {s + 2}"]
        assert res["first_factor"]["offset"] == "0"
        assert res["second_factor"]["offset"] == "-2"


def _spy_oracle_operators(monkeypatch) -> dict:
    # T_A and T_B are applied inside sl3, through the one builder the
    # oracle calls; the E31/E32 coefficients are read in engine
    calls = {
        "truncation_images": 0, "raising_operator": 0, "lowering_operator": 0, "act_gen": 0
    }
    for module, name in (
        (engine, "truncation_images"), (sl3, "raising_operator"), (sl3, "lowering_operator"),
        (engine, "act_gen"),
    ):
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_oracle_applies_each_operator_once(monkeypatch, s):
    # one builder call, one T_A and one T_B image per basis vector v_0 ..
    # v_s, and one E31 and one E32 coefficient per (index, lattice step) pair
    calls = _spy_oracle_operators(monkeypatch)
    assert recursion_factorization_oracle([s])["verdict"] == "pass"
    assert calls == {
        "truncation_images": 1,
        "raising_operator": s + 1,
        "lowering_operator": s + 1,
        "act_gen": 4 * (s + 1),
    }


def test_oracle_builds_each_s_on_its_own(monkeypatch):
    # nothing is kept between truncation lengths: the s = 1, 2, 3 run calls
    # the builder once per s, so T_A, T_B and the E31/E32 coefficients are
    # computed on v_0 .. v_s for each s, and each s reads as it does alone
    calls = _spy_oracle_operators(monkeypatch)
    doc = recursion_factorization_oracle([1, 2, 3])
    assert doc["verdict"] == "pass"
    assert calls == {
        "truncation_images": 3,
        "raising_operator": 2 + 3 + 4,
        "lowering_operator": 2 + 3 + 4,
        "act_gen": 4 * (2 + 3 + 4),
    }
    assert [res["derived_factors"] for res in doc["results"]] == [
        [f"c - 3*b + {s + 1}", f"c + 3*b - {s + 2}"] for s in (1, 2, 3)
    ]
    monkeypatch.undo()
    assert doc["results"] == [
        recursion_factorization_oracle([s])["results"][0] for s in (1, 2, 3)
    ]


def test_oracle_fails_when_only_the_first_reference_is_matched(monkeypatch):
    # the first reference's factor c + 3b - 3 and a factor that is no
    # shift of the second reference: an unmatched second factor fails
    c, b, a1 = (Scalar.sym(n) for n in ("c", "b", "a1"))
    monkeypatch.setattr(
        engine,
        "factor_polynomial",
        lambda x: (Scalar.from_rational(1), ((c + 3 * b - 3, 1), (c + a1, 1))),
    )
    doc = recursion_factorization_oracle([1])
    assert doc["verdict"] == "fail"
    (res,) = doc["results"]
    assert res["first_factor"]["matches"] and not res["ok"]
    assert res["second_factor"]["derived"] is None
    assert doc["flags"] == ["s=1: no derived factor is a constant shift of the second reference"]


def test_oracle_flags_factors_that_match_no_reference(monkeypatch):
    c, b = Scalar.sym("c"), Scalar.sym("b")
    monkeypatch.setattr(
        engine, "factor_polynomial", lambda x: (Scalar.from_rational(1), ((c + b, 1), (c - b, 1)))
    )
    doc = recursion_factorization_oracle([1])
    assert doc["verdict"] == "fail"
    (res,) = doc["results"]
    assert not res["ok"]
    for key in ("first_factor", "second_factor"):
        assert res[key]["derived"] is None and res[key]["offset"] is None
        assert res[key]["matches"] is False
    assert doc["flags"] == ["s=1: no derived factor is a constant shift of the second reference"]


# -- Gelfand-Tsetlin checks ------------------------------------------------------


def _count_factorizations(monkeypatch) -> list:
    # every sympy factorization, whichever function asks for it
    calls = []
    factor_list = PolyElement.factor_list
    monkeypatch.setattr(PolyElement, "factor_list", lambda f: calls.append(f) or factor_list(f))
    return calls


def test_gt_obstruction_report(monkeypatch):
    splits = []
    real = engine._leakage_split
    monkeypatch.setattr(engine, "_leakage_split", lambda *args: splits.append(args) or real(*args))
    factorizations = _count_factorizations(monkeypatch)
    doc = gt_obstruction(NUM, Window.symmetric(4, 2, 2))
    # one split per word, read off the table at v_0(0,0) and moved to the
    # 25 points by sigma: sympy factors nothing
    assert len(splits) == 3
    assert factorizations == []
    assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == (
        "84e9724b32436b853eaef4251bc2bcf70a6010f55b263377b429132a2585af42"
    )
    assert doc["verdict"] == "pass"
    ops = {op["word"]: op for op in doc["operators"]}
    assert set(ops) == {"E12*E21", "E23*E32", "E13*E31"}
    assert ops["E12*E21"]["extreme_offset"] == 1
    assert ops["E23*E32"]["extreme_offset"] == -1
    assert ops["E13*E31"]["extreme_offset"] == 1
    for op in ops.values():
        assert op["triangular_ok"] and op["extreme_nonzero_ok"]
        assert op["first_failure"] is None
        assert op["factors_covered"]
        for pt in op["factor_analysis"]:
            for fac in pt["factors"]:
                cov = fac["covered_by"]
                assert cov is not None and Fraction(cov["shift"]).denominator == 1


@pytest.mark.parametrize(
    "radii, from_origin",
    [
        pytest.param(radii, from_origin, id=f"radii{n}" + "-origin" * from_origin)
        for from_origin in (False, True)
        for n, radii in enumerate([(4, 2, 2), (3, 3, 3), (2, 4, 1)])
    ],
)
def test_shifted_kappa_splits_are_the_factored_ones(radii, from_origin):
    # the split gt_obstruction reads off the table at v_0(0,0), moved to
    # each window point by sigma, against sympy's factorization of the
    # coefficient act_word gives there, computed at that point or at
    # v_0(0,0) and moved by lattice_shift
    sym = Params.symbolic(with_iota_index=True)
    direct = {}
    for word_text, direction in GT_OBSTRUCTION_OPS:
        letters = parse_word(word_text)
        path = word_path(letters, direction)
        assert path is not None, word_text
        origin = act_word(sym, letters, basis_element(sym, 0, (0, 0)))
        split = engine._leakage_split(letters, path)
        for pt in Window.symmetric(*radii).points():
            if from_origin:
                y = lattice_shift(origin, 0, pt)
            else:
                y = act_word(sym, letters, basis_element(sym, 0, pt))
            kappa = y.coefficient(*moved((0, pt), direction, word_shift(letters)))
            if kappa not in direct:
                direct[kappa] = _sympy_split(kappa)
            got = _sigma(split, pt)
            assert got == direct[kappa], (word_text, pt)
            assert _split_text(got) == _split_text(direct[kappa])
            assert _multiply_back(*got) == kappa


def _sympy_split(x):
    """The ``iota_split`` of x as sympy's complete factorization over ZZ
    gives it."""
    const, ring_factors = scalars._to_ring(x.num).factor_list()
    factors = [(Scalar(scalars._from_ring(f)), mult) for f, mult in ring_factors]
    return iota_split(factors, Scalar.from_rational(Fraction(int(const), x.den)))


def _sigma(split, pt):
    """A split at v_0(0,0) moved to v_0(pt): a1 -> a1 + r1, a2 -> a2 + r2."""
    unit, pairs = split
    shifts = {"a1": pt[0], "a2": pt[1]}
    return shift_symbols(unit, shifts), tuple((shift_symbols(z, shifts), s) for z, s in pairs)


def _split_text(split):
    unit, pairs = split
    return scalar_to_text(unit), [(scalar_to_text(z), sign) for z, sign in pairs]


def _multiply_back(unit, pairs):
    for zeta, sign in pairs:
        unit = unit * (zeta + sign * IOTA)
    return unit


def _misprinted_splits(doc) -> list:
    """The (word, point) pairs of a gt_obstruction report whose printed
    split is not sympy's factorization of the coefficient act_word gives at
    v_0(r), where the word's path lands."""
    sym = Params.symbolic(with_iota_index=True)
    wrong, factored = [], {}
    for (word_text, direction), op in zip(GT_OBSTRUCTION_OPS, doc["operators"]):
        letters = parse_word(word_text)
        for entry in op["factor_analysis"]:
            pt = tuple(entry["r"])
            y = act_word(sym, letters, basis_element(sym, 0, pt))
            kappa = y.coefficient(*moved((0, pt), direction, word_shift(letters)))
            if kappa not in factored:
                factored[kappa] = _split_text(_sympy_split(kappa))
            printed = entry["unit"], [(f["zeta"], f["iota_sign"]) for f in entry["factors"]]
            if printed != factored[kappa]:
                wrong.append((word_text, pt))
    return wrong


@pytest.mark.parametrize(
    "radii", [(4, 2, 2), (3, 3, 3), (2, 4, 1)], ids=lambda radii: ",".join(map(str, radii))
)
def test_printed_splits_are_the_factored_ones_at_every_point(monkeypatch, radii):
    # each split is formed and certified at v_0(0,0) alone and printed at
    # v_0(r) as its image under sigma; read back from the report, every
    # printed split is sympy's factorization of act_word's coefficient there
    window = Window.symmetric(*radii)
    doc = gt_obstruction(NUM, window)
    assert doc["verdict"] == "pass"
    assert [[entry["r"] for entry in op["factor_analysis"]] for op in doc["operators"]] == [
        [list(pt) for pt in window.points()]
    ] * 3
    assert _misprinted_splits(doc) == []
    # negative control: sigma with a1 moved by r2 and a2 by r1 still
    # passes, every zeta a shift of its condition, but prints the wrong
    # split at every point off the diagonal, for each of the three words
    real = engine.shift_symbols
    monkeypatch.setattr(
        engine, "shift_symbols", lambda x, s: real(x, {"a1": s["a2"], "a2": s["a1"]})
    )
    swapped = gt_obstruction(NUM, window)
    assert swapped["verdict"] == "pass"
    off_diagonal = [pt for pt in window.points() if pt[0] != pt[1]]
    assert off_diagonal and _misprinted_splits(swapped) == [
        (word, pt) for word, _ in GT_OBSTRUCTION_OPS for pt in off_diagonal
    ]


def test_gt_obstruction_raises_when_a_shifted_split_does_not_multiply_back(monkeypatch):
    # the origin split moved one a1 and one a2 step is a split of some
    # other scalar: certification at v_0(0,0) refuses it, nothing is factored
    real = engine._leakage_split
    monkeypatch.setattr(
        engine, "_leakage_split", lambda letters, path: _sigma(real(letters, path), (1, 1))
    )
    factorizations = _count_factorizations(monkeypatch)
    with pytest.raises(ValueError, match="leakage split certification failed"):
        gt_obstruction(NUM, Window.symmetric(4, 2, 2))
    assert factorizations == []


def _numeric_rows(monkeypatch, mutate):
    # gt_obstruction's row_action, each row passed through
    # mutate(letters, row, pt, image)
    real = engine.row_action

    def row_action(params):
        apply = real(params)
        return lambda letters, row, pt: mutate(letters, row, pt, apply(letters, row, pt))

    monkeypatch.setattr(engine, "row_action", row_action)


def test_gt_obstruction_fails_when_an_extreme_component_vanishes(monkeypatch):
    # drop v_{-1}(0,0) from the numeric E23*E32 image of v_0(0,0): the
    # leakage vanishes there, whatever the symbolic factors say
    word = parse_word("E23*E32")

    def drop(letters, row, pt, image):
        if (letters, row, pt) == (word, {0: 1}, (0, 0)):
            image.pop(-1)
        return image

    _numeric_rows(monkeypatch, drop)
    doc = gt_obstruction(NUM, Window.symmetric(1, 1, 1))
    assert doc["verdict"] == "fail"
    op = {op["word"]: op for op in doc["operators"]}["E23*E32"]
    assert op["triangular_ok"] and op["factors_covered"] and not op["extreme_nonzero_ok"]
    assert op["first_failure"] == {"index": 0, "r": [0, 0], "problem": "extreme component vanished"}


def _index_leak(monkeypatch):
    # every numeric E12*E21 image of v_idx(r) gains v_{idx+2}
    word = parse_word("E12*E21")

    def leak(letters, row, pt, image):
        if letters == word:
            ((idx, _),) = row.items()
            image[idx + 2] = 1
        return image

    _numeric_rows(monkeypatch, leak)


def _point_leak(monkeypatch):
    # E12 shifts by (1, 0), not (1, -1), so E12*E21 moves every point by (0, 1)
    u, _, formula = sl3.GENERATORS[1, 2]
    monkeypatch.setitem(sl3.GENERATORS, (1, 2), (u, (1, 0), formula))


@pytest.mark.parametrize(
    "mutate, problem",
    [(_index_leak, "index moved by more than one"), (_point_leak, "moved lattice point")],
    ids=["index", "point"],
)
def test_gt_obstruction_fails_when_a_word_leaves_the_triangle(monkeypatch, mutate, problem):
    mutate(monkeypatch)
    doc = gt_obstruction(NUM, Window.symmetric(1, 1, 1))
    assert doc["verdict"] == "fail"
    op = {op["word"]: op for op in doc["operators"]}["E12*E21"]
    assert not op["triangular_ok"] and not op["ok"]
    assert op["first_failure"] == {"index": -1, "r": [-1, -1], "problem": problem}


def test_gt_obstruction_fails_when_a_word_has_no_split(monkeypatch):
    # E23*E32 gets no path to its extreme index: every point of that word
    # prints no split, and no split is built for it
    word = parse_word("E23*E32")
    path, split = engine.word_path, engine._leakage_split
    built = []
    monkeypatch.setattr(
        engine, "word_path", lambda letters, offset: None if letters == word else path(letters, offset)
    )
    monkeypatch.setattr(
        engine, "_leakage_split", lambda letters, *args: built.append(letters) or split(letters, *args)
    )
    window = Window.symmetric(1, 1, 1)
    doc = gt_obstruction(NUM, window)
    assert doc["verdict"] == "fail"
    ops = {op["word"]: op for op in doc["operators"]}
    op = ops.pop("E23*E32")
    assert op["factors_covered"] is False and not op["ok"]
    assert op["factor_analysis"] == [{"r": list(pt), "factors": None} for pt in window.points()]
    assert built and word not in built
    assert all(op["ok"] for op in ops.values())


def test_gt_obstruction_covers_only_integral_shifts(monkeypatch):
    c, b, l, a1 = (Scalar.sym(n) for n in ("c", "b", "l", "a1"))
    pairs = tuple(
        (z, 1) for z in (c + l + Scalar.from_rational(Fraction(1, 2)), b * c, -(a1 - b - l) + 2)
    )
    monkeypatch.setattr(engine, "_leakage_split", lambda *args: (ONE, pairs))
    # act_word's image of v_0(0,0) is faked, so that the injected split
    # multiplies back to its coefficient at either extreme offset
    faked = _multiply_back(ONE, pairs)
    monkeypatch.setattr(
        engine,
        "act_word",
        lambda params, letters, x: ModuleElement(
            x.alpha, {(d, word_shift(letters)): faked for d in (1, -1)}
        ),
    )
    doc = gt_obstruction(NUM, Window(0, 0, ((0, 0), (0, 0))))
    assert doc["verdict"] == "fail"
    for op in doc["operators"]:
        assert op["factors_covered"] is False and not op["ok"]
        (pt,) = op["factor_analysis"]
        assert [f["covered_by"] for f in pt["factors"]] == [
            None,
            None,
            {"condition": "a1-b-l", "sign": -1, "shift": "2"},
        ]


def test_gt_obstruction_refuses_symbolic_params_at_the_gate():
    doc = gt_obstruction(Params.symbolic(), Window(0, 0, ((0, 0), (0, 0))))
    assert doc["verdict"] == "refused"
    assert doc["reason"] == "symbolic parameters: genericity is undecidable"


def test_gt_central_degree_one():
    doc = gt_central_check(Params.symbolic(), Window.symmetric(3, 2, 2, margin=1), 3, 1)
    assert doc["verdict"] == "pass"
    assert doc["trace_zero"] is True
    assert doc["absorbed"] and not doc["failures"]


def test_gt_central_control_detects_noncentral():
    doc = gt_central_check(
        Params.symbolic(), Window.symmetric(4, 3, 3, margin=2), 2, 2, controls=((1, 3),)
    )
    assert doc["verdict"] == "pass"
    assert doc["controls"] and all(c["nonzero"] for c in doc["controls"])


@pytest.mark.parametrize(
    "params", [Params.symbolic(), Params.numeric()], ids=["derived", "direct"]
)
def test_gt_central_counts_every_failure_and_prints_the_first_five(monkeypatch, params):
    bind = sl3.generator_operator

    def doubled_e12(params, g, scale=1):
        apply = bind(params, g, scale)
        return (lambda x: apply(x).scale(2)) if g == (1, 2) else apply

    monkeypatch.setattr(sl3, "generator_operator", doubled_e12)
    window = Window(0, 5, ((0, 5), (0, 4)), margin=2)  # four inner basis vectors
    inner = [(idx, list(pt)) for idx, pt in window.basis(inner=True)]
    doc = gt_central_check(params, window, 3, 2)
    failures = doc["failures"]
    assert doc["verdict"] == "fail" and doc["commutator_checks"] == 9 * 4
    # six commutators fail at each inner basis vector; all five printed
    # failures are those of the first one, in generator order
    assert doc["failure_count"] == 6 * 4
    assert [(f["generator"], f["basis"]["index"], f["basis"]["r"]) for f in doc["failures"]] == [
        (name, *inner[0]) for name in ("E12", "E13", "E21", "E23", "E31")
    ]
    # with m = 2, E12 and E21 fail at every basis vector, listed vector
    # by vector
    doc = gt_central_check(params, window, 2, 2, controls=((1, 3),))
    assert doc["failure_count"] == 2 * 4
    assert [(f["generator"], f["basis"]["index"], f["basis"]["r"]) for f in doc["failures"]] == [
        ("E12", *inner[0]), ("E21", *inner[0]),
        ("E12", *inner[1]), ("E21", *inner[1]),
        ("E12", *inner[2]),
    ]
    # a control that is also a generator still fails as a generator
    doc = gt_central_check(params, window, 3, 2, controls=((1, 2),))
    assert doc["failure_count"] == 6 * 4 and doc["failures"] == failures
    assert doc["controls"] == [{"generator": "E12", "nonzero": True}]


@pytest.mark.parametrize(
    "params, window, m, k, controls",
    [
        (Params.symbolic(), Window.symmetric(2, 1, 1, margin=0), 3, 2, ()),
        # the word sum stays inside; the control E13 moves v(1, r2) to
        # r1 = 2, so the control's supports must count toward absorption
        (Params.symbolic(), Window.symmetric(1, 1, 1), 1, 1, ((1, 3),)),
        (Params.numeric(), Window.symmetric(1, 1, 1), 1, 1, ((1, 3),)),
    ],
    ids=["word", "control-derived", "control-direct"],
)
def test_gt_central_errors_when_window_cannot_absorb(params, window, m, k, controls):
    doc = gt_central_check(params, window, m, k, controls)
    assert doc["verdict"] == "error" and doc["absorbed"] is False
    assert doc["controls"] == [{"generator": "E13", "nonzero": True}] * len(controls)


@pytest.mark.parametrize("control, name", [((4, 4), "E44"), ((0, 1), "E01")])
def test_gt_central_refuses_a_control_outside_the_nine_generators(monkeypatch, control, name):
    # refused by name before any generator is bound or applied
    def unreachable(*args):
        raise AssertionError("a generator was bound before the controls were checked")

    monkeypatch.setattr(sl3, "generator_operator", unreachable)
    with pytest.raises(ValueError, match=f"no generator {name}"):
        gt_central_check(
            Params.symbolic(), Window.symmetric(1, 1, 1, margin=1), 2, 2, controls=((1, 3), control)
        )


@pytest.mark.parametrize("m, k", [(0, 1), (4, 1), (3, 0), (2, -1)])
def test_gt_central_refuses_an_empty_or_trivial_word_sum(m, k):
    # m = 0 sums no word and k = 0 makes c the identity: either would
    # pass without a single meaningful check
    with pytest.raises(ValueError, match="1 <= m <= 3 and k >= 1"):
        gt_central_check(Params.symbolic(), Window.symmetric(1, 1, 1, margin=1), m, k)
