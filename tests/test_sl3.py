"""Restriction to sl3: the nine generator formulas and their cross-checks."""

import json
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from operator import itemgetter

import pytest

from wittmod import engine, glmod, sl3
from wittmod.cli import main
from wittmod.glmod import bracket_residual, bracket_residuals
from wittmod.engine import (
    DEFAULT_WORDS,
    GT_OBSTRUCTION_OPS,
    Window,
    gt_central_check,
    gt_obstruction,
    proof_report,
)
from wittmod.report import canonical_json
from wittmod.scalars import A1, A2, B, C, IOTA, L, common_denominator
from wittmod.tensor import ModuleElement, element_to_json
from wittmod.sl3 import (
    CONDITION_NAMES,
    CONDITIONS,
    DEGENERATE_VALUES,
    GEN_NAMES,
    NAME_OF,
    PARAM_KEYS,
    SPANNING_CONDITIONS,
    Params,
    act_embedded,
    act_gen,
    act_word,
    basis_element,
    check_generic,
    form_value,
    parse_param_line,
    parse_word,
    proof_identity_report,
    verify_embedding,
    verify_sl3_brackets,
    word_path,
    word_shift,
)

NUM = Params.numeric()
DEG = Params.numeric(DEGENERATE_VALUES)
SYM = Params.symbolic()
SYM_IOTA = Params.symbolic(with_iota_index=True)
GENS = sorted(GEN_NAMES.values())


# -- pinned generator values ----------------------------------------------


def test_cartan_eigenvalue():
    x = basis_element(NUM, 3, (2, -1))
    assert act_gen(NUM, 1, 1, x) == x.scale(Fraction(35, 17))


def test_trace_acts_as_zero():
    x = basis_element(NUM, 2, (1, 1))
    total = act_gen(NUM, 1, 1, x) + act_gen(NUM, 2, 2, x) + act_gen(NUM, 3, 3, x)
    assert total.is_zero()


def test_raising_generator_components():
    out = act_gen(NUM, 1, 2, basis_element(NUM, 0, (0, 0)))
    assert out.support_points() == {(1, -1)}
    # l - b + a2 and c + l at the desk parameters
    assert out.coefficient(0, (1, -1)) == Fraction(153, 1463)
    assert out.coefficient(1, (1, -1)) == Fraction(20, 91)


def test_word_action_pinned():
    y = act_word(NUM, parse_word("E13*E32"), basis_element(NUM, 0, (0, 0)))
    assert y.coefficient(0, (1, -1)) == Fraction(146565, 2140369)
    assert y.coefficient(1, (1, -1)) == Fraction(-3060, 133133)


def test_weights():
    # E11, E22, E33 act on v_i(r) by (a1 + r1, a2 + r2, -(a1 + r1 + a2 + r2))
    x = basis_element(NUM, 1, (1, -1))
    assert [act_gen(NUM, i, i, x) for i in (1, 2, 3)] == [
        x.scale(Fraction(18, 17)),
        x.scale(Fraction(-18, 19)),
        x.scale(Fraction(-36, 323)),
    ]
    y = basis_element(NUM, 0, (0, 0))
    assert (act_gen(NUM, 1, 1, y) + act_gen(NUM, 2, 2, y) + act_gen(NUM, 3, 3, y)).is_zero()


def test_alpha_mismatch_rejected():
    # every sl3 binding refuses an element of another twist, in the Witt
    # bindings' words: act_gen, a bound generator and the Witt route
    x = ModuleElement.basis((Fraction(1), Fraction(2)), 0, (0, 0))
    for params in (NUM, SYM):
        bound = sl3.generator_operator(params, (1, 2))
        routes = (partial(act_gen, params, 1, 1), bound, partial(act_embedded, params, 1, 3))
        for route in routes:
            with pytest.raises(ValueError, match="does not match the bound"):
                route(x)
        # the twist the parameters name is taken
        assert not bound(basis_element(params, 0, (0, 0))).is_zero()


@pytest.mark.parametrize("gen", [(4, 4), (0, 1), (1, 4), (3, 0)])
@pytest.mark.parametrize("params", [NUM, SYM], ids=["numeric", "symbolic"])
def test_unknown_generator_rejected(params, gen):
    from wittmod.tensor import ModuleElement

    for x in (ModuleElement.zero(params.alpha()), basis_element(params, 0, (0, 0))):
        with pytest.raises(ValueError, match="no generator"):
            act_gen(params, *gen, x)


# -- words ----------------------------------------------------------------


def test_parse_word():
    assert parse_word("E13*E32") == ((1, 3), (3, 2))
    assert word_shift(((1, 3), (3, 2))) == (1, -1)
    with pytest.raises(ValueError):
        parse_word("E14")
    with pytest.raises(ValueError):
        parse_word("")


def test_word_order_rightmost_first():
    x = basis_element(NUM, 0, (0, 0))
    composed = act_gen(NUM, 1, 2, act_gen(NUM, 2, 1, x))
    assert act_word(NUM, parse_word("E12*E21"), x) == composed


# the closure words and the three obstruction words on one-point rows,
# against the per-application act_word image read at the row's point
# moved by word_shift.  Rows are scale**len(word) times it, scale
# = lcm(7, 11, 13, 17, 19) at the defaults, lcm(7, 11, 13, 77, 77) at the
# degenerate preset and 1 at an all-integer point, where the table must
# still hold ints; symbolic parameters are refused
ROW_WORDS = DEFAULT_WORDS + tuple(parse_word(word) for word, _ in GT_OBSTRUCTION_OPS)
INTEGER_POINT = Params.numeric({"l": 2, "b": -1, "c": 3, "a1": 1, "a2": -2})


@pytest.mark.parametrize(
    "params, scale",
    [(NUM, 323323), (DEG, 1001), (INTEGER_POINT, 1), (SYM, 1), (SYM_IOTA, 1)],
    ids=["default", "degenerate", "integer", "symbolic", "iota"],
)
def test_row_action_is_the_scaled_word_image(params, scale):
    if not params.is_numeric():
        # Scalars reach the table through generator_operator alone
        with pytest.raises(ValueError, match="row_action needs numeric parameters"):
            sl3.row_action(params)
        return
    apply = sl3.row_action(params)
    # v_j(r) for j in -1..1 and r in [-1, 1]^2, window-edge indices and a
    # multi-term row
    rows = [({j: 1}, r) for j, r in product((-1, 0, 1), product((-1, 0, 1), repeat=2))]
    rows += [({-3: 1}, (2, -1)), ({4: 1}, (-4, 3)), ({-4: 2, 0: -3, 4: 5}, (4, -4))]
    for letters, (row, pt) in product(ROW_WORDS, rows):
        x = ModuleElement(params.alpha(), {(i, pt): cf for i, cf in row.items()})
        y = act_word(params, letters, x)
        assert y.support_points() <= {tuple(map(sum, zip(pt, word_shift(letters))))}
        image = apply(letters, row, pt)
        assert image == {i: cf * scale ** len(letters) for (i, _), cf in y.terms.items()}
        assert all(type(cf) is int for cf in image.values())


@pytest.mark.parametrize("letter", [(4, 4), (0, 1)], ids=["E44", "E01"])
@pytest.mark.parametrize(
    "helper",
    [word_shift, partial(word_path, offset=0), partial(sl3.row_action(NUM), row={0: 1}, pt=(0, 0))],
    ids=["word_shift", "word_path", "row_action"],
)
def test_word_helpers_refuse_an_unknown_letter_by_name(helper, letter):
    with pytest.raises(ValueError, match=f"no generator E{letter[0]}{letter[1]}"):
        helper(((1, 2), letter))


def test_word_path_needs_exactly_one_path():
    word = parse_word("E12*E21")
    # offset 0: E21 to v_{i-1} then E12 back, or both at v_i; 2: no path
    assert word_path(word, 0) is None and word_path(word, 2) is None
    assert word_path(parse_word("E12"), 1) == ((1, (1, 0, 1, 0, 0)),)


@pytest.mark.parametrize(
    "word, offset, forms",
    [
        ("E12*E21", 1, [(A1 - B - L) - IOTA, (C + L) + IOTA]),
        ("E12*E21", -1, [(C - L) - IOTA, (A2 - B + L) + IOTA]),
        ("E23*E32", -1, [(A2 - B + L) + IOTA, -((C - L) - IOTA)]),
        ("E13*E31", 1, [(A1 - B - L) - IOTA, -((C + L) + IOTA)]),
    ],
)
def test_word_path_reads_the_leakage_forms(word, offset, forms):
    # one table entry per letter, the rightmost first; read at v_0(0,0)
    # and at the basis vector the first letter lands on, with lam = l + iota
    letters = parse_word(word)
    path = word_path(letters, offset)
    assert all(e in sl3.GENERATORS[g][2] for g, e in zip(reversed(letters), path))
    (off, first), (_, second) = path
    lam, b, c, a1, a2 = Params.symbolic(with_iota_index=True)
    r1, r2 = word_shift(letters[-1:])
    landed = (lam + off, b, c, a1 + r1, a2 + r2)
    assert [form_value(first, (lam, b, c, a1, a2)), form_value(second, landed)] == forms

# -- bracket relations ----------------------------------------------------


@pytest.mark.parametrize("params", [NUM, SYM], ids=["numeric", "symbolic"])
def test_bracket_sample(params):
    x = basis_element(params, 1, (1, -2))
    for g1, g2 in (((1, 2), (2, 1)), ((1, 3), (3, 2)), ((2, 3), (3, 3))):
        assert bracket_residual(partial(act_gen, params), *g1, *g2, x).is_zero()


def test_bracket_window_sweep():
    points = [(0, 0), (1, -1), (-2, 1)]
    rep = verify_sl3_brackets(NUM, points, range(-2, 3))
    assert rep["ok"], rep["failures"][:3]
    assert rep["checked"] == 81 * len(points) * 5


# residuals at the defaults when E12's output is doubled, one row per
# failing pair, in the basis order v_0(0,0), v_1(0,0), v_0(1,-1), v_1(1,-1);
# each entry lists the residual's (index, coefficient) terms, all at the
# basis vector's lattice point moved by the row's shift
DOUBLED_E12_FAILURES = [
    (("E12", "E21"), (0, 0), [[(0, "2/323")], [(1, "2/323")], [(0, "648/323")], [(1, "648/323")]]),
    (("E12", "E23"), (1, 0), [
        [(0, "-8586/24871"), (1, "-20/91")], [(1, "-33457/24871"), (2, "-111/91")],
        [(0, "-8586/24871"), (1, "-20/91")], [(1, "-33457/24871"), (2, "-111/91")],
    ]),
    (("E12", "E31"), (0, -1), [
        [(0, "-153/1463")], [(1, "-1616/1463")], [(0, "1310/1463")], [(1, "-153/1463")],
    ]),
    (("E13", "E32"), (1, -1), [
        [(0, "-153/1463"), (1, "-20/91")], [(1, "-1616/1463"), (2, "-111/91")],
        [(0, "1310/1463"), (1, "-20/91")], [(1, "-153/1463"), (2, "-111/91")],
    ]),
    (("E21", "E12"), (0, 0), [
        [(0, "-2/323")], [(1, "-2/323")], [(0, "-648/323")], [(1, "-648/323")],
    ]),
    (("E23", "E12"), (1, 0), [
        [(0, "8586/24871"), (1, "20/91")], [(1, "33457/24871"), (2, "111/91")],
        [(0, "8586/24871"), (1, "20/91")], [(1, "33457/24871"), (2, "111/91")],
    ]),
    (("E31", "E12"), (0, -1), [
        [(0, "153/1463")], [(1, "1616/1463")], [(0, "-1310/1463")], [(1, "153/1463")],
    ]),
    (("E32", "E13"), (1, -1), [
        [(0, "153/1463"), (1, "20/91")], [(1, "1616/1463"), (2, "111/91")],
        [(0, "-1310/1463"), (1, "20/91")], [(1, "153/1463"), (2, "111/91")],
    ]),
]


def _doubled_e12(bind):
    """``bind``, a ``generator_operator``, with the output of E12 doubled;
    ``act_gen`` applies the binding, so it doubles E12 too."""

    def doubled(params, g, scale=1):
        apply = bind(params, g, scale)
        return (lambda x: apply(x).scale(2)) if g == (1, 2) else apply

    return doubled


def test_corrupted_generator_failure_list_is_pinned(monkeypatch):
    monkeypatch.setattr(sl3, "generator_operator", _doubled_e12(sl3.generator_operator))
    rep = verify_sl3_brackets(NUM, [(0, 0), (1, -1)], range(2))
    bases = [(idx, r) for r in ((0, 0), (1, -1)) for idx in range(2)]
    expected = [
        {
            "pair": list(pair),
            "basis": {"index": idx, "r": list(r)},
            "residual": {
                "alpha": ["1/17", "1/19"],
                "terms": [
                    {"index": t, "r": [r[0] + shift[0], r[1] + shift[1]], "coeff": cf}
                    for t, cf in terms
                ],
            },
        }
        for pair, shift, residuals in DOUBLED_E12_FAILURES
        for (idx, r), terms in zip(bases, residuals)
    ]
    assert not rep["ok"] and rep["checked"] == 81 * 4
    assert len(rep["failures"]) == 32
    assert rep["failures"] == expected


TABLED_VECTORS = ((0, (0, 0)), (1, (1, -2)), (-2, (2, 1)))


def _memo(act):
    """``act`` forming each (generator, element) image once: per-pair
    ``bracket_residual`` calls then share images, while each still forms
    its pair from the bracket law alone.  The memo holds every element it
    has seen, so an id is never reused while it lives."""
    images = {}

    def memo(i, j, x):
        key = (i, j, id(x))
        if key not in images:
            images[key] = (x, act(i, j, x))
        return images[key][1]

    return memo


@pytest.mark.parametrize("params", [NUM, SYM, SYM_IOTA], ids=["numeric", "symbolic", "iota"])
def test_tabled_residuals_equal_bracket_residual(monkeypatch, params):
    # bracket_residuals forms each unordered pair once and derives its
    # mirror and the diagonal; every derived residual must be the one
    # bracket_residual forms, for the intact and every corrupted table.
    # The numeric sweep runs on ints scaled by L; its report at each
    # vector, failure text included, must be the one built from those
    # per-pair residuals, which act_gen forms in Fractions
    compared = failing = 0
    for name, patch in _corruptions():
        with monkeypatch.context() as m:
            patch(m)
            # the sweep's route: each generator bound once, unscaled
            ops = {g: sl3.generator_operator(params, g) for g in GENS}
            for idx, r in TABLED_VECTORS:
                x = basis_element(params, idx, r)
                per_pair = _memo(partial(act_gen, params))
                direct = {
                    (g1, g2): bracket_residual(per_pair, *g1, *g2, x) for g1 in GENS for g2 in GENS
                }
                residuals = bracket_residuals(lambda i, j, v: ops[i, j](v), 3, x)
                assert list(residuals) == list(direct)
                assert residuals == direct, (name, idx, r)
                compared += 1
                if params is not NUM:
                    continue
                found = [
                    {"pair": [NAME_OF[g1], NAME_OF[g2]], "basis": {"index": idx, "r": list(r)},
                     "residual": element_to_json(res)}
                    for (g1, g2), res in direct.items()
                    if not res.is_zero()
                ]
                rep = verify_sl3_brackets(NUM, [r], [idx])
                assert rep == {"ok": not found, "checked": 81, "failures": found}, (name, idx, r)
                failing += not rep["ok"]
    # 111 row corruptions, the doubled E12 and the intact table
    assert compared == 113 * len(TABLED_VECTORS)
    # act_gen reads no row's u, so its 9 negations and 6 swaps pass;
    # every other one fails at each of the three vectors
    assert params is not NUM or failing == (111 - 15 + 1) * len(TABLED_VECTORS)


def test_bracket_sweep_applies_each_generator_once_per_image(monkeypatch):
    binds, calls = [], []
    bind = sl3.generator_operator

    def counted(params, g, scale=1):
        binds.append(g)
        apply = bind(params, g, scale)

        def applied(x):
            calls.append(g)
            return apply(x)

        return applied

    monkeypatch.setattr(sl3, "generator_operator", counted)
    rep = verify_sl3_brackets(NUM, [(0, 0), (1, -1)], [0])
    assert rep["ok"] and rep["checked"] == 81 * 2
    # each generator is bound once per sweep; per basis vector it makes
    # one image of the vector and one of each other generator's image:
    # 9 + 72, the diagonal's 9 second images are not formed
    assert sorted(binds) == GENS
    assert len(calls) == 2 * (9 + 72)
    assert Counter(calls) == dict.fromkeys(GENS, 2 * 9)


def test_symbolic_residuals_negate_only_uncancelled_terms(monkeypatch):
    # ModuleElement subtraction works in place: outside act_gen, a sweep
    # negates a coefficient only where the minuend lacks its key, or to
    # derive a mirrored pair's residual.  On v_0(0,0) no diagonal pair is
    # formed and every residual is zero, so nothing is negated.
    # Inside act_gen, a negation or subtraction comes only from a negative
    # coefficient of the row's forms, evaluated once per call, never from
    # a term.
    from wittmod.scalars import Scalar

    signed, in_act = {False: 0, True: 0}, [False]
    neg, sub = Scalar.__neg__, Scalar.__sub__

    def spy(op):
        def counted(*args):
            signed[in_act[0]] += 1
            return op(*args)
        return counted

    def act(i, j, x):
        in_act[0] = True
        try:
            return act_gen(SYM, i, j, x)
        finally:
            in_act[0] = False

    def minus_signs(g):
        return sum(k < 0 for _, form in sl3.GENERATORS[g][2] for k in form)

    monkeypatch.setattr(Scalar, "__neg__", spy(neg))
    residuals = bracket_residuals(act, 3, basis_element(SYM, 0, (0, 0)))
    assert len(residuals) == 81 and all(res.is_zero() for res in residuals.values())
    assert signed[False] == 0
    # with E12 doubled, four unordered pairs fail; each mirror costs one
    # negation per term of its residual, and nothing else is negated
    with monkeypatch.context() as m:
        m.setattr(sl3, "generator_operator", _doubled_e12(sl3.generator_operator))
        residuals = bracket_residuals(act, 3, basis_element(SYM, 0, (0, 0)))
    mirrored = [res for (g1, g2), res in residuals.items() if g1 > g2 and not res.is_zero()]
    assert len(mirrored) == 4
    assert signed[False] == sum(len(res.terms) for res in mirrored) == 6
    monkeypatch.setattr(Scalar, "__sub__", spy(sub))
    signed[True] = 0
    for g in GENS:
        act(*g, basis_element(SYM, 0, (0, 0)))
    # E13's -(l+b+a1+a2) and -(l+c) cost one negation each, and a minus
    # sign after the first coefficient one subtraction
    assert signed[True] == sum(map(minus_signs, GENS)) == 19
    # the count per call does not grow with the number of terms
    x = act_word(SYM, parse_word("E12*E21*E13"), basis_element(SYM, 0, (0, 0)))
    assert len(x.terms) > 2
    for g in GENS:
        signed[True] = 0
        act(*g, x)
        assert signed[True] == minus_signs(g), g


def test_wrong_bracket_is_nonzero():
    # [E12, E21] equals E11 - E22; the + sign is a corruption and must fail
    x = basis_element(NUM, 0, (0, 0))
    lhs = act_word(NUM, parse_word("E12*E21"), x) - act_word(
        NUM, parse_word("E21*E12"), x
    )
    wrong = act_gen(NUM, 1, 1, x) + act_gen(NUM, 2, 2, x)
    assert not (lhs - wrong).is_zero()
    right = act_gen(NUM, 1, 1, x) - act_gen(NUM, 2, 2, x)
    assert (lhs - right).is_zero()


# -- dual route through the Witt action ------------------------------------


@pytest.mark.parametrize("name", sorted(GEN_NAMES))
def test_embedding_agrees_per_generator(name):
    i, j = GEN_NAMES[name]
    for idx, r in ((0, (0, 0)), (2, (1, -1)), (-1, (-2, 1))):
        x = basis_element(NUM, idx, r)
        assert act_gen(NUM, i, j, x) == act_embedded(NUM, i, j, x), name


def test_embedding_sweep_symbolic():
    rep = verify_embedding(SYM, [(0, 0), (2, -1)], range(-1, 2))
    assert rep["ok"], rep["failures"][:3]


def _row_mutations():
    """(generator, row) for each one-field change of a GENERATORS row that
    alters it: u negated (the preimage's sign flipped) or swapped, either
    component of r, and per formula entry its index offset and each
    coefficient of its form."""
    for g, row in sl3.GENERATORS.items():
        u, r, formula = row
        rows = [
            ((-u[0], -u[1]), r, formula),
            (u[::-1], r, formula),
            (u, (r[0] + 1, r[1]), formula),
            (u, (r[0], r[1] + 1), formula),
        ]
        for n, (off, form) in enumerate(formula):
            entries = [(off + 1, form)]
            entries += [(off, form[:k] + (form[k] + 1,) + form[k + 1:]) for k in range(5)]
            rows += [(u, r, formula[:n] + (e,) + formula[n + 1:]) for e in entries]
        yield from ((g, mutated) for mutated in rows if mutated != row)


def test_embedding_check_catches_every_table_mutation(monkeypatch):
    # act_gen and act_embedded read the same row, so the cross-check sees
    # a change in any field of it, the shared shift r included
    window = Window.symmetric(1, 1, 1)
    points, indices = window.points(), window.indices()
    mutations = list(_row_mutations())
    # u = (-1, -1) of E13, E23 and E33 is its own swap; 13 formula entries
    assert len(mutations) == 9 * 4 - 3 + 13 * 6
    for g, row in mutations:
        with monkeypatch.context() as m:
            m.setitem(sl3.GENERATORS, g, row)
            assert not verify_embedding(SYM, points, indices)["ok"], (g, row)
    assert verify_embedding(SYM, points, indices)["ok"]


@pytest.mark.parametrize("params", [NUM, SYM], ids=["numeric", "symbolic"])
@pytest.mark.parametrize("zeroed", ["E11 form", "gl2 E11 column"])
def test_zeroed_forms_fail_brackets(monkeypatch, params, zeroed):
    # a form with no nonzero coefficient is the value 0: a zeroed E11
    # formula breaks [E12, E21] = E11 - E22 and the embedding, a zeroed
    # gl2 E11 column the embedding alone, and neither raises
    assert form_value((0,) * 5, params) == 0
    if zeroed == "E11 form":
        u, r, ((off, _),) = sl3.GENERATORS[(1, 1)]
        monkeypatch.setitem(sl3.GENERATORS, (1, 1), (u, r, ((off, (0,) * 5),)))
    else:
        monkeypatch.setitem(glmod.CUSPIDAL_COLUMNS, (1, 1), (0, (0, 0, 0)))
        assert glmod.CuspidalGl2(*params[:3]).column(1, 1, 0) == ()
    doc = engine.bracket_report(params, Window.symmetric(1, 1, 1))
    assert doc["verdict"] == "fail"
    assert (doc["sl3"]["ok"], doc["embedding"]["ok"]) == (zeroed != "E11 form", False)


# -- lattice covariance -------------------------------------------------------
#
# At symbolic parameters a sweep computes v_0(0,0) only and moves the
# result to every basis vector (sl3.lattice_shift).  The reports must be
# those of a sweep over every basis vector, for the intact table and for
# every corruption a test can write, failures and their printed residuals
# included.

COVARIANCE_POINTS = [(0, 0), (1, -1)]
COVARIANCE_INDICES = [-1, 1]
# inner basis: indices 2, 3 at the points (2, 2) and (3, 2); margin 2
# absorbs every intact central word, and some corrupted ones escape
COVARIANCE_WINDOW = Window(0, 5, ((0, 5), (0, 4)), margin=2)
CENTRAL_CHECKS = [(3, 1, ()), (3, 2, ()), (2, 2, ((1, 3), (3, 3)))]


def _direct_bracket_sweep(params, points, indices) -> dict:
    """``verify_sl3_brackets``'s report from each basis vector's own
    ``bracket_residuals``."""
    act = partial(sl3.act_gen, params)
    found = []
    for r in points:
        for idx in indices:
            residuals = bracket_residuals(act, 3, basis_element(params, idx, r))
            for pos, ((g1, g2), res) in enumerate(residuals.items()):
                if not res.is_zero():
                    found.append((pos, {
                        "pair": [NAME_OF[g1], NAME_OF[g2]],
                        "basis": {"index": idx, "r": list(r)},
                        "residual": element_to_json(res),
                    }))
    found.sort(key=itemgetter(0))
    return {
        "ok": not found,
        "checked": 81 * len(points) * len(indices),
        "failures": [failure for _, failure in found],
    }


def _table_corruptions():
    """(name, patch) for the intact table and every ``_row_mutations`` row;
    ``patch(m)`` applies one through the monkeypatch context m."""
    yield "intact table", lambda m: None
    for g, row in _row_mutations():
        yield f"{NAME_OF[g]} {row}", lambda m, g=g, row=row: m.setitem(sl3.GENERATORS, g, row)


def _corruptions():
    """``_table_corruptions`` and the doubled E12."""
    yield from _table_corruptions()

    yield "doubled E12", lambda m: m.setattr(
        sl3, "generator_operator", _doubled_e12(sl3.generator_operator)
    )


def _central_reports(params) -> list:
    return [
        canonical_json(gt_central_check(params, COVARIANCE_WINDOW, m, k, controls))
        for m, k, controls in CENTRAL_CHECKS
    ]


def _row_sample(corruptions):
    # each row's first corruption and the doubled E12: enough failing
    # reports for l -> l + i inside lam = l + iota
    rows = set()
    for name, patch in corruptions:
        row = name.split()[0]
        if row not in rows or name == "doubled E12":
            rows.add(row)
            yield name, patch


def test_covariant_bracket_sweep_equals_the_direct_sweep(monkeypatch):
    runs = [(SYM, list(_corruptions())), (SYM_IOTA, list(_row_sample(_corruptions())))]
    failing = 0
    for params, corruptions in runs:
        window = (params, COVARIANCE_POINTS, COVARIANCE_INDICES)
        for name, patch in corruptions:
            with monkeypatch.context() as m:
                patch(m)
                rep = verify_sl3_brackets(*window)
                assert canonical_json(rep) == canonical_json(_direct_bracket_sweep(*window)), name
                failing += params is SYM and not rep["ok"]
    # act_gen reads no row's u: its 9 negations and 6 swaps pass, and
    # every other one fails, as does the doubled E12
    assert failing == 111 - 15 + 1


def test_numeric_bracket_sweep_equals_the_direct_sweep(monkeypatch):
    # numeric parameters compute every basis vector; their failures keep
    # the same pair by pair, (point, index) order
    window = (NUM, COVARIANCE_POINTS, COVARIANCE_INDICES)
    failing = 0
    for name, patch in _row_sample(_corruptions()):
        with monkeypatch.context() as m:
            patch(m)
            rep = verify_sl3_brackets(*window)
            assert canonical_json(rep) == canonical_json(_direct_bracket_sweep(*window)), name
            failing += len(rep["failures"]) > len(COVARIANCE_POINTS) * len(COVARIANCE_INDICES)
    assert failing


def _direct_embedding_sweep(params, points, indices) -> dict:
    """``verify_embedding``'s report from each basis vector's own
    comparison, generator by generator."""
    failures = []
    for name, (i, j) in GEN_NAMES.items():
        for r in points:
            for idx in indices:
                x = basis_element(params, idx, r)
                res = sl3.act_gen(params, i, j, x) - sl3.act_embedded(params, i, j, x)
                if not res.is_zero():
                    failures.append({
                        "generator": name,
                        "basis": {"index": idx, "r": list(r)},
                        "residual": element_to_json(res),
                    })
    return {"ok": not failures, "checked": 9 * len(points) * len(indices), "failures": failures}


def _column_mutations():
    """(generator, entry) for each one-field change of a
    ``glmod.CUSPIDAL_COLUMNS`` entry: its offset by -1 or +1, and each
    coefficient of its form by +1."""
    for g, (off, form) in glmod.CUSPIDAL_COLUMNS.items():
        yield from ((g, (off + d, form)) for d in (-1, 1))
        yield from ((g, (off, form[:k] + (form[k] + 1,) + form[k + 1:])) for k in range(3))


def _embedding_corruptions():
    """``_table_corruptions`` and every ``_column_mutations`` entry, the
    latter named by its gl2 generator, as gl2-E12 and so on."""
    yield from _table_corruptions()
    for (i, j), entry in _column_mutations():
        yield f"gl2-E{i}{j} {entry}", lambda m, g=(i, j), entry=entry: m.setitem(
            glmod.CUSPIDAL_COLUMNS, g, entry
        )


def test_covariant_embedding_sweep_equals_the_direct_sweep(monkeypatch):
    # the Witt route reads the GENERATORS row's u and r and the gl2
    # columns; the derived sweep moves v_0(0,0)'s residuals, the direct
    # one computes every basis vector.  Numeric parameters take the
    # direct route in verify_embedding too: that run pins the order
    corruptions = list(_embedding_corruptions())
    sample = list(_row_sample(corruptions))
    failing = []
    for params, run in ((SYM, corruptions), (SYM_IOTA, sample), (NUM, sample)):
        window = (params, COVARIANCE_POINTS, COVARIANCE_INDICES)
        failing.append(0)
        for name, patch in run:
            with monkeypatch.context() as m:
                patch(m)
                rep = verify_embedding(*window)
                assert canonical_json(rep) == canonical_json(_direct_embedding_sweep(*window)), name
                failing[-1] += not rep["ok"]
    # every row and column corruption fails: 111 rows and 20 columns in
    # full, the first of each of the 9 rows and 4 columns in the sample
    assert failing == [111 + 20, 13, 13]


@pytest.mark.parametrize(
    "argv, calls",
    [([], 9), (["--mode", "numeric", "--window", "2,1,1"], 405)],
    ids=["symbolic", "numeric"],
)
def test_brackets_applies_the_witt_route_per_computed_vector(monkeypatch, capsys, argv, calls):
    # symbolic brackets (window 3,2,2) compares the nine generators at
    # v_0(0,0) alone; numeric ones at each of the 45 basis vectors
    count = [0]
    embedded = sl3.act_embedded

    def spy(*args):
        count[0] += 1
        return embedded(*args)

    monkeypatch.setattr(sl3, "act_embedded", spy)
    assert main(["brackets", *argv]) == 0
    capsys.readouterr()
    assert count[0] == calls


def test_covariant_central_check_equals_the_direct_sweep(monkeypatch):
    # the direct route is the one every numeric parameter vector takes;
    # each direct sweep costs four derived ones, so one corruption in
    # three is compared at l, and a row sample at l + iota
    corruptions = list(_corruptions())
    runs = [(SYM, corruptions[::3]), (SYM_IOTA, list(_row_sample(corruptions)))]
    outcomes = set()
    for params, sample in runs:
        for name, patch in sample:
            with monkeypatch.context() as m:
                patch(m)
                derived = _central_reports(params)
                m.setattr(sl3, "COVARIANT_PARAMS", ())
                assert _central_reports(params) == derived, name
            outcomes.update((c["verdict"], c["absorbed"]) for c in map(json.loads, derived))
    # passing, failing and unabsorbed reports are all compared
    assert {("pass", True), ("fail", True), ("error", False)} <= outcomes


def _central_image(params, words, x):
    """c x for the central words ``words``: ``act_word`` applies one
    ``act_gen`` per letter."""
    return sum((act_word(params, letters, x) for letters in words), x.scale(0))


def test_numeric_central_residuals_are_the_per_application_ones(monkeypatch):
    # the numeric central sweep applies c through generators scaled by L
    # and divides each residual by L**(k + 1); every printed residual must
    # be c(E_g x) - E_g(c x) formed in Fractions by act_gen, one
    # application at a time, so a wrong power of L shows
    assert common_denominator(NUM) > 1
    compared = 0
    for name, patch in _row_sample(_corruptions()):
        with monkeypatch.context() as m:
            patch(m)
            for mm, k, controls in CENTRAL_CHECKS:
                words = engine.central_words(mm, k)
                doc = gt_central_check(NUM, COVARIANCE_WINDOW, mm, k, controls)
                for failure in doc["failures"]:
                    g = GEN_NAMES[failure["generator"]]
                    x = basis_element(NUM, failure["basis"]["index"], failure["basis"]["r"])
                    res = _central_image(NUM, words, act_gen(NUM, *g, x)) - act_gen(
                        NUM, *g, _central_image(NUM, words, x)
                    )
                    assert failure["residual"] == element_to_json(res), (name, mm, k, failure)
                    compared += 1
    assert compared


LEAKAGE_ROWS = {GEN_NAMES[name] for name in ("E12", "E21", "E23", "E32", "E13", "E31")}


def test_table_splits_are_the_factored_ones(monkeypatch):
    # the split gt_obstruction reads off the table at v_0(0,0) and moves
    # by sigma, against sympy's factorization of the coefficient act_word
    # computes, at v_0(0,0) and an off-axis point, for the intact table and
    # every corruption of a leakage word's rows.  gt_obstruction certifies
    # each split at v_0(0,0), moved words included, and fails a word with
    # no unique path
    from test_analysis import _sigma, _sympy_split

    factored = {}
    no_path = []
    rows = [(g, row) for g, row in _row_mutations() if g in LEAKAGE_ROWS]
    for g, row in [(None, None), *rows]:
        with monkeypatch.context() as m:
            if g is not None:
                m.setitem(sl3.GENERATORS, g, row)
            doc = gt_obstruction(NUM, Window(0, 0, ((0, 0), (0, 0))))
            for (word_text, direction), op in zip(GT_OBSTRUCTION_OPS, doc["operators"]):
                letters = parse_word(word_text)
                path = word_path(letters, direction)
                if path is None:
                    no_path.append(g)
                    assert op["factor_analysis"] == [{"r": [0, 0], "factors": None}]
                    assert not op["ok"]
                    continue
                s1, s2 = word_shift(letters)
                split = engine._leakage_split(letters, path)
                for pt in [(0, 0), (2, -1)]:
                    y = act_word(SYM_IOTA, letters, basis_element(SYM_IOTA, 0, pt))
                    kappa = y.coefficient(direction, (pt[0] + s1, pt[1] + s2))
                    if kappa not in factored:
                        factored[kappa] = _sympy_split(kappa)
                    assert _sigma(split, pt) == factored[kappa], (g, row)
    # offset mutations that leave two paths (E12, E13, E21, E23) or none
    # (E13's second entry, E32) to the extreme index
    assert sorted(NAME_OF[g] for g in no_path) == ["E12", "E13", "E13", "E21", "E23", "E32"]


# -- genericity -------------------------------------------------------------


def test_generic_at_desk_point():
    rep = check_generic(NUM)
    assert rep["decidable"]
    assert rep["spanning_ok"] and rep["irreducibility_ok"]
    assert all(c["holds"] for c in rep["conditions"])
    assert [c["name"] for c in rep["conditions"]] == list(CONDITION_NAMES)


def _form_of(text: str) -> tuple:
    """A condition name such as ``a1+a2+b-c`` read as its coefficients
    over PARAM_KEYS."""
    form, pos = dict.fromkeys(PARAM_KEYS, 0), 0
    for m in re.finditer(r"([+-]?)(\d*)(a1|a2|l|b|c)", text):
        assert m.start() == pos, text
        form[m[3]] += int(m[1] + (m[2] or "1"))
        pos = m.end()
    assert pos == len(text), text
    return tuple(form.values())


def test_condition_names_are_the_text_of_their_forms():
    assert {name: _form_of(name) for name in CONDITIONS} == CONDITIONS
    assert _form_of("-l+2b-3a2") == (-1, 2, 0, 0, -3)
    assert SPANNING_CONDITIONS == CONDITION_NAMES[:8]


def test_generic_irreducibility_only_violation():
    p = Params.numeric({"c": Fraction(3, 11)})  # c = 3b kills one extra condition
    rep = check_generic(p)
    assert rep["spanning_ok"]
    assert not rep["irreducibility_ok"]
    failing = [c["name"] for c in rep["conditions"] if not c["holds"]]
    assert failing[0] == "c-3b"
    assert not set(failing) & set(SPANNING_CONDITIONS)


def test_generic_degenerate_preset():
    rep = check_generic(Params.numeric(DEGENERATE_VALUES))
    assert not rep["spanning_ok"] and not rep["irreducibility_ok"]
    assert [c["name"] for c in rep["conditions"] if not c["holds"]][0] == "a1-b-l"


def test_generic_symbolic_undecidable():
    rep = check_generic(SYM)
    assert not rep["decidable"]
    assert rep["spanning_ok"] is None and rep["irreducibility_ok"] is None
    assert all(c["value"] is None and c["holds"] is None for c in rep["conditions"])


def test_params_numeric_rejects_unknown_key():
    with pytest.raises(ValueError):
        Params.numeric({"q": Fraction(1)})


def test_params_numeric_rejects_floats():
    # 0.1 is not 1/10 in binary; storing it would certify a different point
    with pytest.raises(TypeError):
        Params.numeric({"l": 0.1})
    p = Params.numeric({"l": 1, "b": Fraction(1, 11)})
    assert type(p.lam) is Fraction and p.lam == 1


def test_parse_param_line():
    assert parse_param_line(" b = 1/11 ") == ("b", Fraction(1, 11))
    with pytest.raises(ValueError):
        parse_param_line("q=1")
    with pytest.raises(ValueError):
        parse_param_line("b: 1/11")
    with pytest.raises(ValueError):
        parse_param_line("b=x")


# -- truncation identity suite ----------------------------------------------


def test_truncation_identity_direct():
    # (r2p - b + ii + s) E12 + E13*E32 kills the index above the top of
    # a window of s+1 indices; perturbing the multiplier must not
    p, s = NUM, 1
    top = basis_element(p, s, (0, 0))
    mult = p.a2 - p.b + p.lam + s
    good = act_gen(p, 1, 2, top).scale(mult) + act_word(p, parse_word("E13*E32"), top)
    assert good.coefficient(s + 1, (1, -1)) == 0
    bad = act_gen(p, 1, 2, top).scale(mult + 1) + act_word(p, parse_word("E13*E32"), top)
    assert bad.coefficient(s + 1, (1, -1)) != 0


def test_proof_identity_report():
    rep = proof_identity_report((1, 2))
    assert rep["ok"]
    assert all(d["ok"] for d in rep["displays"])
    assert {d["name"] for d in rep["displays"]} >= {"E13*E32", "E23*E31"}
    for row in rep["truncations"]:
        assert row["ok"]
        assert row["raising_kills_top"] and row["raising_control_nonzero"]
        assert row["lowering_kills_bottom"] and row["lowering_control_nonzero"]


def test_proof_identities_fail_when_the_raising_control_is_not_shifted(monkeypatch):
    # a T_A that drops the control's multiplier shift kills the top index
    # in the control too: the control must report it
    raising = sl3.raising_operator
    monkeypatch.setattr(
        sl3, "raising_operator", lambda params, s, x, shift=0: raising(params, s, x)
    )
    doc = proof_report([1])
    assert doc["verdict"] == "fail"
    (row,) = doc["truncations"]
    assert row["raising_kills_top"] and not row["raising_control_nonzero"]


def test_proof_identities_compare_the_witt_route(monkeypatch):
    # the displays hold through act_gen alone; a Witt route that doubles
    # its image must fail every one of them
    embedded = sl3.act_embedded
    monkeypatch.setattr(
        sl3, "act_embedded", lambda params, i, j, x: embedded(params, i, j, x).scale(2)
    )
    doc = proof_report([1])
    assert doc["verdict"] == "fail"
    assert [d["ok"] for d in doc["displays"]] == [False] * 4


def test_proof_identities_kill_the_bottom_once_per_s(monkeypatch):
    # nothing is kept between truncation lengths: each s = 1..4 calls the
    # builder once, which computes the s + 1 kill images T_B v_j(0,0),
    # j = 0..s, and then the one control, 2 + 3 + 4 + 5 images and 4 controls
    calls, built = [], []
    lowering, images = sl3.lowering_operator, sl3.truncation_images

    def spy(*args, **kwargs):
        calls.append(args)
        return lowering(*args, **kwargs)

    def spy_images(params, s):
        built.append(s)
        return images(params, s)

    monkeypatch.setattr(sl3, "lowering_operator", spy)
    monkeypatch.setattr(sl3, "truncation_images", spy_images)
    rep = proof_identity_report([1, 2, 3, 4])
    assert rep["ok"]
    assert built == [1, 2, 3, 4]
    assert len(calls) == 2 + 3 + 4 + 5 + 4
    assert [x.terms for _, x, *shift in calls if shift == [1]] == [{(0, (0, 0)): 1}] * 4
    assert rep["truncations"] == [
        {
            "s": s,
            "raising_kills_top": True,
            "raising_control_nonzero": True,
            "lowering_kills_bottom": True,
            "lowering_control_nonzero": True,
            "ok": True,
        }
        for s in (1, 2, 3, 4)
    ]


@pytest.mark.parametrize("params", [SYM_IOTA, Params.numeric()], ids=["iota", "numeric"])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_truncation_images_are_the_operators_on_v_0_to_v_s(params, s):
    t_a, t_b = sl3.truncation_images(params, s)
    sources = [basis_element(params, j, (0, 0)) for j in range(s + 1)]
    assert t_a == [sl3.raising_operator(params, s, x) for x in sources]
    assert t_b == [sl3.lowering_operator(params, x) for x in sources]
    assert all(not y.is_zero() for y in t_a + t_b)


def test_proof_identities_compute_each_identity_once(monkeypatch):
    # outermost calls only: one act_word per display, one act_embedded per
    # display letter, one builder call per s, and within or beside it one
    # T_A and one T_B per (s, j) plus one control of each per s
    calls, inside = Counter(), []

    def spy(name):
        original = getattr(sl3, name)

        def wrapped(*args, **kwargs):
            if not inside:
                calls[name] += 1
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(sl3, name, wrapped)

    for name in ("act_word", "act_embedded", "raising_operator", "lowering_operator"):
        spy(name)
    assert proof_identity_report([1, 2, 3, 4])["ok"]
    assert calls == {
        "act_word": 4, "act_embedded": 6, "raising_operator": 18, "lowering_operator": 18
    }
    # with the builder spied too, only the controls are computed outside it
    calls.clear()
    spy("truncation_images")
    assert proof_identity_report([1, 2, 3, 4])["ok"]
    assert calls == {
        "act_word": 4, "act_embedded": 6, "truncation_images": 4,
        "raising_operator": 4, "lowering_operator": 4,
    }


# the four displays as proof_identity_report computes them at the origin:
# (word, source index, source point)
DISPLAY_SOURCES = [
    ("E13*E32", 0, (0, 0)),
    ("E23*E31", 0, (0, 0)),
    ("E13", 0, (0, 0)),
    ("E23", 1, (1, -1)),
]


def test_proof_identities_rest_on_lattice_covariance():
    # the lemma behind the origin route: at the iota parameters an image at
    # lattice point r is the origin's image moved by r through sigma, for
    # both display routes on the 5x5 grid and for T_A(s), T_B with and
    # without the control shift on the unit grid
    def witt(letters, x):
        for g in reversed(letters):
            x = act_embedded(SYM_IOTA, *g, x)
        return x

    routes = [partial(act_word, SYM_IOTA), witt]
    for (word, idx, off), route in product(DISPLAY_SOURCES, routes):
        at_origin = route(parse_word(word), basis_element(SYM_IOTA, idx, off))
        for r in product(range(-2, 3), repeat=2):
            src = basis_element(SYM_IOTA, idx, (off[0] + r[0], off[1] + r[1]))
            image = route(parse_word(word), src)
            assert image == sl3.lattice_shift(at_origin, 0, r), (word, r)
    operators = [partial(sl3.raising_operator, SYM_IOTA, s) for s in (1, 2)]
    operators.append(partial(sl3.lowering_operator, SYM_IOTA))
    for op, j, shift in product(operators, range(3), (0, 1)):
        at_origin = op(basis_element(SYM_IOTA, j, (0, 0)), shift=shift)
        for r in product(range(-1, 2), repeat=2):
            image = op(basis_element(SYM_IOTA, j, r), shift=shift)
            assert image == sl3.lattice_shift(at_origin, 0, r), (op, j, shift, r)
