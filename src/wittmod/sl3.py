"""The rank-two tensor-field module restricted to sl3.

For n = 2 the Witt algebra contains a copy of sl3 spanned by nine
first-order generators, written Ebar_ij below and named E11 .. E33 in
text form.  On a tensor-field module built from the two-parameter
cuspidal gl2 family, each generator acts on basis symbols v_i(r1, r2)
by an explicit closed formula.  Both routes read one GENERATORS row per
generator: act_gen applies its formula, a few (index offset, integer
linear form in l, b, c, a1, a2) entries, and act_embedded its Witt
preimage sign * D(u, r), so the two can be compared term by term.  The
row's r is also the lattice shift of the formula.  The ten genericity
conditions are integer linear forms of the same kind (CONDITIONS).

``generator_operator`` binds one row to the parameters, as
``tensor.witt_operator`` binds a D(u, r); act_gen is one application of
it.  ``covariant_sweep`` is the one residual sweep over a window: it
binds the nine once, and the bracket, embedding and ``gt`` central
checks each give it a residual family.  At numeric parameters it runs on
ints, every operator scaled by the lcm of the parameter denominators.
``row_action`` is the one word action on a one-point int row {index:
coefficient}, scaled the same way, and refuses symbolic parameters;
closures and the numeric ``gt`` obstruction block read images off it.

Throughout, for a basis symbol v_i(r1, r2):

    ii  = lam + i          (shifted index)
    r1p = r1 + a1          (shifted first exponent)
    r2p = r2 + a2          (shifted second exponent)

The identity of the bottom gl2 acts as 2*b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .glmod import CuspidalGl2, bracket_residuals
from .scalars import (
    A1,
    A2,
    B,
    C,
    IOTA,
    L,
    add_term,
    coeff_is_zero,
    coeff_to_text,
    common_denominator,
    form_value,
    parse_rational,
    scaled_int,
    shift_symbols,
)
from .tensor import (
    ModuleElement,
    WittGenerator,
    _element,
    _unscaled,
    act_witt,
    element_to_json,
)

PARAM_KEYS = ("l", "b", "c", "a1", "a2")

DEFAULT_VALUES = {
    "l": Fraction(1, 7),
    "b": Fraction(1, 11),
    "c": Fraction(1, 13),
    "a1": Fraction(1, 17),
    "a2": Fraction(1, 19),
}

# a1 = b + l and a2 = b - l: both integrality parameters vanish, so the
# module carries singular vectors along an antidiagonal
DEGENERATE_VALUES = {
    "l": Fraction(1, 7),
    "b": Fraction(1, 11),
    "c": Fraction(1, 13),
    "a1": Fraction(18, 77),
    "a2": Fraction(-4, 77),
}


class Params(NamedTuple):
    """Module parameters (lam, b, c) for the gl2 input and (a1, a2) twists.

    The vector, in PARAM_KEYS order, that every table form is evaluated
    at: hashable and compared by value.  Fields are all exact rationals
    (numeric mode) or all Scalars (symbolic mode).  ``with_iota_index``
    replaces lam by l + iota, a symbolic basis index: formulas depend on i
    only through lam + i, so basis index 0 then stands for a generic index.
    """

    lam: object
    b: object
    c: object
    a1: object
    a2: object

    @classmethod
    def symbolic(cls, with_iota_index: bool = False) -> "Params":
        lam = L + IOTA if with_iota_index else L
        return cls(lam, B, C, A1, A2)

    @classmethod
    def numeric(cls, values: Optional[dict] = None) -> "Params":
        merged = dict(DEFAULT_VALUES)
        if values:
            for key, val in values.items():
                if key not in PARAM_KEYS:
                    raise ValueError(f"unknown parameter key {key!r}")
                if isinstance(val, float):
                    raise TypeError(f"inexact parameter {key}={val!r}")
                merged[key] = Fraction(val)
        return cls(*(merged[k] for k in PARAM_KEYS))

    def is_numeric(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self)

    def alpha(self):
        return (self.a1, self.a2)

    def to_json(self) -> dict:
        return {k: coeff_to_text(v) for k, v in zip(PARAM_KEYS, self)}

    def __repr__(self):
        body = ", ".join(f"{k}={coeff_to_text(v)}" for k, v in zip(PARAM_KEYS, self))
        return f"Params({body})"


def basis_element(params: Params, idx: int, r) -> ModuleElement:
    return ModuleElement.basis(params.alpha(), idx, tuple(r))


def _check_alpha(params: Params, x: ModuleElement):
    if tuple(x.alpha) != tuple(params.alpha()):
        raise ValueError("element twist does not match the given parameters")


# One row per generator Ebar_ij: (sign, u, r, formula).  Its Witt
# preimage is sign * D(u, r), and r is also the lattice shift of its
# closed formula.  A formula entry (offset, form) holds a linear form as
# its integer coefficients over PARAM_KEYS and contributes, on
# v_idx(r1, r2),
#     form(lam + idx, b, c, a1 + r1, a2 + r2) * v_{idx+offset}((r1, r2) + r)
# so idx, r1 and r2 enter through the form's l, a1 and a2 coefficients.
GENERATORS = {
    (1, 1): (1, (1, 0), (0, 0), ((0, (0, 0, 0, 1, 0)),)),
    (1, 2): (1, (0, 1), (1, -1), ((0, (1, -1, 0, 0, 1)), (1, (1, 0, 1, 0, 0)))),
    (1, 3): (-1, (1, 1), (1, 0), ((0, (-1, -1, 0, -1, -1)), (1, (-1, 0, -1, 0, 0)))),
    (2, 1): (1, (1, 0), (-1, 1), ((-1, (-1, 0, 1, 0, 0)), (0, (-1, -1, 0, 1, 0)))),
    (2, 2): (1, (0, 1), (0, 0), ((0, (0, 0, 0, 0, 1)),)),
    (2, 3): (-1, (1, 1), (0, 1), ((-1, (1, 0, -1, 0, 0)), (0, (1, -1, 0, -1, -1)))),
    (3, 1): (1, (1, 0), (-1, 0), ((0, (-1, -1, 0, 1, 0)),)),
    (3, 2): (1, (0, 1), (0, -1), ((0, (1, -1, 0, 0, 1)),)),
    (3, 3): (-1, (1, 1), (0, 0), ((0, (0, 0, 0, -1, -1)),)),
}

GEN_NAMES = {f"E{i}{j}": (i, j) for i, j in GENERATORS}
NAME_OF = {g: name for name, g in GEN_NAMES.items()}


def check_letters(letters):
    """Refuse a letter outside the nine generators, by name."""
    for g in letters:
        if g not in GENERATORS:
            raise ValueError(f"no generator E{g[0]}{g[1]}")


def _formula(g, values, scale: int) -> tuple:
    """(shift, entries) of scale * Ebar_g: an entry (offset, value, k_idx,
    k_r1, k_r2) holds its form at ``values``, the parameters times scale,
    and the form's l, a1 and a2 coefficients times scale.  Its factor on
    v_idx(r1, r2) is value + k_idx*idx + k_r1*r1 + k_r2*r2."""
    check_letters((g,))
    _, _, shift, formula = GENERATORS[g]
    return shift, tuple(
        (off, form_value(f, values), scale * f[0], scale * f[3], scale * f[4])
        for off, f in formula
    )


def generator_operator(params: Params, g, scale: int = 1):
    """scale * Ebar_g bound to ``params``: ``apply(x)``, exact, no
    truncation; the sl3 counterpart of ``tensor.witt_operator``.

    The row's forms are evaluated once, here, at scale * params, through
    ``scalars.scaled_int`` when scale > 1, so that x with int
    coefficients has an int image.  A term then adds only the int
    k_idx*idx + k_r1*r1 + k_r2*r2 to a form's value, where evaluating the
    form at (lam + idx, a1 + r1, a2 + r2) per term would double a symbolic
    sweep's coefficient operations.  ``apply`` refuses an element with
    another alpha.
    """
    values = params if scale == 1 else tuple(scaled_int(v, scale) for v in params)
    (s1, s2), entries = _formula(g, values, scale)

    def apply(x: ModuleElement) -> ModuleElement:
        _check_alpha(params, x)
        out = {}
        for (idx, (r1, r2)), coeff in x.terms.items():
            pt = (r1 + s1, r2 + s2)
            for off, base, ki, k1, k2 in entries:
                add_term(out, (idx + off, pt), coeff * (base + (ki * idx + k1 * r1 + k2 * r2)))
        return _element(x.alpha, out)

    return apply


def act_gen(params: Params, i: int, j: int, x: ModuleElement) -> ModuleElement:
    """Apply Ebar_ij exactly, no truncation: one application of
    ``generator_operator``; a sweep that applies Ebar_ij to many elements
    binds it once instead."""
    return generator_operator(params, (i, j))(x)


def row_action(params: Params):
    """``apply(letters, row, pt)``: the word's image of the sparse int row
    {idx: coefficient} at ``pt``, a sparse row at ``pt + word_shift(letters)``
    holding scale**len(letters) times the image, scale the lcm L of the
    parameter denominators: the forms have no constant term, so they are
    evaluated on the parameter vector times L, ints even where L is 1.
    Symbolic parameters are refused; Scalars take ``generator_operator``."""
    if not params.is_numeric():
        raise ValueError("row_action needs numeric parameters, not symbolic ones")
    scale = common_denominator(params)
    values = tuple(scaled_int(v, scale) for v in params)
    table = {g: _formula(g, values, scale) for g in GENERATORS}

    def apply(letters, row: dict, pt) -> dict:
        r1, r2 = pt
        for g in reversed(letters):
            try:
                (s1, s2), entries = table[g]
            except KeyError:
                check_letters((g,))  # refuses g by name
            out = {}
            for off, part, ki, k1, k2 in entries:
                base = part + k1 * r1 + k2 * r2
                for i, cf in row.items():
                    out[i + off] = out.get(i + off, 0) + cf * (base + ki * i)
            row, r1, r2 = out, r1 + s1, r2 + s2
        return {i: cf for i, cf in row.items() if cf}

    return apply


def act_embedded(
    params: Params, i: int, j: int, x: ModuleElement, scale: int = 1
) -> ModuleElement:
    """Apply scale * Ebar_ij through its Witt-algebra preimage sign * D(u, r)
    by ``tensor.act_witt``; dual route to act_gen."""
    _check_alpha(params, x)
    sign, u, r, _ = GENERATORS[(i, j)]
    module = CuspidalGl2(params.lam, params.b, params.c)
    y = act_witt(WittGenerator(u, r), x, module, scale)
    return y if sign == 1 else -y


def parse_word(text: str):
    letters = []
    for part in text.split("*"):
        name = part.strip()
        if name not in GEN_NAMES:
            raise ValueError(f"unknown generator {name!r} in word {text!r}")
        letters.append(GEN_NAMES[name])
    return tuple(letters)


def act_word(params: Params, letters, x: ModuleElement) -> ModuleElement:
    """Apply a product of generators; the rightmost letter acts first."""
    y = x
    for (i, j) in reversed(letters):
        y = act_gen(params, i, j, y)
    return y


def word_path(letters, offset: int):
    """The table entries, one per letter, the rightmost first, whose index
    offsets sum to ``offset``; the word's coefficient there is the product
    of their forms.  None unless exactly one such path exists."""
    check_letters(letters)
    entries = product(*(GENERATORS[g][3] for g in reversed(letters)))
    paths = [path for path in entries if sum(off for off, _ in path) == offset]
    return paths[0] if len(paths) == 1 else None


def word_shift(letters):
    check_letters(letters)
    s1 = sum(GENERATORS[lt][2][0] for lt in letters)
    s2 = sum(GENERATORS[lt][2][1] for lt in letters)
    return (s1, s2)


RAISING_WORD = parse_word("E13*E32")
LOWERING_WORD = parse_word("E23*E31")


def raising_operator(params: Params, s: int, x: ModuleElement, shift: int = 0) -> ModuleElement:
    """T_A x = E13*E32 x + (r2p - b + lam + s) E12 x for x at one lattice point.

    T_A raises the lattice point by (1, -1) and, on the span of v_i ..
    v_{i+s} (base index i through lam), produces nothing at index i+s+1.
    ``shift`` offsets the multiplier; only the negative controls use it.
    """
    ((_, r2),) = x.support_points()
    mult = (params.a2 + r2) - params.b + params.lam + s + shift
    return act_word(params, RAISING_WORD, x) + act_gen(params, 1, 2, x).scale(mult)


def lowering_operator(params: Params, x: ModuleElement, shift: int = 0) -> ModuleElement:
    """T_B x = E23*E31 x + (r1p - b - lam) E21 x for x at one lattice point.

    Mirror of ``raising_operator``: produces nothing at index i-1.
    """
    ((r1, _),) = x.support_points()
    mult = (params.a1 + r1) - params.b - params.lam + shift
    return act_word(params, LOWERING_WORD, x) + act_gen(params, 2, 1, x).scale(mult)


# -- lattice covariance ----------------------------------------------------
#
# A table entry reads v_idx(r1, r2) only through lam + idx, a1 + r1 and
# a2 + r2: its form has integer coefficients and no constant term.  At the
# symbolic parameters, v_idx(r) therefore behaves under any act_gen word
# like v_0(0,0) under sigma: l -> l + idx, a1 -> a1 + r1, a2 -> a2 + r2.
# An image or residual computed at v_0(0,0) gives the one at v_idx(r) by
# moving its support by (idx, r) and applying sigma to its coefficients.
# sigma is a ring automorphism, so zero stays zero and nonzero stays
# nonzero: supports and every pass/fail count carry over without sympy,
# which only a printed residual needs.  At numeric parameters sigma leads
# to another parameter point, so numeric sweeps compute every vector.

COVARIANT_PARAMS = (Params.symbolic(), Params.symbolic(with_iota_index=True))
ORIGIN = (0, (0, 0))


def moved(key, idx: int, r):
    """The basis key (index, point) moved by (idx, r)."""
    k, (p1, p2) = key
    return (k + idx, (p1 + r[0], p2 + r[1]))


def lattice_shift(x: ModuleElement, idx: int, r) -> ModuleElement:
    """x, computed at v_0(0,0) with parameters in ``COVARIANT_PARAMS``,
    as the same computation gives it at v_idx(r): every key ``moved``,
    every coefficient through sigma.  The move by nothing returns x."""
    if (idx, tuple(r)) == ORIGIN:
        return x
    shifts = {"l": idx, "a1": r[0], "a2": r[1]}
    return ModuleElement(
        x.alpha,
        {moved(key, idx, r): shift_symbols(cf, shifts) for key, cf in x.terms.items()},
    )


def covariant_sweep(params: Params, keys, residuals) -> tuple:
    """``(checked, found, moves)`` of ``residuals(ops, scale, x)``, a dict
    keyed by a generator or a pair of them, over the basis keys ``keys``:
    at ``COVARIANT_PARAMS`` computed at v_0(0,0) alone and moved to every
    key, so ``moves`` are the keys, else computed at every key and moved
    by nothing.  ``checked`` counts the residuals formed, times the moves.
    ``found`` lists ``(g, key, move, residual)`` per nonzero residual, key
    by key in ``keys`` order, the residual as computed: ``lattice_shift``
    by ``move`` gives it at ``key``.

    ``ops`` holds the nine ``generator_operator`` bindings, made once per
    sweep and scaled by L = ``common_denominator(params)``, so numeric
    sweeps run on ints; ``residuals`` divides a nonzero residual by its
    power of ``scale`` = L before returning it.

    The derived route needs each residual to read v_idx(r) only through
    lam + idx, a1 + r1 and a2 + r2.  The ``GENERATORS`` and
    ``CUSPIDAL_COLUMNS`` forms do by construction; ``tensor.witt_operator``
    reads the point only through alpha + m, in code, watched by
    ``_act_witt_reference`` in ``tests/test_tensor_field.py`` and by the
    locked ``brackets-numeric`` report, which computes every vector.
    """
    if not keys:
        raise ValueError("empty window: no basis vector to check")
    basis, moves = ([ORIGIN], keys) if params in COVARIANT_PARAMS else (keys, [ORIGIN])
    scale = common_denominator(params)
    ops = {g: generator_operator(params, g, scale) for g in GENERATORS}
    checked, found = 0, []
    for key in basis:
        formed = residuals(ops, scale, basis_element(params, *key))
        checked += len(formed) * len(moves)
        nonzero = [(g, res) for g, res in formed.items() if not res.is_zero()]
        found += [(g, moved(key, *move), move, res) for move in moves for g, res in nonzero]
    return checked, found, moves


def _sweep_report(params: Params, points, indices, residuals, label: str) -> dict:
    """The report of ``covariant_sweep`` over the window's basis vectors
    in (point, index) order: its failures generator by generator, each
    named under ``label`` and printed at its key."""
    keys = [(idx, r) for r, idx in product(points, indices)]
    checked, found, _ = covariant_sweep(params, keys, residuals)
    found.sort(key=itemgetter(0))
    failures = [
        {label: NAME_OF.get(g) or [NAME_OF[h] for h in g], "basis": {"index": idx, "r": list(r)},
         "residual": element_to_json(lattice_shift(res, *move))}
        for g, (idx, r), move, res in found
    ]
    return {"ok": not found, "checked": checked, "failures": failures}


def verify_sl3_brackets(params: Params, points, indices) -> dict:
    """All 81 generator pairs against the gl3 bracket law on a basis window,
    by ``bracket_residuals``: 9 + 72 applications of the sweep's bound
    generators per basis vector.  Bound at L = ``common_denominator(params)``
    times Ebar, they give L**2 times each residual, which is divided by
    L**2 before it is reported."""

    def residuals(ops, scale, x):
        found = bracket_residuals(lambda i, j, v: ops[i, j](v), 3, x, scale)
        return {pair: _unscaled(res, scale * scale) for pair, res in found.items()}

    return _sweep_report(params, points, indices, residuals, "pair")


def verify_embedding(params: Params, points, indices) -> dict:
    """act_gen and act_embedded must agree generator by generator: the
    sweep's bound generators against one ``act_embedded`` per generator
    and basis vector, both L = ``common_denominator(params)`` times Ebar;
    each residual is divided by L before it is reported."""

    def residuals(ops, scale, x):
        return {
            g: _unscaled(op(x) - act_embedded(params, *g, x, scale), scale)
            for g, op in ops.items()
        }

    return _sweep_report(params, points, indices, residuals, "generator")


# -- genericity ----------------------------------------------------------

# the ten conditions, each a linear form over PARAM_KEYS named by its text
CONDITIONS = {
    "c+l": (1, 0, 1, 0, 0),
    "c-l": (-1, 0, 1, 0, 0),
    "a1-b-l": (-1, -1, 0, 1, 0),
    "a2-b+l": (1, -1, 0, 0, 1),
    "a1+2b": (0, 2, 0, 1, 0),
    "a2+2b": (0, 2, 0, 0, 1),
    "a1+a2+b+c": (0, 1, 1, 1, 1),
    "a1+a2+b-c": (0, 1, -1, 1, 1),
    "c+3b": (0, 3, 1, 0, 0),
    "c-3b": (0, -3, 1, 0, 0),
}
CONDITION_NAMES = tuple(CONDITIONS)
SPANNING_CONDITIONS = CONDITION_NAMES[:8]


def condition_values(point) -> dict:
    """Value of each of the ten conditions at ``point``, a vector in
    PARAM_KEYS order such as a ``Params``, keyed by name."""
    return {name: form_value(form, point) for name, form in CONDITIONS.items()}


def check_generic(params: Params) -> dict:
    """The ten non-integrality conditions at ``params``, as reports print them.

    Returns ``{"decidable", "conditions", "spanning_ok",
    "irreducibility_ok"}``.  Each entry of ``conditions`` is ``{"name",
    "value", "holds"}`` in ``CONDITION_NAMES`` order; a condition holds
    exactly when its value is a non-integral rational.  ``spanning_ok``
    covers the eight ``SPANNING_CONDITIONS``, ``irreducibility_ok`` all
    ten.  For symbolic parameters nothing is decidable and every value,
    ``holds`` and flag is None.
    """
    if not params.is_numeric():
        return {
            "decidable": False,
            "conditions": [
                {"name": name, "value": None, "holds": None} for name in CONDITION_NAMES
            ],
            "spanning_ok": None,
            "irreducibility_ok": None,
        }
    values = condition_values(params)
    conds = [
        {"name": name, "value": str(values[name]), "holds": values[name].denominator != 1}
        for name in CONDITION_NAMES
    ]
    return {
        "decidable": True,
        "conditions": conds,
        "spanning_ok": all(c["holds"] for c in conds if c["name"] in SPANNING_CONDITIONS),
        "irreducibility_ok": all(c["holds"] for c in conds),
    }


def parse_param_line(line: str):
    if "=" not in line:
        raise ValueError(f"expected key=value, got {line!r}")
    key, _, raw = line.partition("=")
    key = key.strip()
    if key not in PARAM_KEYS:
        raise ValueError(f"unknown parameter key {key!r}")
    return key, parse_rational(raw.strip())


# -- identity suite for the two truncation operators ---------------------
#
# Each identity is computed once, at the lattice origin, with a symbolic
# index (iota).  Lemma: every route -- the table forms, the Witt route,
# the T_A/T_B multipliers (a2 + r2, a1 + r1), the displays in r1p, r2p --
# reads v_idx(r) only through lam + idx, a1 + r1 and a2 + r2, so an
# identity at the origin holds at every lattice point through sigma.

DISPLAY_POINTS = 25  # the 5x5 grid r in [-2, 2]^2 a display covers, not computes


def truncation_lengths(s_values: Sequence[int]) -> list:
    """The truncation lengths as ints: distinct positive integers, at least one, else refused."""
    lengths = [int(s) for s in s_values if isinstance(s, (int, Fraction)) and s == int(s) >= 1]
    if not lengths or len(lengths) < len(s_values):
        raise ValueError("truncation lengths must be a non-empty list of positive integers")
    repeated = [s for t, s in enumerate(lengths) if s in lengths[:t]]
    if repeated:
        raise ValueError(f"truncation length {repeated[0]} is repeated")
    return lengths


def _display_expected(params: Params, which: str) -> ModuleElement:
    lam, b, c, r1p, r2p = params  # at r = 0: r1p = a1, r2p = a2
    ii = lam  # base index is 0; a symbolic index enters through lam = l + iota
    alpha = params.alpha()
    if which == "E13*E32":
        f = -(r2p - b + ii)
        return ModuleElement(
            alpha,
            {
                (0, (1, -1)): f * (r1p + r2p - 1 + b + ii),
                (1, (1, -1)): f * (c + ii),
            },
        )
    if which == "E23*E31":
        f = -(r1p - b - ii)
        return ModuleElement(
            alpha,
            {
                (-1, (-1, 1)): f * (c - ii),
                (0, (-1, 1)): f * (r1p + r2p + b - ii - 1),
            },
        )
    if which == "E13":
        return ModuleElement(
            alpha,
            {
                (0, (1, 0)): -(r1p + r2p + b + ii),
                (1, (1, 0)): -(c + ii),
            },
        )
    if which == "E23-raised":
        # E23 applied to v_{i+1}(1, -1), landing at (1, 0)
        return ModuleElement(
            alpha,
            {
                (0, (1, 0)): -(c - ii - 1),
                (1, (1, 0)): -(r1p + r2p + b - ii - 1),
            },
        )
    raise ValueError(which)


def proof_identity_report(s_values: Sequence[int]) -> dict:
    """Exact identities used by the truncation construction, dual-routed.

    Four composite-action expansions are checked against hand-coded
    expected forms through both the direct formulas and the Witt-algebra
    route; then the index-raising operator T_A and index-lowering T_B are
    shown to keep the truncated index window, with shifted multipliers as
    negative controls.  Each is computed once, at the lattice origin; the
    lemma above carries it to every lattice point.
    """
    s_values = truncation_lengths(s_values)
    params = Params.symbolic(with_iota_index=True)

    displays = []
    display_specs = [
        ("E13*E32", parse_word("E13*E32"), 0, (0, 0)),
        ("E23*E31", parse_word("E23*E31"), 0, (0, 0)),
        ("E13", parse_word("E13"), 0, (0, 0)),
        ("E23-raised", parse_word("E23"), 1, (1, -1)),
    ]
    for name, letters, idx0, off in display_specs:
        src = basis_element(params, idx0, off)
        expected = _display_expected(params, name)
        got_embedded = src
        for (i, j) in reversed(letters):
            got_embedded = act_embedded(params, i, j, got_embedded)
        ok = act_word(params, letters, src) == expected == got_embedded
        displays.append({"name": name, "ok": ok, "points": DISPLAY_POINTS})

    def top_coeff_A(s: int, j: int, shift: int = 0):
        # coefficient at index s+1 of T_A v_{i+j}(0,0), base index symbolic
        y = raising_operator(params, s, basis_element(params, j, (0, 0)), shift)
        return y.coefficient(s + 1, (1, -1))

    @cache  # T_B does not depend on s: one image per (j, shift) per call
    def bottom_coeff_B(j: int, shift: int = 0):
        y = lowering_operator(params, basis_element(params, j, (0, 0)), shift)
        return y.coefficient(-1, (-1, 1))

    truncations = []
    for s in s_values:
        a_ok = all(coeff_is_zero(top_coeff_A(s, j)) for j in range(s + 1))
        a_control = not coeff_is_zero(top_coeff_A(s, s, shift=1))
        b_ok = all(coeff_is_zero(bottom_coeff_B(j)) for j in range(s + 1))
        b_control = not coeff_is_zero(bottom_coeff_B(0, shift=1))
        truncations.append(
            {
                "s": s,
                "raising_kills_top": a_ok,
                "raising_control_nonzero": a_control,
                "lowering_kills_bottom": b_ok,
                "lowering_control_nonzero": b_control,
                "ok": a_ok and a_control and b_ok and b_control,
            }
        )

    ok = all(d["ok"] for d in displays) and all(t["ok"] for t in truncations)
    return {
        "ok": ok,
        "displays": displays,
        "truncations": truncations,
        "note": (
            "checks run on basis vectors; both operators are linear, so a "
            "general element of the index window is covered by linearity"
        ),
    }
