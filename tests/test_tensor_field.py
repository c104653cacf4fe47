"""Tensor-field modules over the Witt algebra: action, brackets, de Rham."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import parse_expr

from wittmod.glmod import CuspidalGl2, FinDimGlModule, exterior_power, verify_gl_brackets
from wittmod.scalars import B, C, L, Scalar, common_denominator, scaled_int
from wittmod.sl3 import Params
from wittmod import engine, glmod, tensor
from wittmod.tensor import (
    ModuleElement,
    WittGenerator,
    _differential_table,
    act_witt,
    de_rham_differential,
    de_rham_operator,
    element_to_json,
    jacobi_residual,
    verify_d_intertwines,
    witt_bracket_residual,
    witt_operator,
)

ALPHA = (Fraction(1, 17), Fraction(1, 19))
CUSP = CuspidalGl2(Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))


def test_generator_shape_mismatch():
    with pytest.raises(ValueError):
        WittGenerator((1, 0), (0,))


def test_generator_rejects_non_integral_shift():
    with pytest.raises(ValueError):
        WittGenerator((1, 0), (Fraction(1, 2), 0))
    D = WittGenerator((1, 0), (Fraction(2), -1))
    assert D.r == (2, -1) and all(type(x) is int for x in D.r)


def test_act_dimension_mismatch():
    x = ModuleElement.basis(ALPHA, 0, (0, 0))
    with pytest.raises(ValueError):
        act_witt(WittGenerator((1,), (0,)), x, CUSP)


@pytest.mark.parametrize(
    "alpha, idx, point, message",
    [
        (ALPHA, 0, (0.5, 0), "has the coordinate 0.5, not an int"),
        (ALPHA, 0, (Fraction(1, 2), 0), r"has the coordinate Fraction\(1, 2\), not an int"),
        (ALPHA, 0, (1.0, 0), "has the coordinate 1.0, not an int"),
        (ALPHA, 0, (Fraction(2), 0), r"has the coordinate Fraction\(2, 1\), not an int"),
        (ALPHA, 0.5, (0, 0), "basis index 0.5 is not an int"),
        (ALPHA, Fraction(1, 2), (0, 0), r"basis index Fraction\(1, 2\) is not an int"),
        (ALPHA, Fraction(2), (0, 0), r"basis index Fraction\(2, 1\) is not an int"),
        ((0.1, Fraction(1, 19)), 0, (0, 0), "twist .* has the float entry 0.1"),
    ],
    ids=[
        "float", "fraction", "integral-float", "integral-fraction",
        "index-float", "index-fraction", "index-integral-fraction", "float-twist",
    ],
)
def test_element_refuses_a_coordinate_that_is_not_an_int(alpha, idx, point, message):
    # at scale 1 a float point used to give the cuspidal action inexact
    # coefficients, and at scale L a misleading scaling error; a float or
    # fractional basis index gave terms at v[0.5] or v[1/2], and a float
    # twist ran the sweeps in floats.  The key of a term and the twist are
    # refused alike, whether or not a good term comes first
    with pytest.raises(ValueError, match=message):
        ModuleElement.basis(alpha, idx, point)
    with pytest.raises(ValueError, match=message):
        ModuleElement(alpha, {(0, (0, 0)): 1, (idx, point): 1})


def test_element_refuses_a_point_of_another_rank():
    # a rank-2 point under a rank-3 twist used to be truncated by the shift
    alpha3 = ALPHA + (Fraction(1, 23),)
    with pytest.raises(ValueError):
        act_witt(
            WittGenerator((1, 0, 0), (0, 0, 1)),
            ModuleElement.basis(alpha3, 0, (0, 0)),
            exterior_power(3, 0),
        )
    with pytest.raises(ValueError):
        ModuleElement(ALPHA, {(0, (0, 0)): 1, (1, (0, 0, 1)): 2})
    with pytest.raises(ValueError):  # checked before the zero test
        ModuleElement(ALPHA, {(0, (0,)): 0})
    assert ModuleElement((), {(3, ()): 1}).coefficient(3, ()) == 1


def test_cartan_part_is_weight():
    # r = 0 leaves the lattice point fixed and multiplies by (u|m+alpha)
    x = ModuleElement.basis(ALPHA, 0, (2, 3))
    out = act_witt(WittGenerator((1, 0), (0, 0)), x, CUSP)
    assert out == x.scale(Fraction(2) + Fraction(1, 17))
    assert out.coefficient(0, (2, 3)) == Fraction(35, 17)


def test_shift_part_uses_gl_action():
    # u = e2, r = e1 carries weight (m2+alpha2) and matrix part E12
    x = ModuleElement.basis(ALPHA, 0, (0, 0))
    out = act_witt(WittGenerator((0, 1), (1, 0)), x, CUSP)
    assert out.support_points() == {(1, 0)}
    assert out.coefficient(0, (1, 0)) == Fraction(1, 19)
    assert out.coefficient(1, (1, 0)) == Fraction(20, 91)  # c + lam


def test_action_is_linear():
    x = ModuleElement.basis(ALPHA, 0, (1, -1), Fraction(2, 3))
    y = ModuleElement.basis(ALPHA, 1, (0, 2), Fraction(-5))
    D = WittGenerator((1, 2), (-1, 1))
    lhs = act_witt(D, x + y, CUSP)
    assert lhs == act_witt(D, x, CUSP) + act_witt(D, y, CUSP)
    # v_0(m) and v_1(m) share a point, so their images share one target
    # point and overlapping indices, and are summed in the same dict
    z = ModuleElement.basis(ALPHA, 1, (1, -1), Fraction(-5))
    lhs = act_witt(D, x + z, CUSP)
    assert lhs.support_points() == {(0, 0)}
    assert lhs == act_witt(D, x, CUSP) + act_witt(D, z, CUSP)


def test_element_algebra():
    x = ModuleElement.basis(ALPHA, 0, (0, 0), Fraction(1, 2))
    y = ModuleElement.basis(ALPHA, 0, (0, 0), Fraction(-1, 2))
    assert (x + y).is_zero()
    assert x - x == ModuleElement.zero(ALPHA)
    assert (-x).coefficient(0, (0, 0)) == Fraction(-1, 2)
    assert x.scale(0).is_zero()
    assert x.coefficient(3, (9, 9)) == 0
    # a Scalar constant and the int it equals cancel to nothing
    one = ModuleElement.basis(ALPHA, 1, (0, 0), Scalar.from_rational(1))
    w = one - ModuleElement.basis(ALPHA, 1, (0, 0))
    assert w.is_zero() and w.sorted_terms() == []


def _random_vector(rnd, n, bound):
    return tuple(Fraction(rnd.randint(-bound, bound)) for _ in range(n))


def _random_point(rnd, n, bound):
    return tuple(rnd.randint(-bound, bound) for _ in range(n))


@pytest.mark.parametrize("module", [CUSP, exterior_power(2, 1), exterior_power(2, 0)])
def test_bracket_law_random(module):
    rnd = random.Random(11)
    for _ in range(25):
        u = _random_vector(rnd, 2, 2)
        v = _random_vector(rnd, 2, 2)
        r = _random_point(rnd, 2, 2)
        s = _random_point(rnd, 2, 2)
        idx = rnd.choice(range(module.dim)) if module.kind == "findim" else rnd.randint(-2, 2)
        x = ModuleElement.basis(ALPHA, idx, _random_point(rnd, 2, 2))
        res = witt_bracket_residual(u, r, v, s, x, module)
        assert res.is_zero(), (u, r, v, s, idx)


def test_bracket_law_symbolic_cuspidal():
    mod = CuspidalGl2(L, B, C)
    x = ModuleElement.basis(ALPHA, 0, (0, 0))
    assert witt_bracket_residual((1, 0), (2, -1), (0, 1), (-1, 1), x, mod).is_zero()


def test_jacobi_identity_random():
    rnd = random.Random(7)
    for _ in range(8):
        gens = [
            WittGenerator(_random_vector(rnd, 2, 2), _random_point(rnd, 2, 1))
            for _ in range(3)
        ]
        x = ModuleElement.basis(ALPHA, rnd.randint(-1, 1), _random_point(rnd, 2, 2))
        assert jacobi_residual(gens, x, CUSP).is_zero()


# -- act_witt against the per-generator route ------------------------------

GL_INPUTS = {
    **{f"wedge{n}^{k}": exterior_power(n, k) for n in (2, 3) for k in range(n + 1)},
    "cuspidal": CUSP,
    "cuspidal-symbolic": CuspidalGl2(L, B, C),
}


def _gl_image(module, i, j, idx):
    """E_ij e_idx as {p: entry}, nonzero entries only, read without
    ``column`` or ``act``: off the matrices of a findim module, off the
    closed form of the glmod docstring for a cuspidal one."""
    if module.kind == "findim":
        mat = module.action[(i, j)]
        return {p: mat[p][idx] for p in module.indices() if mat[p][idx] != 0}
    lam, b, c = module.lam, module.b, module.c
    p, entry = {
        (1, 1): (idx, b + lam + idx),
        (2, 2): (idx, b - lam - idx),
        (1, 2): (idx + 1, c + lam + idx),
        (2, 1): (idx - 1, c - lam - idx),
    }[(i, j)]
    return {p: entry} if entry != 0 else {}


def _act_witt_reference(D, x, module):
    """D(u, r)x term by term: the weight, then r_i u_j E_ij applied to
    each basis vector through ``_gl_image``."""
    total = ModuleElement.zero(x.alpha)
    for (idx, m), coeff in x.terms.items():
        target = tuple(a + b for a, b in zip(m, D.r))
        weight = 0
        for uk, mk, ak in zip(D.u, m, x.alpha):
            weight = weight + uk * (mk + ak)
        total = total + ModuleElement(x.alpha, {(idx, target): weight * coeff})
        for i, ri in enumerate(D.r, 1):
            for j, uj in enumerate(D.u, 1):
                image = _gl_image(module, i, j, idx)
                total = total + ModuleElement(
                    x.alpha, {(p, target): ri * uj * e * coeff for p, e in image.items()}
                )
    return total


def _indices(module):
    return list(module.indices()) if module.kind == "findim" else list(range(-3, 4))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def witt_cases(draw, count=1):
    """A gl input, a generator D(u, r) and ``count`` elements sharing
    one alpha."""
    name = draw(st.sampled_from(sorted(GL_INPUTS)))
    module = GL_INPUTS[name]
    n = module.n
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    coeffs = small_fractions.filter(lambda q: q != 0)
    if name == "cuspidal-symbolic":
        coeffs = coeffs | st.sampled_from([C + L, B - 2 * L])
    terms = st.dictionaries(
        st.tuples(
            st.sampled_from(_indices(module)),
            st.tuples(*[st.integers(-2, 2)] * n),
        ),
        coeffs,
        min_size=1,
        max_size=5,
    )
    xs = [ModuleElement(alpha, draw(terms)) for _ in range(count)]
    u = draw(st.tuples(*[small_fractions] * n))
    r = draw(st.tuples(*[st.integers(-2, 2)] * n))
    return module, WittGenerator(u, r), xs


@settings(max_examples=150, deadline=None)
@given(witt_cases())
def test_act_witt_matches_per_generator_route(case):
    module, D, (x,) = case
    out = act_witt(D, x, module)
    assert out == _act_witt_reference(D, x, module)
    assert not any(isinstance(c, float) for c in out.terms.values())


@settings(max_examples=100, deadline=None)
@given(witt_cases(count=3))
def test_bound_operator_matches_per_generator_route(case):
    # one binding serves several elements, its own images and repeats,
    # all through the tables the earlier applications filled
    module, D, xs = case
    act = witt_operator(D, module, xs[0].alpha)
    xs = xs + [act(xs[0]), xs[0]]
    for x in xs:
        assert act(x) == _act_witt_reference(D, x, module)


@pytest.mark.parametrize("symbolic", [False, True], ids=["numeric", "symbolic"])
def test_bound_operator_on_cuspidal_negative_indices(symbolic):
    # repeated and negative indices, several points per index, and with
    # symbolic parameters the module, alpha and coefficients of Params
    p = Params.symbolic() if symbolic else Params.numeric()
    module = CuspidalGl2(p.lam, p.b, p.c)
    alpha = p.alpha()
    cf = p.c + p.lam if symbolic else Fraction(2, 3)
    xs = [
        ModuleElement(alpha, {(-2, (0, 0)): cf, (-2, (1, -1)): 1, (3, (0, 0)): -cf}),
        ModuleElement(alpha, {(-1, (2, 1)): cf, (-2, (0, 0)): Fraction(1, 5)}),
        ModuleElement.basis(alpha, -3, (-1, 2)),
    ]
    for D in (WittGenerator((1, 1), (1, 0)), WittGenerator((2, -1), (-1, 1))):
        act = witt_operator(D, module, alpha)
        for x in xs + xs:
            assert act(x) == _act_witt_reference(D, x, module)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bound_operator_is_linear_in_the_direction(data):
    # D(u, r) x is sum_k u_k D(e_k, r) x, the lemma derham_report counts
    # every u's verdict by; u may be fractional
    module = GL_INPUTS[data.draw(st.sampled_from(sorted(GL_INPUTS)))]
    n = module.n
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    u = data.draw(st.tuples(*[small_fractions] * n))
    r = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    idx = data.draw(st.sampled_from(_indices(module)))
    x = ModuleElement.basis(alpha, idx, data.draw(st.tuples(*[st.integers(-2, 2)] * n)))
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    total = ModuleElement.zero(alpha)
    for uk, e in zip(u, units):
        total = total + witt_operator(WittGenerator(e, r), module, alpha)(x).scale(uk)
    assert witt_operator(WittGenerator(u, r), module, alpha)(x) == total


def test_bound_operator_refuses_another_alpha():
    act = witt_operator(WittGenerator((1, 0), (0, 1)), CUSP, ALPHA)
    act(ModuleElement.basis(ALPHA, 0, (0, 0)))
    other = (ALPHA[0], ALPHA[1] + 1)
    with pytest.raises(ValueError):
        act(ModuleElement.basis(other, 0, (0, 0)))
    with pytest.raises(ValueError):
        witt_operator(WittGenerator((1,), (0,)), CUSP, ALPHA)


@settings(max_examples=100, deadline=None)
@given(witt_cases(), st.sampled_from([1, 17 * 19 * 23 * 7 * 11 * 13 * 4 * 9 * 5]))
def test_bound_operators_move_each_term_by_r_and_d_keeps_it(case, scale):
    # the lemma the box-wide intertwining check splits its residual by:
    # D(u, r) sends every term at m to m + r, d leaves it at m
    module, D, (x,) = case
    if scale != 1 and module.kind == "cuspidal" and module.lam is L:
        scale = 1  # symbolic inputs run on scale 1
    act = witt_operator(D, module, x.alpha, scale)
    for (idx, m), _ in x.terms.items():
        target = tuple(a + b for a, b in zip(m, D.r))
        y = act(ModuleElement.basis(x.alpha, idx, m))
        assert y.support_points() <= {target}
    if module.kind == "findim" and module.basis_labels is not None:
        n, k = module.n, len(module.basis_labels[0])
        if k < n:
            wedges = tuple(exterior_power(n, kk) for kk in range(n + 1))
            d = de_rham_operator(wedges, k, x.alpha)
            for (idx, m), _ in x.terms.items():
                assert d(ModuleElement.basis(x.alpha, idx, m)).support_points() <= {m}


@pytest.mark.parametrize("box", [
    [(0, 0, 0), (0, 0, 0)],
    [(1, 0, 0), (0, 1, 0), (1, 0, 0)],
], ids=["twice", "apart"])
def test_d_intertwining_refuses_a_repeated_point(monkeypatch, box):
    # summed over the box, a repeated point would collapse into one term
    # and be counted once or twice; it is refused before any binding
    wedges3 = tuple(exterior_power(3, k) for k in range(4))
    alpha3 = ALPHA + (Fraction(1, 23),)
    monkeypatch.setattr(tensor, "witt_operator", None)
    with pytest.raises(ValueError, match=r"box point \(.*\) is repeated"):
        verify_d_intertwines((1, 0, 0), (0, 1, 0), alpha3, box, 3, 0, wedges3)


def test_d_intertwining_refuses_a_non_integral_point(monkeypatch):
    monkeypatch.setattr(tensor, "witt_operator", None)
    for point in ((0.5, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ValueError, match="not an int"):
            verify_d_intertwines((1, 0), (0, 1), ALPHA, [(0, 0), point], 2, 0, WEDGES2)


def test_d_intertwining_sweep_reads_each_column_once(monkeypatch):
    # the sweep binds D once on the source and once on the target wedge
    # module; each module reads a weighted column (i, j, idx) once into its
    # own integer table, and only where it is nonempty, and a second sweep
    # on the same modules reads it there
    wedges = tuple(exterior_power(3, k) for k in range(4))
    u, r = (1, 1, -1), (1, 0, -1)
    pairs = [(i, j) for i in (1, 2, 3) if r[i - 1] for j in (1, 2, 3) if u[j - 1]]
    expected = {
        (k, i, j, idx) for k in (1, 2) for i, j in pairs for idx in range(wedges[k].dim)
        if wedges[k].column(i, j, idx)
    }
    reads = Counter()
    for k, mod in enumerate(wedges):
        column = mod.column

        def spy(i, j, idx, _k=k, _column=column):
            reads[_k, i, j, idx] += 1
            return _column(i, j, idx)

        monkeypatch.setattr(mod, "column", spy)
    alpha3 = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
    box = list(product(range(-1, 2), repeat=3))
    for sweep in (1, 2):
        assert verify_d_intertwines(u, r, alpha3, box, 3, 1, wedges)["ok"]
        assert set(reads) == expected
        assert set(reads.values()) == {1}


# -- the integer-scaled route ------------------------------------------------

RATIONAL_INPUTS = sorted(name for name in GL_INPUTS if name != "cuspidal-symbolic")


def _sweep_denominator(module, alpha):
    return common_denominator(alpha + tuple(module.scalars()))


@st.composite
def scaled_witt_cases(draw):
    """A rational gl input, D(u, r) with integer u, an element and a
    scale that clears alpha and the module's scalars."""
    module = GL_INPUTS[draw(st.sampled_from(RATIONAL_INPUTS))]
    n = module.n
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    coeffs = st.integers(-3, 3).filter(bool) | small_fractions.filter(bool)
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(_indices(module)), st.tuples(*[st.integers(-2, 2)] * n)),
        coeffs,
        min_size=1,
        max_size=5,
    ))
    u = draw(st.tuples(*[st.integers(-2, 2)] * n))
    r = draw(st.tuples(*[st.integers(-2, 2)] * n))
    scale = _sweep_denominator(module, alpha) * draw(st.sampled_from([1, 2, -3]))
    return module, WittGenerator(u, r), ModuleElement(alpha, terms), scale


@settings(max_examples=150, deadline=None)
@given(scaled_witt_cases())
def test_scaled_operator_is_the_scaled_image(case):
    module, D, x, scale = case
    act = witt_operator(D, module, x.alpha, scale)
    ys = [act(x), act(x)]  # the second application reads the filled tables
    expected = witt_operator(D, module, x.alpha)(x).scale(scale)
    assert ys == [expected, expected]
    if all(type(c) is int for c in x.terms.values()):
        assert all(type(c) is int for y in ys for c in y.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_scaled_differential_is_the_scaled_image(data):
    n = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(0, n - 1))
    wedges = tuple(exterior_power(n, kk) for kk in range(n + 1))
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, wedges[k].dim - 1), st.tuples(*[st.integers(-2, 2)] * n)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=5,
    ))
    x = ModuleElement(alpha, terms)
    scale = common_denominator(alpha) * data.draw(st.sampled_from([1, 2, -3]))
    y = de_rham_operator(wedges, k, alpha, scale)(x)
    assert y == de_rham_differential(x, wedges, k).scale(scale)
    assert all(type(c) is int for c in y.terms.values())


def _differential_per_call(x, wedges, k, scale=1):
    """d(x) computed per call, the reference for ``de_rham_operator``:
    the table read and L alpha formed for each element."""
    table = _differential_table(wedges[k], wedges[k + 1])
    twist = tuple(a * scale for a in x.alpha)
    out = ModuleElement.zero(x.alpha)
    for (idx, m), coeff in x.terms.items():
        for j, target, odd in table[idx]:
            weight = (scale * m[j] + twist[j]) * coeff
            out = out + ModuleElement.basis(x.alpha, target, m, -weight if odd else weight)
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bound_differential_equals_the_per_call_image(data):
    n = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(0, n - 1))
    wedges = tuple(exterior_power(n, kk) for kk in range(n + 1))
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    elements = st.dictionaries(
        st.tuples(st.integers(0, wedges[k].dim - 1), st.tuples(*[st.integers(-2, 2)] * n)),
        st.integers(-3, 3).filter(bool) | small_fractions.filter(bool),
        min_size=1,
        max_size=5,
    )
    xs = [ModuleElement(alpha, data.draw(elements)) for _ in range(2)]
    scale = data.draw(st.sampled_from([1, common_denominator(alpha)]))
    d = de_rham_operator(wedges, k, alpha, scale)
    for x in xs:  # one binding serves every element
        assert d(x) == _differential_per_call(x, wedges, k, scale)
    other = (alpha[0] + 1,) + alpha[1:]
    with pytest.raises(ValueError, match="does not match the bound"):
        d(ModuleElement(other, xs[0].terms))


@pytest.mark.parametrize("rank, n", [(3, 2), (2, 3)], ids=["rank3-on-gl2", "rank2-on-gl3"])
def test_differential_refuses_a_twist_of_another_rank(rank, n):
    # a rank-3 element on the gl2 wedges used to lose its e3 direction; a
    # rank-2 one on the gl3 wedges raised a bare IndexError
    alpha = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))[:rank]
    wedges = tuple(exterior_power(n, k) for k in range(n + 1))
    with pytest.raises(ValueError, match=f"rank {rank} does not match the gl_{n}"):
        de_rham_differential(ModuleElement.basis(alpha, 0, (0,) * rank), wedges, 0)


@pytest.mark.parametrize("idx", [5, 1, -1])
def test_differential_refuses_a_basis_index_outside_the_source(idx):
    # wedge^0 of gl2 has the one basis index 0; -1 would index the table
    # from its end
    with pytest.raises(ValueError, match=f"basis index {idx} is outside wedge degree 0"):
        de_rham_differential(ModuleElement.basis(ALPHA, idx, (0, 0)), WEDGES2, 0)


def _table_scales(module):
    return [common_denominator(module.scalars()) * f for f in (1, 2, -3)]


@pytest.mark.parametrize("name", RATIONAL_INPUTS)
def test_scaled_columns_are_the_scaled_entries(name):
    # each table entry is scaled_int of the column entry, an int, and is
    # read once per (scale, i, j, idx) into this instance
    module = GL_INPUTS[name]
    for scale in _table_scales(module):
        for i, j in product(range(1, module.n + 1), repeat=2):
            for idx in _indices(module):
                col = module.scaled_column(scale, i, j, idx)
                assert col == tuple((p, scaled_int(e, scale)) for p, e in module.column(i, j, idx))
                assert all(type(e) is int for _, e in col)
                assert module.scaled_column(scale, i, j, idx) is col
        # scale 1 is the column itself, tabled nowhere
        assert module.scaled_column(1, 1, 1, _indices(module)[0]) == module.column(1, 1, _indices(module)[0])
    assert not any(key[0] == 1 for key in module._scaled)


def test_scaled_column_refuses_a_scale_that_leaves_a_denominator():
    # 7 clears lambda = 1/7 but not c = 1/13 in c + lambda + i; nothing is
    # tabled, so the refusal repeats
    module = CuspidalGl2(Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))
    for _ in range(2):
        with pytest.raises(ValueError, match="is not an integer"):
            module.scaled_column(7, 1, 2, 0)
    assert module._scaled == {}


def test_scaled_columns_belong_to_one_instance(monkeypatch):
    # a table filled before CUSPIDAL_COLUMNS changes keeps its entries; an
    # instance built after the change, with equal parameters, reads it
    params = (Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))
    scale = 7 * 11 * 13
    before = CuspidalGl2(*params)
    filled = before.scaled_column(scale, 1, 1, 0)
    assert filled == ((0, scale * (params[1] + params[0])),)
    monkeypatch.setitem(glmod.CUSPIDAL_COLUMNS, (1, 1), (0, (0, 0, 0)))
    assert CuspidalGl2(*params).scaled_column(scale, 1, 1, 0) == ()
    assert before.scaled_column(scale, 1, 1, 0) == filled


def test_sweep_scale_is_one_when_any_value_is_symbolic():
    # a symbolic twist or module scalar keeps a sweep on scale 1; the
    # directions a sweep binds play no part in L
    assert tensor._sweep_scale(ALPHA, [CUSP]) == 17 * 19 * 7 * 11 * 13
    assert tensor._sweep_scale(ALPHA, [WEDGES2[1], WEDGES2[2]]) == 17 * 19
    assert tensor._sweep_scale((L, B), [CUSP]) == 1
    assert tensor._sweep_scale(ALPHA, [CuspidalGl2(L, B, C)]) == 1


def test_sweep_scale_clears_a_fractional_findim_input():
    # a 1-dimensional gl2 module on which the identity acts as 1/5: L
    # takes the 5 from its scalars() along with alpha's denominators
    fifth = Fraction(1, 5)
    module = FinDimGlModule(2, 1, {
        (1, 1): [[fifth]], (2, 2): [[fifth]], (1, 2): [[0]], (2, 1): [[0]],
    })
    assert verify_gl_brackets(module)["ok"]
    alpha = (Fraction(1, 17), Fraction(1, 19))
    scale = tensor._sweep_scale(alpha, [module])
    assert scale == 17 * 19 * 5
    x = ModuleElement(alpha, {(0, (1, -2)): 3, (0, (0, 1)): -1})
    for D in (WittGenerator((1, 2), (0, 1)), WittGenerator((-1, 1), (2, -1))):
        y = witt_operator(D, module, alpha, scale)(x)
        assert y == witt_operator(D, module, alpha)(x).scale(scale)
        assert all(type(c) is int for c in y.terms.values())


@settings(max_examples=150, deadline=None)
@given(witt_cases(), st.data())
def test_sweep_scale_gives_the_scaled_image_for_any_direction(case, data):
    # L clears alpha and the input's scalars only: a fractional or
    # symbolic u still gets exactly L D(u, r)x, with the denominators u
    # brings and nothing rounded
    module, D, (x,) = case
    directions = small_fractions | st.sampled_from([C, L + 1, B - 2 * L])
    D = WittGenerator(data.draw(st.tuples(*[directions] * module.n)), D.r)
    scale = tensor._sweep_scale(x.alpha, [module])
    expected = witt_operator(D, module, x.alpha)(x).scale(scale)
    assert witt_operator(D, module, x.alpha, scale)(x) == expected


def test_scale_that_leaves_a_denominator_is_refused():
    x = ModuleElement.basis(ALPHA, 0, (1, 0))
    # 17 leaves 1/19 in alpha: refused when the operator is bound
    with pytest.raises(ValueError):
        witt_operator(WittGenerator((1, 1), (0, 1)), CUSP, ALPHA, 17)
    with pytest.raises(ValueError):
        de_rham_operator(WEDGES2, 0, ALPHA, 17)
    # 17 * 19 clears alpha but not the cuspidal (c + lam + i): refused when
    # the column table fills, not rounded
    act = witt_operator(WittGenerator((0, 1), (1, 0)), CUSP, ALPHA, 17 * 19)
    with pytest.raises(ValueError):
        act(x)
    # a direction with a denominator the scale misses is no refusal: its
    # image is the exact L D(u, r)x, weight 17 * 19 / (2 * 17)
    act = witt_operator(WittGenerator((Fraction(1, 2), 0), (0, 0)), WEDGES2[1], ALPHA, 17 * 19)
    y = act(ModuleElement.basis(ALPHA, 0, (0, 0)))
    assert y == ModuleElement.basis(ALPHA, 0, (0, 0), Fraction(19, 2))


def test_sweeps_clear_fractional_directions_and_entries():
    # L takes in a findim module's fractional entries, not the directions'
    # denominators, which stay in the images and leave each residual
    # exact: the defining gl_2 module conjugated by diag(1, 2) has
    # E12 = 1/2 and E21 = 2
    conj = FinDimGlModule(2, 2, {
        (1, 1): [[1, 0], [0, 0]], (2, 2): [[0, 0], [0, 1]],
        (1, 2): [[0, Fraction(1, 2)], [0, 0]], (2, 1): [[0, 0], [2, 0]],
    })
    assert conj.scalars() == (Fraction(1, 2),)
    half = (Fraction(1, 2), Fraction(-1, 3))
    x = ModuleElement.basis(ALPHA, 1, (1, -1))
    for module in (conj, CUSP, WEDGES2[1]):
        assert witt_bracket_residual(half, (1, 0), (1, 2), (0, -1), x, module).is_zero()
        gens = [WittGenerator(half, (1, 1)), WittGenerator((1, 0), (0, -1)),
                WittGenerator((0, Fraction(2, 5)), (-1, 0))]
        assert jacobi_residual(gens, x, module).is_zero()
        # brackets whose directions carry a product of denominators:
        # [D(w, (1, 0)), D(w, 0)] with w = (1/2, 0) has direction (-1/4, 0)
        w = (Fraction(1, 2), 0)
        assert witt_bracket_residual(w, (1, 0), w, (0, 0), x, module).is_zero()
        gens = [WittGenerator(w, (1, 0)), WittGenerator(w, (0, 0)),
                WittGenerator((0, Fraction(1, 3)), (1, 1))]
        assert jacobi_residual(gens, x, module).is_zero()
    box = list(product(range(-1, 2), repeat=2))
    for k in (0, 1):
        assert verify_d_intertwines(half, (1, -1), ALPHA, box, 2, k, WEDGES2)["ok"]


def _fraction_bracket_residual(u, r, v, s, x, module):
    # [D_u, D_v]x - D_w x with scale-1 operators, so on Fractions
    Du, Dv = WittGenerator(u, r), WittGenerator(v, s)
    du, dv = witt_operator(Du, module, x.alpha), witt_operator(Dv, module, x.alpha)
    dw = witt_operator(tensor.witt_bracket(Du, Dv), module, x.alpha)
    return du(dv(x)) - dv(du(x)) - dw(x)


def _fraction_jacobi_residual(gens, x, module):
    d1, d2, d3 = gens
    total = ModuleElement.zero(x.alpha)
    for a, b, c in ((d1, d2, d3), (d2, d3, d1), (d3, d1, d2)):
        outer = witt_operator(a, module, x.alpha)
        inner = witt_operator(tensor.witt_bracket(b, c), module, x.alpha)
        total = total + outer(inner(x)) - inner(outer(x))
    return total


def test_wrong_bracket_gives_the_true_residual(monkeypatch):
    # the scaled sweeps divide a nonzero residual by L**2: with a wrong
    # bracket each residual, and the witt report, is the Fraction route's
    true_bracket = tensor.witt_bracket

    def off_by_one(a, b):
        # the shift moved by one in the first coordinate; a scaled direction
        # would not do, since Jacobi is linear in it
        w = true_bracket(a, b)
        return WittGenerator(w.u, (w.r[0] + 1,) + w.r[1:])

    monkeypatch.setattr(tensor, "witt_bracket", off_by_one)
    x = ModuleElement.basis(ALPHA, 1, (1, -1))
    gens = [WittGenerator((1, 2), (1, 0)), WittGenerator((0, 1), (-1, 1)),
            WittGenerator((Fraction(1, 3), 1), (0, 2))]
    for module in (CUSP, WEDGES2[1]):
        res = witt_bracket_residual((1, 2), (1, 0), (0, 1), (-1, 1), x, module)
        assert not res.is_zero()
        assert res == _fraction_bracket_residual((1, 2), (1, 0), (0, 1), (-1, 1), x, module)
        res = jacobi_residual(gens, x, module)
        assert not res.is_zero()
        assert res == _fraction_jacobi_residual(gens, x, module)

    calls = []

    def recording(u, r, v, s, x, module):
        res = witt_bracket_residual(u, r, v, s, x, module)
        calls.append(((u, r, v, s, x, module), res))
        return res

    monkeypatch.setattr(engine, "witt_bracket_residual", recording)
    doc = engine.witt_consistency_report(bracket_trials=4, jacobi_trials=2)
    assert doc["verdict"] == "fail" and doc["jacobi_failures"] > 0
    args, res = next((args, res) for args, res in calls if not res.is_zero())
    expected = element_to_json(_fraction_bracket_residual(*args), args[-1])
    assert doc["first_bracket_failure"]["residual"] == expected


@pytest.mark.parametrize("name", sorted(GL_INPUTS))
def test_nonzero_columns_cover_every_nonempty_column(name):
    # a Witt binding reads only the generators ``nonzero_columns`` names;
    # one left out would drop its terms from D(u, r)
    module = GL_INPUTS[name]
    gens = list(product(range(1, module.n + 1), repeat=2))
    for idx in _indices(module):
        named = module.nonzero_columns(idx)
        nonempty = {g for g in gens if module.column(*g, idx)}
        assert nonempty <= set(named)
        if module.kind == "findim":
            assert nonempty == set(named)


@pytest.mark.parametrize("name", sorted(GL_INPUTS))
def test_column_and_act_match_gl_image(name):
    module = GL_INPUTS[name]
    n = module.n
    indices = _indices(module)
    alpha = tuple(Fraction(1, p) for p in (17, 19, 23)[:n])
    # each index at two lattice points, so one index sits in several fibres
    points = [tuple((k + s) % 3 - 1 for s in range(n)) for k in range(len(indices) + 1)]
    x = ModuleElement(alpha, {
        (idx, pt): Fraction(k + 1, 3) * (1 + t)
        for k, idx in enumerate(indices)
        for t, pt in enumerate(points[k:k + 2])
    })
    for i, j in product(range(1, n + 1), repeat=2):
        expected = {}
        for idx in indices:
            image = _gl_image(module, i, j, idx)
            col = module.column(i, j, idx)
            assert dict(col) == image and len(col) == len(image)  # no zero entries
            assert not any(isinstance(e, float) for _, e in col)
            if module.kind == "findim":
                assert all(type(e) is int for _, e in col)  # wedge entries are 0, +-1
        for (idx, pt), coeff in x.terms.items():
            for p, e in _gl_image(module, i, j, idx).items():
                expected[(p, pt)] = expected.get((p, pt), 0) + e * coeff
        # E_ij acts on the fibre: each term keeps its lattice point and alpha
        assert module.act(i, j, x) == ModuleElement(alpha, expected)


# -- de Rham complex -----------------------------------------------------

WEDGES2 = tuple(exterior_power(2, k) for k in range(3))


def test_derham_degree_zero_formula():
    x = ModuleElement.basis(ALPHA, 0, (2, -1))
    out = de_rham_differential(x, WEDGES2, 0)
    # labels in wedge degree 1 are (1,) then (2,)
    assert out.coefficient(0, (2, -1)) == Fraction(2) + Fraction(1, 17)
    assert out.coefficient(1, (2, -1)) == Fraction(-1) + Fraction(1, 19)


def test_derham_degree_one_sign():
    # d(e_1 t^m) = -(m_2+alpha_2) e_{12} t^m: e_2 crosses e_1 once
    x = ModuleElement.basis(ALPHA, 0, (0, 1))
    out = de_rham_differential(x, WEDGES2, 1)
    assert out.coefficient(0, (0, 1)) == -(Fraction(1) + Fraction(1, 19))
    y = ModuleElement.basis(ALPHA, 1, (1, 0))  # e_2 t^m picks up + sign
    dy = de_rham_differential(y, WEDGES2, 1)
    assert dy.coefficient(0, (1, 0)) == Fraction(1) + Fraction(1, 17)


def test_derham_squares_to_zero():
    rnd = random.Random(3)
    for _ in range(10):
        x = ModuleElement.basis(ALPHA, 0, _random_point(rnd, 2, 3), Fraction(rnd.randint(1, 5)))
        once = de_rham_differential(x, WEDGES2, 0)
        twice = de_rham_differential(once, WEDGES2, 1)
        assert twice.is_zero()


def test_derham_top_degree_rejected():
    # only degrees 0..n-1 have a differential; n comes from the wedge list
    x = ModuleElement.basis(ALPHA, 0, (0, 0))
    for k in (2, 3, -1):
        with pytest.raises(ValueError):
            de_rham_differential(x, WEDGES2, k)


def test_d_intertwines_refuses_rank_that_contradicts_wedges(monkeypatch):
    # n = 3 with the gl_2 wedge modules
    alpha3 = ALPHA + (Fraction(1, 23),)
    wedges3 = tuple(exterior_power(3, k) for k in range(4))
    with pytest.raises(ValueError):
        verify_d_intertwines((1, 0, 0), (0, 0, 1), alpha3, [(0, 0, 0)], 3, 0, WEDGES2)
    # no differential from degree n or -1, no rank-2 point in rank 3: each
    # is refused before any operator is bound
    monkeypatch.setattr(tensor, "witt_operator", None)
    for k, box in ((3, [(0, 0, 0)]), (-1, [(0, 0, 0)]), (0, [(0, 0, 0), (0, 0)])):
        with pytest.raises(ValueError):
            verify_d_intertwines((1, 0, 0), (0, 0, 1), alpha3, box, 3, k, wedges3)


def test_derham_intertwines_witt():
    box = list(product(range(-1, 2), repeat=2))
    for k in (0, 1):
        rep = verify_d_intertwines((1, 2), (1, -1), ALPHA, box, 2, k, WEDGES2)
        assert rep["ok"], rep["failures"][:2]
        assert rep["checked"] == len(box) * WEDGES2[k].dim


def test_derham_three_variables():
    wedges3 = tuple(exterior_power(3, k) for k in range(4))
    alpha3 = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
    x = ModuleElement.basis(alpha3, 0, (1, 1, 1))
    d1 = de_rham_differential(x, wedges3, 0)
    d2 = de_rham_differential(d1, wedges3, 1)
    assert d2.is_zero()
    rep = verify_d_intertwines((1, 0, -1), (0, 1, 0), alpha3, [(0, 0, 0)], 3, 1, wedges3)
    assert rep["ok"]


def test_derham_table_signs():
    # d(e_S t^m) has coefficient sign(j, S) (m_j + alpha_j) on e_j ^ e_S,
    # sign(j, S) the parity of sorting (j,) + S
    wedges3 = tuple(exterior_power(3, k) for k in range(4))
    alpha3 = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
    m = (2, -1, 3)
    for k in range(3):
        for idx, subset in enumerate(wedges3[k].basis_labels):
            out = de_rham_differential(ModuleElement.basis(alpha3, idx, m), wedges3, k)
            expected = {}
            for j in set(range(1, 4)) - set(subset):
                word = (j,) + subset
                inversions = sum(a > b for t, a in enumerate(word) for b in word[t + 1:])
                target = wedges3[k + 1].positions[tuple(sorted(word))]
                expected[(target, m)] = (-1) ** inversions * (m[j - 1] + alpha3[j - 1])
            assert out.terms == expected


def test_poisoned_wedge_breaks_d_intertwining():
    # flipping one sign of E12 on wedge^1 of gl3 must be caught in both
    # degrees that touch it, so a passing sweep is not vacuous
    good = exterior_power(3, 1)
    action = {key: [list(row) for row in mat] for key, mat in good.action.items()}
    action[(1, 2)][0][1] = -action[(1, 2)][0][1]
    bad = FinDimGlModule(good.n, good.dim, action, good.basis_labels)
    wedges = (exterior_power(3, 0), bad, exterior_power(3, 2), exterior_power(3, 3))
    alpha3 = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
    box = list(product(range(-1, 2), repeat=3))
    deg0 = verify_d_intertwines((1, 1, 0), (1, 0, 0), alpha3, box, 3, 0, wedges)
    assert (deg0["ok"], deg0["checked"], len(deg0["failures"])) == (False, 27, 27)
    deg1 = verify_d_intertwines((1, 1, 0), (1, 0, 0), alpha3, box, 3, 1, wedges)
    assert (deg1["ok"], deg1["checked"], len(deg1["failures"])) == (False, 81, 27)
    # the sweep runs on ints scaled by 17 * 19 * 23; each printed residual
    # is the one unscaled Fraction operators give
    D = WittGenerator((1, 1, 0), (1, 0, 0))
    for k, doc in ((0, deg0), (1, deg1)):
        src, dst = wedges[k], wedges[k + 1]
        act_src, act_dst = witt_operator(D, src, alpha3), witt_operator(D, dst, alpha3)
        for failure in doc["failures"]:
            idx = src.positions[tuple(failure["basis"]["index"])]
            x = ModuleElement.basis(alpha3, idx, failure["basis"]["m"])
            res = de_rham_differential(act_src(x), wedges, k) - act_dst(
                de_rham_differential(x, wedges, k)
            )
            assert failure["residual"] == element_to_json(res, dst)


# -- serialization -------------------------------------------------------
# reports are never read back by the package; each printed element is read
# here by an independent reader (Fraction, sympy) and compared


def _read_numeric(doc: dict) -> ModuleElement:
    terms = {(t["index"], tuple(t["r"])): Fraction(t["coeff"]) for t in doc["terms"]}
    return ModuleElement(tuple(Fraction(a) for a in doc["alpha"]), terms)


def test_element_json_roundtrip_numeric():
    x = ModuleElement.basis(ALPHA, 0, (1, -2), Fraction(2, 3)) + ModuleElement.basis(
        ALPHA, 1, (0, 0), Fraction(-1, 7)
    )
    doc = element_to_json(x)
    assert doc["alpha"] == ["1/17", "1/19"]
    assert _read_numeric(doc) == x


def test_element_json_roundtrip_symbolic_coeff():
    x = ModuleElement.basis(ALPHA, 0, (0, 0), C + L)
    doc = element_to_json(x)
    (term,) = doc["terms"]
    assert (term["index"], term["r"]) == (0, [0, 0])
    c, l = sympy.symbols("c l")
    read = parse_expr(term["coeff"], local_dict={"c": c, "l": l})
    assert sympy.expand(read - (c + l)) == 0


def test_element_json_labeled_module():
    mod = exterior_power(2, 1)
    x = ModuleElement.basis(ALPHA, 1, (0, 0), Fraction(3))
    doc = element_to_json(x, mod)
    assert doc["terms"] == [{"index": [2], "r": [0, 0], "coeff": "3"}]
    assert element_to_json(x)["terms"][0]["index"] == 1
