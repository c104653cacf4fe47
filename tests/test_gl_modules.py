"""Finite and cuspidal gl_n inputs: actions and bracket laws."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from wittmod.glmod import (
    CuspidalGl2,
    FinDimGlModule,
    bracket_residual,
    bracket_residuals,
    exterior_power,
    verify_gl_brackets,
)
from wittmod.scalars import B, C, L
from wittmod.tensor import ModuleElement

LAM = Fraction(1, 7)
BB = Fraction(1, 11)
CC = Fraction(1, 13)


def vec(idx, coeff=1):
    """coeff * v_idx in the fibre over the rank-zero lattice point."""
    return ModuleElement.basis((), idx, (), coeff)


def test_cuspidal_raising_symbolic():
    mod = CuspidalGl2(L, B, C)
    out = mod.act(1, 2, vec(0))
    assert out == vec(1, C + L)


def test_cuspidal_raising_numeric():
    mod = CuspidalGl2(LAM, BB, CC)
    out = mod.act(1, 2, vec(0))
    assert out == vec(1, Fraction(20, 91))


def test_cuspidal_cartan_eigenvalues():
    mod = CuspidalGl2(LAM, BB, CC)
    for i in range(-3, 4):
        v = vec(i)
        assert mod.act(1, 1, v) == v.scale(BB + LAM + i)
        assert mod.act(2, 2, v) == v.scale(BB - LAM - i)


def test_cuspidal_identity_acts_as_2b():
    sym = CuspidalGl2(L, B, C)
    v = vec(2)
    total = sym.act(1, 1, v) + sym.act(2, 2, v)
    assert total == v.scale(2 * B)


def test_cuspidal_rejects_integral_parameters():
    # c + lam and c - lam must both avoid the integers; the refusal says
    # which one fails and its value
    with pytest.raises(ValueError, match=r"need c\+l non-integral, got 1$"):
        CuspidalGl2(Fraction(1, 2), BB, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"need c\+l non-integral, got 0$"):
        CuspidalGl2(Fraction(1, 2), BB, Fraction(-1, 2))
    # int parameters are rationals too: at (0, 0, 1), E21 v_1 = 0
    with pytest.raises(ValueError, match=r"need c\+l non-integral, got 1$"):
        CuspidalGl2(0, 0, 1)
    with pytest.raises(ValueError, match=r"need c\+l non-integral, got 1$"):
        CuspidalGl2(Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="need c-l non-integral, got 0$"):
        CuspidalGl2(Fraction(1, 4), BB, Fraction(1, 4))
    with pytest.raises(ValueError, match="need c-l non-integral, got -2$"):
        CuspidalGl2(Fraction(1, 3), BB, Fraction(-5, 3))
    CuspidalGl2(LAM, BB, CC)  # generic point is fine


@pytest.mark.parametrize("name", ["lambda", "b", "c"])
def test_cuspidal_refuses_a_float_scalar(name):
    # CuspidalGl2(0.1, 1/11, 1/13) used to pass as symbolic, skipping the
    # c +- lambda guard and running its sweeps in floats
    scalars = dict(zip(("lambda", "b", "c"), (LAM, BB, CC)), **{name: 0.1})
    with pytest.raises(TypeError, match=f"inexact cuspidal scalar {name} = 0.1"):
        CuspidalGl2(*scalars.values())


def test_cuspidal_brackets_exhaustive_window():
    for mod in (CuspidalGl2(L, B, C), CuspidalGl2(LAM, BB, CC)):
        rep = verify_gl_brackets(mod)
        assert rep["ok"], rep["failures"][:3]
        assert rep["checked_indices"] > 0


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_exterior_power_brackets(n, k):
    mod = exterior_power(n, k)
    assert mod.dim == comb(n, k)
    rep = verify_gl_brackets(mod)
    assert rep["ok"], rep["failures"][:3]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_exterior_power_central_charge(n, k):
    # the identity matrix, sum of the E_ii, acts on wedge^k as the scalar k
    mod = exterior_power(n, k)
    for idx in mod.indices():
        v = vec(idx)
        total = ModuleElement.zero(())
        for i in range(1, n + 1):
            total = total + mod.act(i, i, v)
        assert total == v.scale(k)


def test_exterior_power_wedge_sign():
    # E21 maps e1^e2 wedge-component by replacing e1 with e2: zero, and
    # E12 on e2 in degree 1 lands on e1 with coefficient +1
    mod = exterior_power(2, 2)
    assert mod.act(1, 2, vec(0)).is_zero()
    deg1 = exterior_power(2, 1)
    assert deg1.act(1, 2, vec(1)) == vec(0)


def test_exterior_power_labels_are_subsets():
    mod = exterior_power(3, 2)
    labels = [mod.label(i) for i in mod.indices()]
    assert labels == [list(s) for s in sorted(combinations(range(1, 4), 2))]


def test_exterior_power_degree_out_of_range():
    with pytest.raises(ValueError):
        exterior_power(2, 3)


def test_corrupted_module_fails_brackets():
    mod = exterior_power(3, 1)
    action = {key: [list(row) for row in mat] for key, mat in mod.action.items()}
    action[(1, 2)][0][2] = Fraction(5)  # poison one matrix entry
    bad = FinDimGlModule(mod.n, mod.dim, action, mod.basis_labels)
    rep = verify_gl_brackets(bad)
    assert not rep["ok"]
    # E12 e3 = 5 e1 now, so [E12, E21] e3 = -E21 E12 e3 = -5 e2, not 0;
    # failures run pair by pair, in basis order within a pair
    expected = [
        ("[E12,E21]", 3, "[2]", "-5"),
        ("[E12,E22]", 3, "[1]", "-5"),
        ("[E12,E31]", 1, "[1]", "5"),
        ("[E12,E31]", 3, "[3]", "-5"),
        ("[E12,E32]", 2, "[1]", "5"),
        ("[E12,E33]", 3, "[1]", "5"),
        ("[E13,E32]", 3, "[1]", "-5"),
        ("[E21,E12]", 3, "[2]", "5"),
        ("[E22,E12]", 3, "[1]", "5"),
        ("[E31,E12]", 1, "[1]", "-5"),
        ("[E31,E12]", 3, "[3]", "5"),
        ("[E32,E12]", 2, "[1]", "-5"),
        ("[E32,E13]", 3, "[1]", "5"),
        ("[E33,E12]", 3, "[1]", "-5"),
    ]
    assert rep["failures"] == [
        {"generators": gens, "basis_index": [label], "residual": {target: coeff}}
        for gens, label, target, coeff in expected
    ]


@pytest.mark.parametrize(
    "mod, indices",
    [(exterior_power(3, k), range(comb(3, k))) for k in range(4)]
    + [
        (CuspidalGl2(LAM, BB, CC), range(-2, 3)),
        (CuspidalGl2(L, B, C), range(-2, 3)),
    ],
    ids=["wedge0", "wedge1", "wedge2", "wedge3", "cuspidal-numeric", "cuspidal-symbolic"],
)
def test_tabled_residuals_equal_bracket_residual(mod, indices):
    for idx in indices:
        v = vec(idx)
        residuals = bracket_residuals(mod.act, mod.n, v)
        assert len(residuals) == mod.n ** 4
        for (g1, g2), res in residuals.items():
            assert res == bracket_residual(mod.act, *g1, *g2, v), (g1, g2, idx)


def test_bracket_residual_is_zero_on_cuspidal():
    mod = CuspidalGl2(L, B, C)
    v = vec(0)
    for (i, j, k, l) in ((1, 2, 2, 1), (1, 1, 1, 2), (2, 1, 1, 2)):
        assert bracket_residual(mod.act, i, j, k, l, v).is_zero()

