"""Tensor-field modules over the rank-n Witt algebra.

The Witt algebra here is the Lie algebra of derivations of Laurent
polynomials in n variables, spanned by D(u, r) = t^r sum_k u_k d_k with
bracket [D(u,r), D(v,s)] = D((u|s)v - (v|r)u, r+s).

Given a gl_n input module V on which the identity matrix acts as a
scalar, the space V tensor the Laurent algebra carries the action

    D(u, r) v(m) = ((u | m + alpha) v + (r'u) v)(m + r)

where (r'u) is the matrix with entries r_i u_j, so (r'u)v expands to
sum_{i,j} r_i u_j E_ij v.  Elements are finite formal sums of basis
symbols v_idx(m) with exact coefficients.  Actions never truncate;
window clipping is always an explicit caller-side step.

``witt_operator`` binds one D(u, r) to an input module and a twist;
``act_witt`` is one application of such a binding.  Likewise
``de_rham_operator`` binds d from one wedge degree to a twist, and
``de_rham_differential`` is one application of it.  The sweeps here bind
each generator once: the intertwining check once on the source and once
on the target wedge module, the bracket and Jacobi residuals once per
generator they apply.  They bind d once per sweep too: the intertwining
check binds it once and applies it to x and to D x.  The tables a
binding fills itself (its lattice points and its summed matrix parts)
live for one call; the integer-scaled columns it reads belong to the gl
input (its ``scaled_column``) and are filled once per input instance,
and the input also says which columns are nonempty at each basis index
(its ``nonzero_columns``), so a binding reads no empty column and forms
no per-generator weight table.

The sweeps run on integers.  Let L be the lcm of the denominators of
alpha and of the input module's scalars (lambda, b and c for the
cuspidal input); the directions u play no part in it.  Then L d and,
for an int u, L D(u, r) have integer coefficients: ``witt_operator``
and ``de_rham_operator`` take ``scale = L`` and form L alpha through
``scalars.scaled_int``, which refuses a value that keeps a denominator,
and read the column entries scaled from the input's own table.  A
fractional or symbolic u gives the exact image L D(u, r)x with non-int
coefficients; nothing is rounded.  Scaling by a nonzero constant keeps
every zero test, and a nonzero residual is divided by its power of L
before it is returned, so residuals keep their values.  Symbolic
inputs run on scale 1.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .scalars import add_term, coeff_is_zero, coeff_to_text, common_denominator, scaled_int


def _refuse_floats(what: str, values: tuple) -> None:
    # a float would run the exact sweeps in floats and round their verdicts
    for v in values:
        if isinstance(v, float):
            raise ValueError(f"{what} {values} has the float entry {v!r}")


class WittGenerator:
    """D(u, r): direction vector u over the coefficient field, lattice shift r.
    A float entry of u is refused."""

    __slots__ = ("u", "r")

    def __init__(self, u: Sequence, r: Sequence[int]):
        r = tuple(r)
        self.u = tuple(u)
        _refuse_floats("direction", self.u)
        self.r = tuple(map(int, r))
        if self.r != r:
            raise ValueError(f"non-integral shift {r}")
        if len(self.u) != len(self.r):
            raise ValueError("direction and shift lengths differ")

    def __repr__(self):
        return f"D({self.u}, {self.r})"


class ModuleElement:
    """Finite sum of basis symbols v_idx(m); (index, lattice point) -> coeff.

    Every lattice point has one int coordinate per entry of alpha; a point
    of another length, or with a coordinate that is not an int, is refused,
    and so are a basis index that is not an int and a float entry of alpha.
    """

    __slots__ = ("alpha", "terms")

    def __init__(self, alpha: Sequence, terms=None):
        self.alpha = tuple(alpha)
        self.terms = {}
        _refuse_floats("twist", self.alpha)
        if terms:
            n = len(self.alpha)
            for (idx, m), coeff in terms.items():
                if not isinstance(idx, int):
                    raise ValueError(f"basis index {idx!r} is not an int")
                m = tuple(m)
                if len(m) != n:
                    raise ValueError(f"lattice point {m} does not have rank {n}")
                if type(sum(m)) is not int:  # a sum of ints only is an int
                    bad = next(c for c in m if not isinstance(c, int))
                    raise ValueError(f"lattice point {m} has the coordinate {bad!r}, not an int")
                if not coeff_is_zero(coeff):
                    self.terms[(idx, m)] = coeff

    @classmethod
    def basis(cls, alpha, idx, m, coeff=1) -> "ModuleElement":
        return cls(alpha, {(idx, tuple(m)): coeff})

    @classmethod
    def zero(cls, alpha) -> "ModuleElement":
        return cls(alpha)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(out, key, coeff)
        return _element(self.alpha, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            # in place: a coefficient is negated only where self has no term
            # to subtract it from
            s = out[key] - coeff if key in out else -coeff
            if coeff_is_zero(s):
                del out[key]
            else:
                out[key] = s
        return _element(self.alpha, out)

    def __neg__(self) -> "ModuleElement":
        return _element(self.alpha, {key: -c for key, c in self.terms.items()})

    def scale(self, coeff) -> "ModuleElement":
        if coeff_is_zero(coeff):
            return _element(self.alpha, {})
        return _element(self.alpha, {key: c * coeff for key, c in self.terms.items()})

    def coefficient(self, idx, m):
        return self.terms.get((idx, tuple(m)), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def support_points(self) -> set:
        return {m for (_, m) in self.terms}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.alpha == other.alpha
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "ModuleElement(0)"
        body = " + ".join(
            f"({coeff_to_text(c)})*v[{idx}]{m}" for (idx, m), c in self.sorted_terms()
        )
        return f"ModuleElement({body})"


def _element(alpha, terms: dict) -> ModuleElement:
    # wraps a dict whose zero coefficients add_term has already dropped
    res = ModuleElement.__new__(ModuleElement)
    res.alpha = alpha
    res.terms = terms
    return res


def _unscaled(res: "ModuleElement", factor: int) -> "ModuleElement":
    """A residual computed ``factor`` times too large, at its true value;
    a zero one is returned as it is."""
    if factor == 1 or res.is_zero():
        return res
    return res.scale(Fraction(1, factor))


def witt_operator(D: WittGenerator, module, alpha, scale: int = 1):
    """scale * D(u, r) bound to one gl input and one twist alpha: ``apply(x)``.

    ``module`` is the gl_n input; it is read only through
    ``module.nonzero_columns(idx)``, the generators E_ij whose column at
    idx is nonempty, and ``module.scaled_column(scale, i, j, idx)``, the
    image of basis idx under E_ij as (p, entry) pairs, scaled and tabled
    by the input.  D(u, r) is built as sum_k u_k D(e_k, r): u enters
    only as the weights u_k of the unit directions' data, the weight
    alpha_k + m_k of a term at m and the column sum_i r_i E_ik e_idx.  So
    a residual linear in D is, for every u, the u-weighted sum of the
    residuals of D(e_1, r)..D(e_n, r); ``engine.derham_report`` counts
    on this.

    What does not depend on x is computed here, once: the nonzero entries
    u_k and (u|alpha), summed over them.  ``apply`` tables the rest as it
    meets it: for each lattice point m its target m + r and its weight,
    and for each basis index the matrix part, its entries summed.  A
    matrix part reads only the columns ``nonzero_columns`` names, and of
    those only the ones whose weight r_i u_j is nonzero, forming that
    weight as it reads the column.  These tables belong to this one
    operator, so a sweep binds each generator once and drops it when the
    sweep returns.  ``apply`` refuses an element with another alpha.

    With ``scale`` L > 1 the weight part is (u|L alpha) + L(u|m) and the
    matrix part sum_k u_k sum_i r_i (L E_ik), summed against the input's
    L-scaled int columns, which the input reads once per instance.  Each
    L alpha_k with u_k nonzero goes through ``scalars.scaled_int``, which
    refuses an entry that keeps a denominator, as the table does a column
    entry.  So with an int u, x with int coefficients has an int image; a
    fractional u gives the exact image, with the denominators u brings.
    """
    alpha = tuple(alpha)
    if len(D.u) != len(alpha):
        raise ValueError(f"generator dimension {len(D.u)} does not match n={len(alpha)}")
    u = [(k, uk) for k, uk in enumerate(D.u) if uk]
    u_alpha = 0
    for k, uk in u:
        u_alpha = u_alpha + uk * (alpha[k] if scale == 1 else scaled_int(alpha[k], scale))
    direction, shift = D.u, D.r
    scaled_u = u if scale == 1 else [(k, scale * uk) for k, uk in u]
    points = {}
    columns = {}

    def locate(m):
        # (m + r, the weight (u|L alpha) + L(u|m) of a term at m)
        u_m = 0
        for k, uk in scaled_u:
            u_m = u_m + uk * m[k]
        point = points[m] = (tuple(map(add, m, shift)), u_alpha + u_m)
        return point

    def matrix_part(idx):
        # (the entry at idx itself, the other (p, entry) pairs)
        col = {}
        for i, j in module.nonzero_columns(idx):
            w = direction[j - 1] * shift[i - 1]
            if w:
                for p, e in module.scaled_column(scale, i, j, idx):
                    add_term(col, p, w * e)
        diag = col.pop(idx, 0)
        part = columns[idx] = (diag, tuple(col.items()))
        return part

    def apply(x: ModuleElement) -> ModuleElement:
        if x.alpha != alpha:
            raise ValueError(f"element twist {x.alpha} does not match the bound {alpha}")
        out = {}
        for (idx, m), coeff in x.terms.items():
            target, weight = points.get(m) or locate(m)
            diag, rest = columns.get(idx) or matrix_part(idx)
            add_term(out, (idx, target), (weight + diag if diag else weight) * coeff)
            for p, e in rest:
                add_term(out, (p, target), e * coeff)
        return _element(alpha, out)

    return apply


def act_witt(D: WittGenerator, x: ModuleElement, module, scale: int = 1) -> ModuleElement:
    """Apply ``scale`` * D(u, r); linear in x, support shifts by r.  One
    application of ``witt_operator``; a sweep that applies D to many
    elements binds it once instead."""
    return witt_operator(D, module, x.alpha, scale)(x)


def witt_bracket(a: WittGenerator, b: WittGenerator) -> WittGenerator:
    """[D(u,r), D(v,s)] = D((u|s)v - (v|r)u, r+s)."""
    us = 0
    vr = 0
    for uk, sk, vk, rk in zip(a.u, b.r, b.u, a.r, strict=True):
        us = us + uk * sk
        vr = vr + vk * rk
    w = [us * vk - vr * uk for uk, vk in zip(a.u, b.u)]
    return WittGenerator(w, tuple(map(add, a.r, b.r)))


def _sweep_scale(alpha, modules) -> int:
    """L for a sweep on ``modules`` twisted by alpha: the lcm of the
    denominators of alpha and of every module's ``scalars()``, whatever
    directions the sweep binds; a symbolic value anywhere makes L 1."""
    return common_denominator((*alpha, *(v for module in modules for v in module.scalars())))


def witt_bracket_residual(u, r, v, s, x: ModuleElement, module) -> ModuleElement:
    """[D(u,r), D(v,s)]x - D((u|s)v - (v|r)u, r+s)x; zero iff the law holds.

    Computed as [L D_u, L D_v]x - L (L D_w)x, which is L**2 times it."""
    Du = WittGenerator(u, r)
    Dv = WittGenerator(v, s)
    Dw = witt_bracket(Du, Dv)
    scale = _sweep_scale(x.alpha, [module])
    du = witt_operator(Du, module, x.alpha, scale)
    dv = witt_operator(Dv, module, x.alpha, scale)
    dw = witt_operator(Dw, module, x.alpha, scale)
    lhs = du(dv(x)) - dv(du(x))
    return _unscaled(lhs - dw(x).scale(scale), scale * scale)


def jacobi_residual(gens, x: ModuleElement, module) -> ModuleElement:
    """Cyclic sum of [D1, [D2, D3]] applied to x; zero for a Lie action.
    Computed with every operator scaled by L, so L**2 times it."""
    total = ModuleElement.zero(x.alpha)
    d1, d2, d3 = gens
    terms = [(a, witt_bracket(b, c)) for a, b, c in ((d1, d2, d3), (d2, d3, d1), (d3, d1, d2))]
    scale = _sweep_scale(x.alpha, [module])
    for a, bc in terms:
        outer = witt_operator(a, module, x.alpha, scale)
        inner = witt_operator(bc, module, x.alpha, scale)
        total = total + outer(inner(x))
        total = total - inner(outer(x))
    return _unscaled(total, scale * scale)


# -- de Rham differential ----------------------------------------------


def _differential_table(wedge_k, wedge_k1) -> tuple:
    """For each source basis index S of ``wedge_k``, the (j - 1, position of
    e_j ^ e_S in ``wedge_k1``, odd) triples over j not in S; ``odd`` marks
    the sign flip from moving e_j past the members of S below j."""
    pos1 = wedge_k1.positions
    return tuple(
        tuple(
            (j - 1, pos1[tuple(sorted(subset + (j,)))], sum(1 for t in subset if t < j) % 2)
            for j in range(1, wedge_k.n + 1)
            if j not in subset
        )
        for subset in wedge_k.basis_labels
    )


def de_rham_operator(wedges, k: int, alpha, scale: int = 1):
    """``scale`` * d from wedge degree k, bound to one twist alpha:
    ``apply(x)``, where

        d(e_S tensor t^m) = sum_{j not in S} (m_j + alpha_j) e_j ^ e_S tensor t^m

    ``wedges`` lists the wedge-power modules of gl_n for degrees 0..n, so
    ``wedges[k]`` and ``wedges[k + 1]`` carry the source and target bases;
    the lattice point never moves.  The target positions and signs are
    tabulated, the degree and the rank of alpha checked and, with
    ``scale`` L > 1, L alpha formed by ``scalars.scaled_int``, all once per
    binding, so a sweep binds d once per degree.  Each weight is then
    L m_j + (L alpha)_j.  ``apply`` refuses an element with another alpha
    and a basis index outside ``wedges[k]``.
    """
    if not 0 <= k < len(wedges) - 1:
        raise ValueError(f"no differential from wedge degree {k} for n={len(wedges) - 1}")
    src = wedges[k]
    alpha = tuple(alpha)
    if len(alpha) != src.n:
        raise ValueError(f"twist of rank {len(alpha)} does not match the gl_{src.n} wedge modules")
    table = dict(enumerate(_differential_table(src, wedges[k + 1])))
    twist = alpha if scale == 1 else tuple(scaled_int(a, scale) for a in alpha)

    def apply(x: ModuleElement) -> ModuleElement:
        if x.alpha != alpha:
            raise ValueError(f"element twist {x.alpha} does not match the bound {alpha}")
        out = {}
        for (idx, m), coeff in x.terms.items():
            row = table.get(idx)
            if row is None:
                raise ValueError(f"basis index {idx} is outside wedge degree {k} (dim {src.dim})")
            for j, target, odd in row:
                weight = (scale * m[j] + twist[j]) * coeff
                add_term(out, (target, m), -weight if odd else weight)
        return _element(alpha, out)

    return apply


def de_rham_differential(x: ModuleElement, wedges, k: int) -> ModuleElement:
    """d(x) from wedge degree k.  One application of ``de_rham_operator``;
    a sweep that applies d to many elements binds it once instead."""
    return de_rham_operator(wedges, k, x.alpha)(x)


def verify_d_intertwines(u, r, alpha, box, n: int, k: int, wedges) -> dict:
    """Residuals of d(D(u,r)x) - D(u,r)(d x) over monomial generators.

    ``box`` is an iterable of distinct lattice points m; x runs over
    e_S tensor t^m for every wedge-degree-k basis subset S, in box order
    and basis order within a point.  An empty box, a repeated point, a
    degree k outside 0..n-1, a point of another rank and a coordinate that
    is not an int are refused before any operator is bound.  Both sides
    are computed with D and d scaled by one L, so on ints; a nonzero
    residual is divided by L**2.

    For each S the residual is formed once, on the sum of e_S tensor t^m
    over the box, and split by lattice point: d keeps the point of every
    term and D(u, r) moves it by r, so the residual of e_S tensor t^m is
    exactly the part at m + r, and the parts of distinct points never
    mix.  A residual term at a point outside box + r is refused.
    """
    alpha = tuple(alpha)
    box = [tuple(m) for m in box]
    if not box:
        raise ValueError("empty box: no basis vector to check")
    if n != len(wedges) - 1:
        raise ValueError(f"rank {n} does not match {len(wedges)} wedge modules")
    if not 0 <= k < n:
        raise ValueError(f"no differential from wedge degree {k} for n={n}")
    for m in box:
        if len(m) != n:
            raise ValueError(f"box point {m} does not have rank {n}")
    points = set(box)
    if len(points) != len(box):
        repeated = next(m for t, m in enumerate(box) if m in box[:t])
        raise ValueError(f"box point {repeated} is repeated")
    D = WittGenerator(u, r)
    src, dst = wedges[k], wedges[k + 1]
    sums = [ModuleElement(alpha, {(idx, m): 1 for m in box}) for idx in range(src.dim)]
    scale = _sweep_scale(alpha, (src, dst))
    act_src = witt_operator(D, src, alpha, scale)
    act_dst = witt_operator(D, dst, alpha, scale)
    d = de_rham_operator(wedges, k, alpha, scale)
    parts = {}
    for idx, x in enumerate(sums):
        # d(D x) - D(d x), L**2 times the true residual
        for (p, t), c in (d(act_src(x)) - act_dst(d(x))).terms.items():
            m = tuple(map(sub, t, D.r))
            if m not in points:
                raise ValueError(f"residual term at {t} is outside the box shifted by {D.r}")
            parts.setdefault((m, idx), {})[(p, t)] = c
    failures = [
        {
            "generator": repr(D),
            "basis": {"index": src.label(idx), "m": list(m)},
            "residual": element_to_json(
                _unscaled(_element(alpha, parts[m, idx]), scale * scale), dst
            ),
        }
        for m, idx in sorted(parts, key=lambda key: (box.index(key[0]), key[1]))
    ]
    return {"ok": not failures, "checked": len(box) * src.dim, "failures": failures}


# -- JSON element format -------------------------------------------------


def element_to_json(x: ModuleElement, module=None) -> dict:
    terms = []
    for (idx, m), coeff in x.sorted_terms():
        label = module.label(idx) if module is not None else idx
        terms.append({"index": label, "r": list(m), "coeff": coeff_to_text(coeff)})
    return {"alpha": [coeff_to_text(a) for a in x.alpha], "terms": terms}
