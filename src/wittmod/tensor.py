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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .scalars import add_term, coeff_is_zero, coeff_to_text, parse_scalar


class WittGenerator:
    """D(u, r): direction vector u over the coefficient field, lattice shift r."""

    __slots__ = ("u", "r")

    def __init__(self, u: Sequence, r: Sequence[int]):
        r = tuple(r)
        self.u = tuple(u)
        self.r = tuple(int(x) for x in r)
        if self.r != r:
            raise ValueError(f"non-integral shift {r}")
        if len(self.u) != len(self.r):
            raise ValueError("direction and shift lengths differ")

    def __repr__(self):
        return f"D({self.u}, {self.r})"


class ModuleElement:
    """Finite sum of basis symbols v_idx(m); (index, lattice point) -> coeff."""

    __slots__ = ("alpha", "terms")

    def __init__(self, alpha: Sequence, terms=None):
        self.alpha = tuple(alpha)
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff_is_zero(coeff):
                    idx, m = key
                    self.terms[(idx, tuple(m))] = coeff

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
            add_term(out, key, -coeff)
        return _element(self.alpha, out)

    def __neg__(self) -> "ModuleElement":
        return self.scale(-1)

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


def act_witt(D: WittGenerator, x: ModuleElement, module) -> ModuleElement:
    """Apply D(u, r); linear in x, support shifts by r.

    ``module`` is the gl_n input; it is read only through
    ``module.column(i, j, idx)``, the image of basis idx under E_ij as
    (p, entry) pairs.  A ``FinDimGlModule`` builds its columns once, at
    construction, from its immutable matrices and stores integral entries
    as ``int``; a ``CuspidalGl2`` evaluates its closed form.  Per term of
    x the weight is (u|alpha), computed once per call, plus (u|m), and the
    matrix part sum_{i,j} r_i u_j E_ij e_idx is summed with the scalar
    entries before the one product with the term's coefficient.
    """
    n = len(x.alpha)
    if len(D.u) != n:
        raise ValueError(f"generator dimension {len(D.u)} does not match n={n}")
    u = [(k, uk) for k, uk in enumerate(D.u) if not coeff_is_zero(uk)]
    ru = [(i + 1, j + 1, ri * uj) for i, ri in enumerate(D.r) if ri for j, uj in u]
    u_alpha = 0
    for k, uk in u:
        u_alpha = u_alpha + uk * x.alpha[k]
    out = {}
    for (idx, m), coeff in x.terms.items():
        target = tuple(a + b for a, b in zip(m, D.r))
        u_m = 0
        for k, uk in u:
            u_m = u_m + uk * m[k]
        add_term(out, (idx, target), (u_alpha + u_m) * coeff)
        col = {}
        for i, j, c in ru:
            for p, e in module.column(i, j, idx):
                add_term(col, p, c * e)
        for p, e in col.items():
            add_term(out, (p, target), e * coeff)
    return _element(x.alpha, out)


def witt_bracket(a: WittGenerator, b: WittGenerator) -> WittGenerator:
    """[D(u,r), D(v,s)] = D((u|s)v - (v|r)u, r+s)."""
    us = 0
    vr = 0
    for k in range(len(a.u)):
        us = us + a.u[k] * b.r[k]
        vr = vr + b.u[k] * a.r[k]
    w = tuple(us * b.u[k] - vr * a.u[k] for k in range(len(a.u)))
    return WittGenerator(w, tuple(p + q for p, q in zip(a.r, b.r)))


def witt_bracket_residual(u, r, v, s, x: ModuleElement, module) -> ModuleElement:
    """[D(u,r), D(v,s)]x - D((u|s)v - (v|r)u, r+s)x; zero iff the law holds."""
    Du = WittGenerator(u, r)
    Dv = WittGenerator(v, s)
    lhs = act_witt(Du, act_witt(Dv, x, module), module) - act_witt(
        Dv, act_witt(Du, x, module), module
    )
    return lhs - act_witt(witt_bracket(Du, Dv), x, module)


def jacobi_residual(gens, x: ModuleElement, module) -> ModuleElement:
    """Cyclic sum of [D1, [D2, D3]] applied to x; zero for a Lie action."""
    total = ModuleElement.zero(x.alpha)
    d1, d2, d3 = gens
    for a, b, c in ((d1, d2, d3), (d2, d3, d1), (d3, d1, d2)):
        inner = witt_bracket(b, c)
        total = total + act_witt(a, act_witt(inner, x, module), module)
        total = total - act_witt(inner, act_witt(a, x, module), module)
    return total


# -- de Rham differential ----------------------------------------------


@lru_cache(maxsize=8)
def _differential_table(n: int, wedge_k, wedge_k1) -> tuple:
    """For each source basis index S of ``wedge_k``, the (j - 1, position of
    e_j ^ e_S in ``wedge_k1``, odd) triples over j not in S; ``odd`` marks
    the sign flip from moving e_j past the members of S below j."""
    pos1 = wedge_k1.positions
    return tuple(
        tuple(
            (j - 1, pos1[tuple(sorted(subset + (j,)))], sum(1 for t in subset if t < j) % 2)
            for j in range(1, n + 1)
            if j not in subset
        )
        for subset in wedge_k.basis_labels
    )


def de_rham_differential(x: ModuleElement, n: int, k: int, wedge_k, wedge_k1) -> ModuleElement:
    """Degree +1 map on twisted forms:

        d(e_S tensor t^m) = sum_{j not in S} (m_j + alpha_j) e_j ^ e_S tensor t^m

    ``wedge_k`` and ``wedge_k1`` are the wedge-power modules carrying the
    source and target bases; the lattice point never moves.  The target
    positions and signs are tabulated once per pair of modules.
    """
    if k >= n:
        raise ValueError("top-degree forms have no differential")
    table = _differential_table(n, wedge_k, wedge_k1)
    alpha = x.alpha
    out = {}
    for (idx, m), coeff in x.terms.items():
        for j, target, odd in table[idx]:
            weight = (m[j] + alpha[j]) * coeff
            add_term(out, (target, m), -weight if odd else weight)
    return _element(alpha, out)


def verify_d_intertwines(u, r, alpha, box, n: int, k: int, wedges) -> dict:
    """Residuals of d(D(u,r)x) - D(u,r)(d x) over monomial generators.

    ``box`` is an iterable of lattice points m; x runs over e_S tensor t^m
    for every wedge-degree-k basis subset S.  An empty box is refused.
    """
    box = list(box)
    if not box:
        raise ValueError("empty box: no basis vector to check")
    D = WittGenerator(u, r)
    src, dst = wedges[k], wedges[k + 1]
    failures = []
    count = 0
    for m in box:
        for idx in range(src.dim):
            x = ModuleElement.basis(alpha, idx, m)
            lhs = de_rham_differential(act_witt(D, x, src), n, k, src, dst)
            rhs = act_witt(D, de_rham_differential(x, n, k, src, dst), dst)
            count += 1
            res = lhs - rhs
            if not res.is_zero():
                failures.append(
                    {
                        "generator": repr(D),
                        "basis": {"index": src.label(idx), "m": list(m)},
                        "residual": element_to_json(res, dst),
                    }
                )
    return {"ok": not failures, "checked": count, "failures": failures}


# -- JSON element format -------------------------------------------------


def element_to_json(x: ModuleElement, module=None) -> dict:
    terms = []
    for (idx, m), coeff in x.sorted_terms():
        label = module.label(idx) if module is not None else idx
        terms.append({"index": label, "r": list(m), "coeff": coeff_to_text(coeff)})
    return {"alpha": [coeff_to_text(a) for a in x.alpha], "terms": terms}


def _demote(x):
    # constants round-trip as plain rationals so numeric elements stay numeric
    return x.const_value() if x.is_const() else x


def element_from_json(doc: dict, module=None) -> ModuleElement:
    alpha = tuple(_demote(parse_scalar(s)) for s in doc["alpha"])
    terms = {}
    for entry in doc["terms"]:
        label = entry["index"]
        if isinstance(label, list):
            if module is None or module.basis_labels is None:
                raise ValueError("subset index requires a labeled module")
            idx = module.basis_labels.index(tuple(label))
        else:
            idx = int(label)
        key = (idx, tuple(int(v) for v in entry["r"]))
        coeff = _demote(parse_scalar(entry["coeff"]))
        add_term(terms, key, coeff)
    return ModuleElement(alpha, terms)
