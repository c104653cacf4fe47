"""Input gl_n modules.

Two presentations are supported:

* ``FinDimGlModule`` - a finite-dimensional module given by one dim x dim
  matrix per generator E_ij, with ``exterior_power`` building the wedge
  powers of the defining representation.
* ``CuspidalGl2`` - the lazily-indexed family of cuspidal gl_2 weight
  modules with one-dimensional weight spaces, parameterized by
  (lambda, b, c):

      E11 v_i = (b + lambda + i) v_i
      E22 v_i = (b - lambda - i) v_i
      E12 v_i = (c + lambda + i) v_{i+1}
      E21 v_i = (c - lambda - i) v_{i-1}

  Basis indices materialize on demand; callers choose their own windows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

from .scalars import Scalar, coeff_is_zero, coeff_to_text, parse_scalar


class GlVector:
    """Finite formal sum of basis vectors, index -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for idx, coeff in terms.items():
                if not coeff_is_zero(coeff):
                    self.terms[idx] = coeff

    @classmethod
    def basis(cls, idx, coeff=1) -> "GlVector":
        return cls({idx: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GlVector") -> "GlVector":
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            s = out.get(idx, 0) + coeff
            if coeff_is_zero(s):
                out.pop(idx, None)
            else:
                out[idx] = s
        v = GlVector.__new__(GlVector)
        v.terms = out
        return v

    def __sub__(self, other: "GlVector") -> "GlVector":
        return self + other.scale(-1)

    def scale(self, coeff) -> "GlVector":
        if coeff_is_zero(coeff):
            return GlVector()
        v = GlVector.__new__(GlVector)
        v.terms = {idx: c * coeff for idx, c in self.terms.items()}
        return v

    def __eq__(self, other) -> bool:
        return isinstance(other, GlVector) and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if not self.terms:
            return "GlVector(0)"
        body = " + ".join(f"({coeff_to_text(c)})*v[{i}]" for i, c in self.sorted_terms())
        return f"GlVector({body})"


class FinDimGlModule:
    """gl_n module given by explicit matrices, one per generator.

    ``action[(i, j)][p][q]`` is the coefficient of basis p in E_ij * basis q.
    ``basis_labels`` optionally names the basis (index subsets for wedge
    powers); plain integer indices are used when absent.
    """

    kind = "findim"

    def __init__(self, n: int, dim: int, action: dict, basis_labels: Optional[tuple] = None):
        self.n = n
        self.dim = dim
        self.action = {
            key: tuple(tuple(row) for row in mat) for key, mat in action.items()
        }
        self.basis_labels = basis_labels
        for i, j in product(range(1, n + 1), repeat=2):
            mat = self.action.get((i, j))
            if mat is None or len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"missing or malformed matrix for E{i}{j}")

    def indices(self) -> range:
        return range(self.dim)

    def act(self, i: int, j: int, v: GlVector) -> GlVector:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"generator E{i}{j} out of range for gl_{self.n}")
        mat = self.action[(i, j)]
        out = {}
        for q, coeff in v.terms.items():
            if not 0 <= q < self.dim:
                raise IndexError(f"basis index {q} out of range")
            for p in range(self.dim):
                entry = mat[p][q]
                if coeff_is_zero(entry):
                    continue
                s = out.get(p, 0) + entry * coeff
                if coeff_is_zero(s):
                    out.pop(p, None)
                else:
                    out[p] = s
        return GlVector(out)

    def label(self, idx: int):
        if self.basis_labels is not None:
            return list(self.basis_labels[idx])
        return idx

    def to_json(self) -> dict:
        mats = {}
        for i, j in sorted(self.action):
            mat = self.action[(i, j)]
            mats[f"E{i}{j}"] = [coeff_to_text(entry) for row in mat for entry in row]
        doc = {"n": self.n, "dim": self.dim, "matrices": mats}
        if self.basis_labels is not None:
            doc["basis_labels"] = [list(lbl) for lbl in self.basis_labels]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FinDimGlModule":
        n, dim = int(doc["n"]), int(doc["dim"])
        action = {}
        for i, j in product(range(1, n + 1), repeat=2):
            flat = [parse_scalar(s) for s in doc["matrices"][f"E{i}{j}"]]
            if len(flat) != dim * dim:
                raise ValueError(f"matrix E{i}{j} has wrong size")
            action[(i, j)] = [flat[p * dim:(p + 1) * dim] for p in range(dim)]
        labels = doc.get("basis_labels")
        if labels is not None:
            labels = tuple(tuple(lbl) for lbl in labels)
        return cls(n, dim, action, labels)


class CuspidalGl2:
    """Cuspidal gl_2 family; indices are arbitrary integers."""

    kind = "cuspidal"
    n = 2

    def __init__(self, lam, b, c):
        self.lam = lam
        self.b = b
        self.c = c
        if all(isinstance(v, Fraction) for v in (lam, b, c)):
            # the raising and lowering coefficients c +- (lambda + i) must
            # never vanish at integer indices
            for name, val in (("c+l", c + lam), ("c-l", c - lam)):
                if val.denominator == 1:
                    raise ValueError(f"cuspidal parameters violate {name} not integer")

    def act(self, i: int, j: int, v: GlVector) -> GlVector:
        if not (1 <= i <= 2 and 1 <= j <= 2):
            raise IndexError(f"generator E{i}{j} out of range for gl_2")
        out = {}

        def put(idx, coeff):
            if coeff_is_zero(coeff):
                return
            s = out.get(idx, 0) + coeff
            if coeff_is_zero(s):
                out.pop(idx, None)
            else:
                out[idx] = s

        for k, coeff in v.terms.items():
            ipp = self.lam + k
            if (i, j) == (1, 1):
                put(k, (self.b + ipp) * coeff)
            elif (i, j) == (2, 2):
                put(k, (self.b - ipp) * coeff)
            elif (i, j) == (1, 2):
                put(k + 1, (self.c + ipp) * coeff)
            else:
                put(k - 1, (self.c - ipp) * coeff)
        return GlVector(out)

    def label(self, idx: int):
        return idx


def exterior_power(n: int, k: int) -> FinDimGlModule:
    """Wedge power of the defining gl_n representation.

    Basis: k-subsets of {1..n} in lexicographic order, each written with
    increasing indices.  E_ij replaces j by i (with the reordering sign)
    when j is in the subset and i is not; E_ii counts membership of i.
    The identity matrix acts as the scalar k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"wedge degree {k} out of range for n={n}")
    basis = list(combinations(range(1, n + 1), k))
    pos = {s: t for t, s in enumerate(basis)}
    dim = len(basis)
    action = {}
    for i, j in product(range(1, n + 1), repeat=2):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for q, subset in enumerate(basis):
            if i == j:
                if i in subset:
                    mat[q][q] = Fraction(1)
                continue
            if j not in subset or i in subset:
                continue
            without = [x for x in subset if x != j]
            p_old = subset.index(j)
            p_new = sum(1 for x in without if x < i)
            target = tuple(sorted(without + [i]))
            sign = -1 if (p_old - p_new) % 2 else 1
            mat[pos[target]][q] = Fraction(sign)
        action[(i, j)] = mat
    return FinDimGlModule(n, dim, action, basis_labels=tuple(basis))


def bracket_residual(module, i, j, k, l, v: GlVector) -> GlVector:
    lhs = module.act(i, j, module.act(k, l, v)) - module.act(k, l, module.act(i, j, v))
    rhs = GlVector()
    if j == k:
        rhs = rhs + module.act(i, l, v)
    if l == i:
        rhs = rhs - module.act(k, j, v)
    return lhs - rhs


def verify_gl_brackets(module, window: Optional[Iterable[int]] = None) -> dict:
    """Check E_ij E_kl - E_kl E_ij = delta_jk E_il - delta_li E_kj.

    ``window`` selects the basis indices for lazily-indexed modules; it is
    ignored for finite-dimensional ones (all basis vectors are checked).
    """
    if module.kind == "findim":
        indices = list(module.indices())
    else:
        if window is None:
            window = range(-4, 5)
        indices = list(window)
    n = module.n
    failures = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        for idx in indices:
            res = bracket_residual(module, i, j, k, l, GlVector.basis(idx))
            if not res.is_zero():
                failures.append(
                    {
                        "generators": f"[E{i}{j},E{k}{l}]",
                        "basis_index": module.label(idx),
                        "residual": {
                            str(module.label(t)): coeff_to_text(cf)
                            for t, cf in res.sorted_terms()
                        },
                    }
                )
    return {"ok": not failures, "checked_indices": len(indices), "failures": failures}


def central_charge(module, window: Optional[Iterable[int]] = None):
    """The scalar by which the identity matrix acts; errors if not scalar."""
    if module.kind == "findim":
        indices = list(module.indices())
    else:
        indices = list(window) if window is not None else list(range(-4, 5))
    value = None
    for idx in indices:
        v = GlVector()
        for i in range(1, module.n + 1):
            v = v + module.act(i, i, GlVector.basis(idx))
        if set(v.terms) - {idx}:
            raise ValueError("identity action is not diagonal")
        coeff = v.terms.get(idx, _zero_like(module))
        if value is None:
            value = coeff
        elif value != coeff:
            raise ValueError("identity action is not a single scalar")
    return value


def _zero_like(module):
    if module.kind == "cuspidal" and isinstance(module.b, Scalar):
        return Scalar.zero()
    return Fraction(0)


def glvector_to_json(module, v: GlVector) -> list:
    return [
        {"index": module.label(idx), "coeff": coeff_to_text(coeff)}
        for idx, coeff in v.sorted_terms()
    ]
