"""Input gl_n modules.

Two presentations are supported:

* ``FinDimGlModule`` - a finite-dimensional module given by one dim x dim
  matrix per generator E_ij, with ``exterior_power`` building the wedge
  powers of the defining representation.
* ``CuspidalGl2`` - the lazily-indexed family of cuspidal gl_2 weight
  modules with one-dimensional weight spaces, parameterized by
  (lambda, b, c) and held as the table ``CUSPIDAL_COLUMNS``:

      E11 v_i = (b + lambda + i) v_i
      E22 v_i = (b - lambda - i) v_i
      E12 v_i = (c + lambda + i) v_{i+1}
      E21 v_i = (c - lambda - i) v_{i-1}

  Basis indices materialize on demand; callers choose their own windows.

Both act on the V factor of V tensor C[t^{+-1}] only, fibrewise: ``act``
takes and returns a ``tensor.ModuleElement`` and sends each term v_q(m)
to (E_ij v_q)(m), keeping its lattice point m and the twist alpha.

Both keep, per instance, the table of integer-scaled columns the
Witt sweeps read (``scaled_column``); it is filled once per instance and
never shared between instances, nor kept in a global cache.  Both also
name the generators whose column at a basis index is nonempty
(``nonzero_columns``), so a Witt binding reads only those columns: the
findim input works them out once from its column table, the cuspidal
one names all four generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Optional

from .scalars import (
    add_term,
    coeff_is_zero,
    coeff_to_text,
    exact,
    form_value,
    scaled_int,
)
from .tensor import ModuleElement, _element


# The per-instance tables of both gl inputs; each ``__init__`` sets
# ``_scaled = {}``.


def _scaled_column(self, scale: int, i: int, j: int, idx: int) -> tuple:
    """``column(i, j, idx)`` with every entry e as the int
    ``scalars.scaled_int(e, scale)``, which refuses an entry that keeps a
    denominator.  Read once per (scale, i, j, idx) and kept in this
    instance.  At scale 1 it is ``column`` itself, entries unchanged and
    nothing kept, so a symbolic input holds no table."""
    if scale == 1:
        return self.column(i, j, idx)
    key = (scale, i, j, idx)
    col = self._scaled.get(key)
    if col is None:
        col = tuple((p, scaled_int(e, scale)) for p, e in self.column(i, j, idx))
        self._scaled[key] = col
    return col


def _act_by_columns(module, i: int, j: int, x: ModuleElement) -> ModuleElement:
    """``act`` of both inputs: E_ij x fibrewise, v_q(m) to (E_ij v_q)(m)
    read off ``module.column``; lattice points and alpha are kept."""
    out = {}
    for (q, m), coeff in x.terms.items():
        for p, entry in module.column(i, j, q):
            add_term(out, (p, m), entry * coeff)
    return _element(x.alpha, out)


class FinDimGlModule:
    """gl_n module given by explicit matrices, one per generator.

    ``action[(i, j)][p][q]`` is the coefficient of basis p in E_ij * basis q.
    ``basis_labels`` optionally names the basis (index subsets for wedge
    powers); plain integer indices are used when absent, and ``positions``
    maps each label back to its index.

    The matrices are immutable once built, so every column is read off
    them once, here: ``column(i, j, q)`` is the image of basis q under
    E_ij as a tuple of (p, entry) pairs with nonzero entries only, and an
    integral entry is stored as an ``int``.  ``nonzero_columns(q)`` is
    read off the same table, once: the (i, j) whose column at q is
    nonempty.
    """

    kind = "findim"
    act = _act_by_columns
    scaled_column = _scaled_column

    def __init__(self, n: int, dim: int, action: dict, basis_labels: Optional[tuple] = None):
        self.n = n
        self.dim = dim
        self.action = {
            key: tuple(tuple(row) for row in mat) for key, mat in action.items()
        }
        self.basis_labels = basis_labels
        self.positions = {s: t for t, s in enumerate(basis_labels or ())}
        self._scaled = {}
        self._columns = {}
        for i, j in product(range(1, n + 1), repeat=2):
            mat = self.action.get((i, j))
            if mat is None or len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"missing or malformed matrix for E{i}{j}")
            self._columns[(i, j)] = tuple(
                tuple(
                    (p, exact(row[q]))
                    for p, row in enumerate(mat)
                    if not coeff_is_zero(row[q])
                )
                for q in range(dim)
            )
        self._nonzero = tuple(
            tuple(g for g, cols in self._columns.items() if cols[q]) for q in range(dim)
        )
        self._fractions = tuple({
            e for cols in self._columns.values() for col in cols for _, e in col
            if type(e) is not int
        })

    def scalars(self) -> tuple:
        """The non-integral matrix entries: the lcm of their denominators
        clears every column."""
        return self._fractions

    def indices(self) -> range:
        return range(self.dim)

    def column(self, i: int, j: int, idx: int) -> tuple:
        cols = self._columns.get((i, j))
        if cols is None:
            raise IndexError(f"generator E{i}{j} out of range for gl_{self.n}")
        if not 0 <= idx < self.dim:
            raise IndexError(f"basis index {idx} out of range")
        return cols[idx]

    def nonzero_columns(self, idx: int) -> tuple:
        """The generators (i, j) whose ``column(i, j, idx)`` is nonempty."""
        return self._nonzero[idx]

    def label(self, idx: int):
        if self.basis_labels is not None:
            return list(self.basis_labels[idx])
        return idx


# E_ij v_idx = form(lambda + idx, b, c) * v_{idx+offset} for the entry
# (offset, form) of E_ij, form the integer coefficients of a linear form
# over (lambda, b, c): the index enters only through lambda + idx.
CUSPIDAL_COLUMNS = {
    (1, 1): (0, (1, 1, 0)),
    (2, 2): (0, (-1, 1, 0)),
    (1, 2): (1, (1, 0, 1)),
    (2, 1): (-1, (-1, 0, 1)),
}


class CuspidalGl2:
    """Cuspidal gl_2 family; indices are arbitrary integers.

    ``column(i, j, k)`` reads the ``CUSPIDAL_COLUMNS`` entry of E_ij at
    (lambda + k, b, c): the image of v_k as a tuple of at most one
    (index, coefficient) pair, empty when the coefficient vanishes.  It
    evaluates the form on each call; ``scaled_column`` reads it once per
    scale and index into this instance's table, so an instance built
    after ``CUSPIDAL_COLUMNS`` changes sees the change, whatever another
    instance has tabled.  A float lambda, b or c is refused.
    """

    kind = "cuspidal"
    n = 2
    act = _act_by_columns
    scaled_column = _scaled_column

    def __init__(self, lam, b, c):
        self.lam = lam
        self.b = b
        self.c = c
        self._scaled = {}
        for name, val in (("lambda", lam), ("b", b), ("c", c)):
            if isinstance(val, float):
                raise TypeError(f"inexact cuspidal scalar {name} = {val!r}")
        if all(isinstance(v, (int, Fraction)) for v in (lam, b, c)):
            # the raising and lowering coefficients c +- (lambda + i) must
            # never vanish at integer indices
            for name, val in (("c+l", c + lam), ("c-l", c - lam)):
                if val.denominator == 1:
                    raise ValueError(f"cuspidal parameters need {name} non-integral, got {val}")

    def scalars(self) -> tuple:
        """(lambda, b, c): every column entry is an integer combination of
        them and 1, so the lcm of their denominators clears it."""
        return (self.lam, self.b, self.c)

    def column(self, i: int, j: int, idx: int) -> tuple:
        if (i, j) not in CUSPIDAL_COLUMNS:
            raise IndexError(f"generator E{i}{j} out of range for gl_2")
        offset, form = CUSPIDAL_COLUMNS[(i, j)]
        val = form_value(form, (self.lam + idx, self.b, self.c))
        return () if coeff_is_zero(val) else ((idx + offset, val),)

    def nonzero_columns(self, idx: int):
        """Every generator: a column is empty only where its form
        vanishes, which is not worth evaluating to find out."""
        return CUSPIDAL_COLUMNS.keys()

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


def bracket_residual(act, i, j, k, l, v):
    """[E_ij, E_kl]v - (delta_jk E_il - delta_li E_kj)v for any action
    ``act(i, j, v)``; zero iff the gl bracket law holds on v."""
    res = act(i, j, act(k, l, v)) - act(k, l, act(i, j, v))
    if j == k:
        res = res - act(i, l, v)
    if l == i:
        res = res + act(k, j, v)
    return res


def bracket_residuals(act, n: int, v, scale: int = 1) -> dict:
    """Every pair's ``bracket_residual`` on v, keyed by ((i, j), (k, l))
    in lexicographic order, from tabled images ``once[g] = act(*g, v)``
    and ``twice[g1, g2] = act(*g1, once[g2])`` for g1 != g2.  For any
    linear ``act`` the residual of (g2, g1) is the negation of that of
    (g1, g2) and that of (g, g) is zero, so each unordered pair is formed
    once.  An ``act`` that is ``scale`` times a gl action gives scale**2
    times each residual.  The tables live for one call."""
    gens = list(product(range(1, n + 1), repeat=2))
    once = {g: act(*g, v) for g in gens}
    twice = {(g1, g2): act(*g1, once[g2]) for g1 in gens for g2 in gens if g1 != g2}
    if scale != 1:
        once = {g: image.scale(scale) for g, image in once.items()}
    out = {}
    for a, b in product(gens, repeat=2):
        if a == b:
            out[a, b] = ModuleElement.zero(v.alpha)
        elif a > b:
            out[a, b] = -out[b, a]
        else:
            (i, j), (k, l) = a, b
            res = twice[a, b] - twice[b, a]
            if j == k:
                res = res - once[(i, l)]
            if l == i:
                res = res + once[(k, j)]
            out[a, b] = res
    return out


def verify_gl_brackets(module) -> dict:
    """Check E_ij E_kl - E_kl E_ij = delta_jk E_il - delta_li E_kj.

    Every basis vector of a finite-dimensional module is checked; a
    cuspidal one is checked on the indices -4..4.  Failures are listed
    pair by pair, in basis order within a pair.
    """
    indices = list(module.indices() if module.kind == "findim" else range(-4, 5))
    found = []
    for idx in indices:
        residuals = bracket_residuals(module.act, module.n, ModuleElement.basis((), idx, ()))
        for pos, (((i, j), (k, l)), res) in enumerate(residuals.items()):
            if not res.is_zero():
                found.append((pos, {
                    "generators": f"[E{i}{j},E{k}{l}]",
                    "basis_index": module.label(idx),
                    "residual": {
                        str(module.label(t)): coeff_to_text(cf)
                        for (t, _), cf in res.sorted_terms()
                    },
                }))
    found.sort(key=itemgetter(0))
    return {
        "ok": not found,
        "checked_indices": len(indices),
        "failures": [failure for _, failure in found],
    }
