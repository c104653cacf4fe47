"""Desk-scale analysis engine.

Window-truncated linear algebra over the exact module actions: frontier
closures of submodules, generation and irreducibility certificates,
singular vectors with degenerate reducibility witnesses, the recursion
compatibility oracle, and the centrality / index-leakage checks.

Coefficient arithmetic is always exact; a window only decides which basis
symbols are observed, never how a coefficient is computed.  Every check
returns a plain-dict report with a verdict in {pass, fail, refused,
error}; "refused" marks an unmet precondition, "error" a window too small
to support the claimed conclusion.
"""

from __future__ import annotations

import heapq
import operator
import random
from copy import deepcopy
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count, product as iproduct
from math import gcd, lcm, prod
from typing import Optional, Sequence

from .glmod import CuspidalGl2, exterior_power, verify_gl_brackets
from .scalars import (
    IOTA,
    Scalar,
    coeff_is_zero,
    factor_polynomial,
    form_value,
    iota_split,
    linear_quotient,
    scalar_to_text,
    scaled_int,
    shift_symbols,
)
from .sl3 import (
    CONDITION_NAMES,
    DEFAULT_VALUES,
    GENERATORS,
    SPANNING_CONDITIONS,
    NAME_OF,
    Params,
    act_gen,
    act_word,
    basis_element,
    check_generic,
    check_letters,
    condition_values,
    covariant_sweep,
    lowering_operator,
    moved,
    parse_word,
    proof_identity_report,
    raising_operator,
    row_action,
    sweep_failures,
    truncation_lengths,
    verify_embedding,
    verify_sl3_brackets,
    word_path,
    word_shift,
)
from .tensor import (
    ModuleElement,
    WittGenerator,
    _sweep_scale,
    _unscaled,
    de_rham_operator,
    element_to_json,
    jacobi_residual,
    witt_bracket_residual,
    witt_operator,
)


class Window:
    """Index range and lattice box with an inner margin.

    Closure rows live on the outer region; conclusions are read off the
    inner region, ``margin`` steps away from every outer face, so edge
    truncation cannot reach them.
    """

    __slots__ = ("i_min", "i_max", "r_bounds", "margin")

    def __init__(self, i_min: int, i_max: int, r_bounds, margin: int = 0):
        self.i_min = scaled_int(i_min)
        self.i_max = scaled_int(i_max)
        self.r_bounds = tuple((scaled_int(lo), scaled_int(hi)) for lo, hi in r_bounds)
        self.margin = scaled_int(margin)
        if len(self.r_bounds) != 2:
            raise ValueError(f"window needs two lattice axes, got {len(self.r_bounds)}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.i_min + self.margin > self.i_max - self.margin:
            raise ValueError("window has empty inner index range")
        for lo, hi in self.r_bounds:
            if lo + self.margin > hi - self.margin:
                raise ValueError("window has an empty inner lattice axis")

    @classmethod
    def symmetric(cls, i_bound: int, r1_bound: int, r2_bound: int, margin: int = 0):
        return cls(
            -i_bound, i_bound, ((-r1_bound, r1_bound), (-r2_bound, r2_bound)), margin
        )

    def contains(self, idx: int, pt, inner: bool = False) -> bool:
        """Whether the basis symbol v_idx(pt) lies in the (inner) window."""
        m = self.margin if inner else 0
        return (
            self.i_min + m <= idx <= self.i_max - m
            and len(pt) == len(self.r_bounds)
            and all(lo + m <= x <= hi - m for x, (lo, hi) in zip(pt, self.r_bounds))
        )

    def indices(self, inner: bool = False) -> list:
        m = self.margin if inner else 0
        return list(range(self.i_min + m, self.i_max - m + 1))

    def points(self, inner: bool = False) -> list:
        m = self.margin if inner else 0
        axes = [range(lo + m, hi - m + 1) for lo, hi in self.r_bounds]
        return [tuple(pt) for pt in iproduct(*axes)]

    def basis(self, inner: bool = False) -> list:
        return [(idx, pt) for pt in self.points(inner) for idx in self.indices(inner)]

    def to_json(self) -> dict:
        return {
            "i": [self.i_min, self.i_max],
            "r": [list(b) for b in self.r_bounds],
            "margin": self.margin,
        }

    def __repr__(self):
        return (
            f"Window(i=[{self.i_min},{self.i_max}], "
            f"r={list(self.r_bounds)}, margin={self.margin})"
        )


# -- canonical per-point row reduction -----------------------------------


def _integer_row(row: dict) -> dict:
    """Integer multiple of a rational row, zero entries dropped.

    Only exact rationals are accepted: a float would make every later
    dependence test an inexact comparison with zero.  A row of nonzero
    ints, such as every closure image, is returned as it is; callers
    build new rows from it and never store it.
    """
    for v in row.values():
        if type(v) is not int or not v:
            break
    else:
        return row
    den = 1
    for v in row.values():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"row entries must be exact rationals, got {type(v).__name__}")
            den = lcm(den, v.denominator)
    if den == 1:
        return {k: int(v) for k, v in row.items() if v}
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


def _primitive(row: dict) -> dict:
    """The row divided by its content, signed so its lowest-index entry is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return {k: v // g for k, v in row.items()}


def _eliminate(row: dict, pivot, r: dict) -> dict:
    """A positive multiple of ``row`` minus a multiple of ``r``, zero at ``pivot``."""
    pv, cf = r[pivot], row[pivot]
    g = gcd(pv, cf)
    pv, cf = pv // g, cf // g
    out = {k: pv * v for k, v in row.items()}
    for k, v in r.items():
        s = out.get(k, 0) - cf * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class SubspaceBasis:
    """Fraction-free reduced echelon bases, one per lattice point.

    Rows are integer vectors kept fully back-substituted (zero at every
    other row's pivot) and primitive: the entries' gcd is 1 and the pivot,
    the lowest index, is positive.  Each row is then the unique primitive
    multiple of a reduced row-echelon row, so the basis of a given
    subspace is unique and reports built from it are reproducible byte
    for byte.  Rational input rows are cleared to integer rows on entry;
    elimination never divides.
    """

    def __init__(self):
        self.by_point = {}

    def reduce(self, pt, row: dict) -> dict:
        """``row`` reduced against the basis at ``pt``, as a primitive
        integer row; empty when ``row`` lies in the basis's span."""
        out = _integer_row(row)
        for pivot, r in self.by_point.get(pt, []):
            if pivot in out:
                out = _eliminate(out, pivot, r)
        return _primitive(out) if out else out

    def insert(self, pt, row: dict) -> Optional[dict]:
        """Add a vector; returns its canonical new row, or None if dependent."""
        red = self.reduce(pt, row)
        if not red:
            return None
        pivot = min(red)
        rows = self.by_point.setdefault(pt, [])
        for t, (p, r) in enumerate(rows):
            if pivot in r:
                rows[t] = (p, _primitive(_eliminate(r, pivot, red)))
        pos = sum(1 for p, _ in rows if p < pivot)
        rows.insert(pos, (pivot, red))
        return red

    def contains(self, pt, row: dict) -> bool:
        return not self.reduce(pt, row)

    def contains_basis(self, pt, idx: int) -> bool:
        return self.contains(pt, {idx: 1})

    def rank(self, pt) -> int:
        return len(self.by_point.get(pt, []))

    def total_rank(self) -> int:
        return sum(len(rows) for rows in self.by_point.values())

    def points(self) -> list:
        return sorted(self.by_point)


DEFAULT_WORD_NAMES = (
    "E11", "E12", "E13", "E21", "E22", "E23", "E31", "E32", "E33",
    "E13*E32", "E23*E31",
)
DEFAULT_WORDS = tuple(parse_word(w) for w in DEFAULT_WORD_NAMES)

def _closure_stats(basis: SubspaceBasis, rounds: int, processed: int, exhausted: bool) -> dict:
    return {
        "rounds": rounds,
        "rows_processed": processed,
        "rank": basis.total_rank(),
        "exhausted": exhausted,
    }


def _check_seed(x: ModuleElement, alpha, window: Window) -> None:
    """Refuse a closure seed that is zero, twisted by other than ``alpha``
    or supported outside the window."""
    if x.is_zero():
        raise ValueError("zero seed")
    if tuple(x.alpha) != tuple(alpha):
        raise ValueError("seed twist does not match parameters")
    for (idx, pt) in x.terms:
        if not window.contains(idx, pt):
            raise ValueError(f"seed support outside the window: index {idx} at {pt}")


def closure(params: Params, seeds, words, window: Window, stop_at=None):
    """Deterministic window-truncated closure of the span of the seeds.

    Seeds are decomposed per lattice point before insertion: the diagonal
    generators separate lattice points (their eigenvalues differ by
    nonzero integers across points), so a submodule containing an element
    contains each of its per-point components.  Every generator moves a
    lattice point by a fixed shift, so a one-point row has its image at
    the single point given by ``word_shift``.  Images that cannot add to
    the span are not computed: those landing outside the outer lattice
    box, at a point whose span is already the whole index range, or under
    a word of diagonal generators only (it acts on each lattice point by
    a scalar).  Indices beyond the index range are dropped; the margin
    keeps such edge effects away from any inner-window conclusion.

    The arithmetic is exact and fraction-free.  Rows are primitive
    integer rows (``SubspaceBasis``), and a word is applied to a whole
    row at once by ``row_action``, straight from the generator table
    with every coefficient scaled by the lcm of the parameter
    denominators; scaling a row leaves its span unchanged.  Parameters
    must therefore be numeric, and every letter one of the nine generators.

    ``stop_at = (idx, pt)`` ends the closure as soon as v_idx(pt) lies in
    the span: it is tested once the seed rows are in and after each new
    row at pt.  Such an early return reports ``exhausted: False``.

    Rows wait in one heap keyed by (priority, insertion number): the
    breadth-first depth without ``stop_at``, so the order is breadth-first,
    and the L1 lattice distance to pt with it, so rows near the stop point
    go first.  Every stored row has all its images tried, so any order
    gives the same exhausted closure: the smallest per-point family of
    subspaces that holds the seeds and is closed under "apply a word, drop
    the out-of-range indices", with the same canonical rows.  ``rounds``
    is the largest depth processed plus one.
    """
    if not params.is_numeric():
        raise ValueError("closure needs numeric parameters")
    check_letters(g for letters in words for g in letters)
    alpha = params.alpha()
    apply = row_action(params)
    applied = [(w, word_shift(w)) for w in words if any(i != j for i, j in w)]
    i_min, i_max = window.i_min, window.i_max
    (lo1, hi1), (lo2, hi2) = window.r_bounds
    full_rank = i_max - i_min + 1
    stop_idx, stop_pt = stop_at or (None, None)

    def priority(pt, depth):
        if stop_at is None:
            return depth
        return abs(pt[0] - stop_pt[0]) + abs(pt[1] - stop_pt[1])

    basis = SubspaceBasis()
    by_point = basis.by_point
    heap = []  # (priority, insertion number, depth, point, row)
    inserted = count()
    rounds = 0
    processed = 0
    for x in seeds:
        _check_seed(x, alpha, window)
        for pt in sorted(x.support_points()):
            row = {i: cf for (i, p), cf in x.terms.items() if p == pt}
            ins = basis.insert(pt, row)
            if ins is not None:
                heap.append((priority(pt, 0), next(inserted), 0, pt, ins))
    if stop_at is not None and basis.contains_basis(stop_pt, stop_idx):
        return basis, _closure_stats(basis, rounds, processed, False)
    heapq.heapify(heap)
    while heap:
        _, _, depth, pt, row = heapq.heappop(heap)
        processed += 1
        rounds = max(rounds, depth + 1)
        for letters, (d1, d2) in applied:
            t1, t2 = pt[0] + d1, pt[1] + d2
            if not (lo1 <= t1 <= hi1 and lo2 <= t2 <= hi2):
                continue
            tpt = (t1, t2)
            if len(by_point.get(tpt, ())) == full_rank:
                continue
            trow = {i: v for i, v in apply(letters, row, pt).items() if i_min <= i <= i_max}
            if not trow:
                continue
            ins = basis.insert(tpt, trow)
            if ins is not None:
                if tpt == stop_pt and basis.contains_basis(tpt, stop_idx):
                    return basis, _closure_stats(basis, rounds, processed, False)
                heapq.heappush(heap, (priority(tpt, depth + 1), next(inserted), depth + 1, tpt, ins))
    return basis, _closure_stats(basis, rounds, processed, True)


def _report(check: str, params: Params, window: Optional[Window], verdict: str, body: dict) -> dict:
    doc = {
        "check": check,
        "mode": "numeric" if params.is_numeric() else "symbolic",
        "params": params.to_json(),
        "window": window.to_json() if window is not None else None,
        "verdict": verdict,
    }
    doc.update(body)
    return doc


def _require_nonnegative(**counts):
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _missed_targets(basis: SubspaceBasis, targets) -> list:
    out = []
    for idx, pt in targets:
        if not basis.contains_basis(pt, idx):
            out.append((idx, pt))
    return out


def _basis_json(pairs, limit=10) -> list:
    return [{"index": idx, "r": list(pt)} for idx, pt in pairs[:limit]]


def _genericity_gate(check: str, params: Params, window: Window, names=CONDITION_NAMES):
    """(refusal report or None, ``check_generic`` dict) for a gated check.

    Refuses symbolic parameters and the first violated condition in ``names``.
    """
    if not params.is_numeric():
        return _report(
            check, params, window, "refused",
            {"reason": "symbolic parameters: genericity is undecidable"},
        ), None
    generic = check_generic(params)
    for c in generic["conditions"]:
        if c["name"] in names and not c["holds"]:
            return _report(
                check, params, window, "refused",
                {"reason": f"genericity condition {c['name']} fails", "generic": generic},
            ), generic
    return None, generic


# (stage, words, predicate on (target level, seed level))
GENERATION_STAGES = (
    ("antidiagonal", ("E12", "E13*E32", "E21", "E23*E31"), operator.eq),
    ("lower-levels", ("E12", "E13*E32", "E21", "E23*E31", "E31"), operator.le),
    ("full", DEFAULT_WORD_NAMES, lambda lvl, seed_lvl: True),
)


def _inner_targets(window: Window) -> list:
    """The inner window's basis, refused when it is one vector."""
    targets = window.basis(inner=True)
    if len(targets) == 1:
        raise ValueError("inner window holds one basis vector; widen it or lower its margin")
    return targets


def check_generation(params: Params, window: Window, seed=None) -> dict:
    """Single basis seed generating the inner window, in three stages.

    Stage 1 uses only level-preserving words and must fill the seed's
    antidiagonal; stage 2 adds E31 and must fill all lower levels; stage 3
    uses the full word list and must fill the whole inner window.  Runs
    are gated on the eight non-integrality conditions of the restriction
    analysis; without them the span arguments are not valid and the check
    refuses.
    """
    refusal, generic = _genericity_gate("generate", params, window, SPANNING_CONDITIONS)
    if refusal is not None:
        return refusal
    _inner_targets(window)
    if seed is None:
        seed = basis_element(params, 0, (0, 0))
    if len(seed.terms) != 1:
        raise ValueError("generation check expects a single basis-vector seed")
    ((sidx, spt),) = seed.terms
    if not window.contains(sidx, spt, inner=True):
        raise ValueError("generation seed must lie in the inner window")
    level = spt[0] + spt[1]
    subchecks = []
    for name, wordnames, on_level in GENERATION_STAGES:
        words = tuple(parse_word(w) for w in wordnames)
        basis, stats = closure(params, [seed], words, window)
        targets = [
            (idx, pt)
            for pt in window.points(inner=True)
            if on_level(pt[0] + pt[1], level)
            for idx in window.indices(inner=True)
        ]
        missed = _missed_targets(basis, targets)
        subchecks.append(
            {
                "stage": name,
                "words": list(wordnames),
                "targets": len(targets),
                "reached": len(targets) - len(missed),
                "missed": _basis_json(missed),
                "closure": stats,
                "ok": not missed,
            }
        )
    verdict = "pass" if subchecks[-1]["ok"] else "fail"
    return _report(
        "generate", params, window, verdict,
        {
            "seed": element_to_json(seed),
            "generic": generic,
            "subchecks": subchecks,
        },
    )


def random_in_box(rnd: random.Random, box_basis, nterms: int, alpha) -> ModuleElement:
    positions = sorted(rnd.sample(range(len(box_basis)), nterms))
    terms = {}
    for pos in positions:
        idx, pt = box_basis[pos]
        num = rnd.randint(-3, 3)
        den = rnd.randint(1, 3)
        terms[(idx, pt)] = Fraction(num if num else 1, den)
    return ModuleElement(alpha, terms)


def _anchor(window: Window) -> tuple:
    """(index, point) of the centre inner basis vector, v_0(0,0) on a
    symmetric window."""
    return (
        (window.i_min + window.i_max) // 2,
        tuple((lo + hi) // 2 for lo, hi in window.r_bounds),
    )


@lru_cache(maxsize=2)
def _anchor_rank(params: Params, bounds: tuple) -> int:
    """Rank of the ``DEFAULT_WORDS`` closure of the anchor at the numeric
    point ``params`` on the outer box ``bounds = (i_min, i_max, r_bounds)``
    (the anchor depends on the box alone, never on the margin); equal
    parameter vectors hash equal, so they share one closure."""
    window = Window(*bounds)
    idx, pt = _anchor(window)
    _, stats = closure(params, [basis_element(params, idx, pt)], DEFAULT_WORDS, window)
    return stats["rank"]


def check_irreducible(
    params: Params,
    window: Window,
    seeds=None,
    random_count: int = 5,
    rng_seed: int = 20260817,
) -> dict:
    """Every seed must generate every inner basis vector.

    Default seeds: each basis vector of the inner window, plus
    ``random_count`` deterministic pseudo-random two-term elements in it
    and as many three-term ones.  An explicit seed list must not be empty.
    Gated on all ten non-integrality conditions.  Every seed is checked
    as ``closure`` checks it before the anchor's closure runs, so a bad
    seed costs no closure.

    Seeds are chained through one anchor, the centre inner basis vector.
    A closure is the smallest window-truncated family of per-point
    subspaces that contains its seeds and is closed under the words, so a
    seed closure W_x that contains the anchor contains the anchor's
    closure W_a.  The rank of W_a is computed once per parameter point and
    window.  When W_a is the whole outer box, every seed closure stops as
    soon as it holds the anchor, and W_x is then the whole box too: its
    subcheck is rank = box size with every target reached, exactly what
    the closure run to exhaustion reports.  A seed that never reaches the
    anchor, or any seed when W_a is smaller than the box, runs its closure
    to exhaustion.  Seed closures process rows nearest the anchor first;
    an exhausted closure's span does not depend on the order, so neither
    do its rank and missed targets (subchecks carry no closure statistics).
    """
    _require_nonnegative(random_count=random_count)
    if seeds is not None and not seeds:
        raise ValueError("irreducible needs at least one seed")
    refusal, generic = _genericity_gate("irreducible", params, window)
    if refusal is not None:
        return refusal
    alpha = params.alpha()
    if seeds is None:
        box_basis = window.basis(inner=True)
        seeds = [basis_element(params, idx, pt) for idx, pt in box_basis]
        rnd = random.Random(rng_seed)
        for nterms in (2, 3):
            if random_count and nterms > len(box_basis):
                raise ValueError(
                    f"seed box has {len(box_basis)} basis vectors, too few for "
                    f"{nterms}-term random seeds"
                )
            for _ in range(random_count):
                seeds.append(random_in_box(rnd, box_basis, nterms, alpha))
    targets = _inner_targets(window)
    for x in seeds:
        _check_seed(x, alpha, window)
    box_size = len(window.basis())
    anchor_rank = _anchor_rank(params, (window.i_min, window.i_max, window.r_bounds))
    stop_at = _anchor(window) if anchor_rank == box_size else None
    subchecks = []
    all_ok = True
    for x in seeds:
        basis, stats = closure(params, [x], DEFAULT_WORDS, window, stop_at=stop_at)
        if stats["exhausted"]:
            missed = _missed_targets(basis, targets)
            rank = stats["rank"]
        else:
            # stopped at the anchor: the closure is the whole outer box
            missed = []
            rank = box_size
        ok = not missed
        all_ok = all_ok and ok
        subchecks.append(
            {
                "seed": element_to_json(x),
                "targets": len(targets),
                "reached": len(targets) - len(missed),
                "missed": _basis_json(missed, limit=5),
                "rank": rank,
                "ok": ok,
            }
        )
    return _report(
        "irreducible", params, window, "pass" if all_ok else "fail",
        {
            "generic": generic,
            "seed_count": len(seeds),
            "subchecks": subchecks,
        },
    )


# -- singular vectors and the degenerate regime ---------------------------


def nullspace(rows, ncols: int) -> list:
    """Exact nullspace basis of a dense matrix given as a list of rows.

    The rows are reduced in one ``SubspaceBasis``; each free column of the
    resulting echelon form gives one kernel vector, with ``Fraction``
    entries read off the integer rows.
    """
    sb = SubspaceBasis()
    for r in rows:
        sb.insert(None, dict(enumerate(r)))
    echelon = sb.by_point.get(None, [])
    pivots = {p for p, _ in echelon}
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for p, row in echelon:
            if fc in row:
                vec[p] = Fraction(-row[fc], row[p])
        out.append(vec)
    return out


SINGULAR_OPS = ((3, 1), (3, 2))


def find_singular_vectors(params: Params, window: Window) -> list:
    """Joint kernel of E31 and E32 on each lattice point of the window.

    Each has one table entry, at index offset 0, so each is diagonal on a
    point's basis, with factor (a1-b-l) + (r1-idx) for E31 and
    (a2-b+l) + (r2+idx) for E32 on v_idx(r1, r2).  The joint kernel at a
    point is spanned by the v_idx that neither ``act_gen`` image of the
    point's basis sum contains.  That premise is asserted once per call,
    and both operators must kill every kernel vector through ``act_gen``.
    """
    if not params.is_numeric():
        raise ValueError("find_singular_vectors needs numeric parameters")
    for g in SINGULAR_OPS:
        if [off for off, _ in GENERATORS[g][3]] != [0]:
            raise AssertionError(f"{NAME_OF[g]} is not diagonal on a point's basis")
    alpha = params.alpha()
    indices = window.indices()
    found = []
    for pt in window.points():
        whole = ModuleElement(alpha, {(idx, pt): 1 for idx in indices})
        hit = {idx for (i, j) in SINGULAR_OPS for idx, _ in act_gen(params, i, j, whole).terms}
        for idx in indices:
            if idx not in hit:
                x = basis_element(params, idx, pt)
                if any(not act_gen(params, i, j, x).is_zero() for (i, j) in SINGULAR_OPS):
                    raise AssertionError("kernel certification failed")
                found.append(x)
    return found


def check_degenerate_reducibility(params: Params, window: Window) -> dict:
    """Submodule generated by all singular vectors must miss inner basis vectors.

    Preconditions: numeric parameters with both a1 - b - l and a2 - b + l
    integral (the regime where singular vectors can exist at all); refused
    otherwise.  Fails honestly when the window contains no singular vector
    or when the generated submodule already covers the inner window.  An
    inner window of one basis vector is refused with a ``ValueError``.
    """
    if not params.is_numeric():
        return _report(
            "degenerate", params, window, "refused",
            {"reason": "symbolic parameters: integrality is undecidable"},
        )
    integrality = {
        c["name"]: c
        for c in check_generic(params)["conditions"]
        if c["name"] in ("a1-b-l", "a2-b+l")
    }
    nonint = [name for name, c in integrality.items() if c["holds"]]
    if nonint:
        return _report(
            "degenerate", params, window, "refused",
            {"reason": f"degenerate regime requires {' and '.join(nonint)} integral"},
        )
    targets = _inner_targets(window)
    singular = find_singular_vectors(params, window)
    body = {
        "integrality": {name: c["value"] for name, c in integrality.items()},
        "singular_count": len(singular),
        "singular_vectors": [element_to_json(x) for x in singular[:10]],
    }
    if not singular:
        body["reason"] = "no singular vector inside the window"
        return _report("degenerate", params, window, "fail", body)
    basis, stats = closure(params, singular, DEFAULT_WORDS, window)
    missed = _missed_targets(basis, targets)
    body.update(
        {
            "closure": stats,
            "targets": len(targets),
            "reached": len(targets) - len(missed),
            "missed_count": len(missed),
            "witness": _basis_json(missed, limit=1)[0] if missed else None,
            "proper": bool(missed),
        }
    )
    return _report("degenerate", params, window, "pass" if missed else "fail", body)


# -- recursion compatibility oracle ---------------------------------------


def _const_shift(f: Scalar, ref: Scalar) -> Optional[Fraction]:
    """``f - ref`` as a Fraction when it is constant, else None."""
    diff = f - ref
    return diff.const_value() if diff.is_const() else None


# rho_a[0] and rho_b[0], the E31/E32 ratio normalisations, are x/x: the
# pair formulas build them in, so the printed field cannot be false
NORMALIZATION_OK = True


def _monic_obstruction(num, den) -> Scalar:
    """num - den of a coprime pair over a monic denominator: the
    pair keeps its integer content in den (c/(2b) is (c, 2b)), so both are
    divided by den's leading coefficient, giving c/2 - b, not c - 2b."""
    return Scalar(num - den, den.leading_coeff())


def recursion_factorization_oracle(s_values: Sequence[int]) -> dict:
    """Obstruction polynomial for the two-route coefficient recursion.

    For truncation length s, the raising operator T_A and the lowering
    operator T_B each force a value of the neighbour ratio a_{j-1}/a_j
    inside an invariant line of the index window; both are derived here
    from the action alone, applying each operator once to each of
    v_0 .. v_s; T_B and the E31/E32 coefficients do not depend on s, so
    one call shares them between its truncation lengths.  From their
    coefficients c1a, c2a, c1b, c2b and the E31/E32 factors g, h, all
    polynomials, each ratio is one pair, with the rho normalisation (1 at
    index 0) built in: R_A = a/(g[j,1] h[0,0] c2a[j]) and
    R_B = c2b[j-1] g[s,0] h[j-1,1]/b, where
    a = c1a[0] g[0,1] h[j,0] - c1a[j] g[j,1] h[0,0] and
    b = c1b[s] g[j-1,0] h[s,1] - c1b[j-1] g[s,0] h[j-1,1]; a zero g, h,
    c2a, c2b or b is refused.  Every denominator factor is linear, and
    ``linear_quotient`` divides each one out of a or b where it divides
    exactly, before any product is formed.  Compatibility is measured by
    N = num - den of that coprime R_A/R_B, with a monic denominator, which
    must be free of the symbolic index and of j, and factors into two
    linear forms.  The factors are compared against
    the reference forms (c + 3b - s - 2) and (c - 3b + s + 3); each
    comparison is reported with its constant offset instead of being
    asserted, so a discrepancy in either reference is flagged rather than
    hidden.
    """
    params = Params.symbolic(with_iota_index=True)
    up, down = (1, -1), (-1, 1)  # where T_A and T_B take the origin
    results = []
    flags = []
    t_b_of, g, h = {}, {}, {}  # free of s: filled for the first s needing them
    s_values = truncation_lengths(s_values)
    for s in s_values:
        js = range(s + 1)
        t_a = [raising_operator(params, s, basis_element(params, j, (0, 0))) for j in js]
        for j in js:
            if j not in t_b_of:
                t_b_of[j] = lowering_operator(params, basis_element(params, j, (0, 0)))
        t_b = [t_b_of[j] for j in js]
        c1a = [t_a[j].coefficient(j, up) for j in js]
        c2a = {j: t_a[j - 1].coefficient(j, up) for j in js[1:]}
        top_kill = coeff_is_zero(t_a[s].coefficient(s + 1, up))
        c1b = [t_b[j].coefficient(j, down) for j in js]
        c2b = {j: t_b[j + 1].coefficient(j, down) for j in js[:-1]}
        bottom_kill = coeff_is_zero(t_b[0].coefficient(-1, down))
        # E31 on v_j(r, 0) and E32 on v_j(0, r) keep the index j
        for j, r in iproduct(js, (0, 1)):
            if (j, r) in g:
                continue
            e31 = act_gen(params, 3, 1, basis_element(params, j, (r, 0)))
            e32 = act_gen(params, 3, 2, basis_element(params, j, (0, r)))
            g[j, r] = e31.coefficient(j, (r - 1, 0))
            h[j, r] = e32.coefficient(j, (0, r - 1))
        if not all([*g.values(), *h.values(), *c2a.values(), *c2b.values()]):
            raise ZeroDivisionError("factorization: an E31/E32 factor or T_A/T_B divisor is 0")
        obstructions = []
        for j in js[1:]:
            a = c1a[0] * g[0, 1] * h[j, 0] - c1a[j] * g[j, 1] * h[0, 0]
            b = c1b[s] * g[j - 1, 0] * h[s, 1] - c1b[j - 1] * g[s, 0] * h[j - 1, 1]
            if not b:
                raise ZeroDivisionError(f"factorization: R_B's denominator is 0 at s={s}, j={j}")
            den = (
                (f"g[{j},1]", g[j, 1]), ("h[0,0]", h[0, 0]), (f"c2a[{j}]", c2a[j]),
                (f"c2b[{j - 1}]", c2b[j - 1]), (f"g[{s},0]", g[s, 0]),
                (f"h[{j - 1},1]", h[j - 1, 1]),
            )
            obstructions.append(_monic_obstruction(*linear_quotient((a, b), den)))
        n_poly = obstructions[0]
        index_free = all(o == n_poly for o in obstructions)
        iota_free = n_poly.num.degree_in("iota") == 0
        unit, factors = factor_polynomial(n_poly)
        mult_back_ok = len(factors) == 2 and all(m == 1 for _, m in factors)
        derived = [f for f, _ in factors]

        def compare(ref):
            shifts = [(f, _const_shift(f, ref)) for f in derived]
            f, off = next(((f, off) for f, off in shifts if off is not None), (None, None))
            return {
                "reference": scalar_to_text(ref),
                "derived": scalar_to_text(f) if f is not None else None,
                "offset": str(off) if off is not None else None,
                "matches": off == 0,
            }

        first = compare(Scalar.sym("c") + 3 * Scalar.sym("b") - (s + 2))
        second = compare(Scalar.sym("c") - 3 * Scalar.sym("b") + (s + 3))
        entry = {
            "s": s,
            "top_kill": top_kill,
            "bottom_kill": bottom_kill,
            "normalization_ok": NORMALIZATION_OK,
            "index_free": index_free,
            "iota_free": iota_free,
            "obstruction": scalar_to_text(n_poly),
            "unit": scalar_to_text(unit),
            "derived_factors": [scalar_to_text(f) for f in derived],
            "first_factor": first,
            "second_factor": second,
        }
        entry["ok"] = (
            top_kill
            and bottom_kill
            and index_free
            and iota_free
            and mult_back_ok
            and first["matches"]
            and second["derived"] is not None
        )
        if second["offset"] not in (None, "0"):
            flags.append(
                f"s={s}: second factor is offset {second['offset']} from its reference form"
            )
        if second["derived"] is None:
            flags.append(f"s={s}: no derived factor is a constant shift of the second reference")
        results.append(entry)
    all_ok = all(e["ok"] for e in results)
    return _report(
        "factorization", params, None, "pass" if all_ok else "fail",
        {"s_values": s_values, "results": results, "flags": flags},
    )


# -- index-leakage obstruction and centrality ------------------------------

GT_OBSTRUCTION_OPS = (("E12*E21", 1), ("E23*E32", -1), ("E13*E31", 1))


def _leakage_split(letters, path) -> tuple:
    """The ``iota_split`` of the product of the forms on ``path``, a
    ``word_path`` of ``letters``, each read at the basis vector its letter
    acts on, starting from v_0(0,0), at the iota parameters."""
    lam, b, c, a1, a2 = Params.symbolic(with_iota_index=True)
    idx, r1, r2, forms = 0, 0, 0, []
    for g, (off, form) in zip(reversed(letters), path):
        forms.append((form_value(form, (lam + idx, b, c, a1 + r1, a2 + r2)), 1))
        s1, s2 = word_shift((g,))
        idx, r1, r2 = idx + off, r1 + s1, r2 + s2
    return iota_split(forms)


def gt_obstruction(params: Params, window: Window) -> dict:
    """The three index-preserving composites leak into a neighbour index.

    On each basis vector the composite keeps the lattice point, moves the
    index by at most one, and the extreme component carries a coefficient
    that splits into index-linear forms, each a constant shift of one of
    the ten non-integrality conditions.  So under those conditions the
    leakage never vanishes: no basis of the window can diagonalize all
    three composites simultaneously.  The genericity gate refuses
    symbolic parameters and a point where one of the ten conditions fails.

    Every image is an int row of ``sl3.row_action``, bound once per call
    at ``params``, L**2 times the image.  The split is read off the
    generator table, with no factorization: exactly one ``word_path``
    reaches the extreme index, so the coefficient is the product of that
    path's forms.  It is formed once per word at v_0(0,0), certified there
    against ``act_word``'s coefficient at the iota parameters, and printed
    at v_0(r) as its image under ``sl3``'s lattice covariance sigma; a
    word with no path, or with more than one, gets no split and fails.
    """
    refusal, _ = _genericity_gate("gt-obstruction", params, window)
    if refusal is not None:
        return refusal
    apply, sym = row_action(params), Params.symbolic(with_iota_index=True)
    cond_scalars = condition_values(Params.symbolic())
    ops = []
    for word_text, direction in GT_OBSTRUCTION_OPS:
        letters = parse_word(word_text)
        shifted = word_shift(letters) != (0, 0)
        triangular_ok = extreme_ok = True
        first_failure = None
        basis = list(iproduct(window.indices(), window.points()))
        for idx, pt in basis:
            # L**2 times the image of v_idx(pt), at pt + word_shift(letters)
            row = apply(letters, {idx: 1}, pt)
            bad = None
            if row and shifted:
                bad = "moved lattice point"
            elif any(abs(k - idx) > 1 for k in row):
                bad = "index moved by more than one"
            if bad is not None:
                triangular_ok = False
            elif not row.get(idx + direction):
                extreme_ok = False
                bad = "extreme component vanished"
            if bad is not None and first_failure is None:
                first_failure = {"index": idx, "r": list(pt), "problem": bad}
        factor_reports = []
        path = word_path(letters, direction)
        factors_ok = path is not None
        if path is not None:
            unit, pairs = _leakage_split(letters, path)
            split = prod((zeta + sign * IOTA for zeta, sign in pairs), start=unit)
            # certified against the image of v_0(0,0), where the path lands
            origin = act_word(sym, letters, basis_element(sym, 0, (0, 0)))
            if split != origin.coefficient(direction, word_shift(letters)):
                raise ValueError("leakage split certification failed")
        for pt in window.points():
            if path is None:
                factor_reports.append({"r": list(pt), "factors": None})
                continue
            # the split at v_0(pt) is sigma's image: signs carry over, and so
            # does the order of zetas with unlike non-constant monomials
            fr, shifts = [], {"a1": pt[0], "a2": pt[1]}
            for zeta, sign in pairs:
                zeta, covered = shift_symbols(zeta, shifts), None
                for cname, sigma in iproduct(CONDITION_NAMES, (1, -1)):
                    shift = _const_shift(zeta, cond_scalars[cname] * sigma)
                    if shift is not None and shift.denominator == 1:
                        covered = {"condition": cname, "sign": sigma, "shift": str(shift)}
                        break
                if covered is None:
                    factors_ok = False
                fr.append(
                    {"zeta": scalar_to_text(zeta), "iota_sign": sign, "covered_by": covered}
                )
            moved_unit = scalar_to_text(shift_symbols(unit, shifts))
            factor_reports.append({"r": list(pt), "unit": moved_unit, "factors": fr})
        ops.append(
            {
                "word": word_text,
                "extreme_offset": direction,
                "checked": len(basis),
                "triangular_ok": triangular_ok,
                "extreme_nonzero_ok": extreme_ok,
                "first_failure": first_failure,
                "factors_covered": factors_ok,
                "factor_analysis": factor_reports,
                "ok": triangular_ok and extreme_ok and factors_ok,
            }
        )
    return _report(
        "gt-obstruction", params, window, "pass" if all(op["ok"] for op in ops) else "fail",
        {"operators": ops},
    )


def central_words(m: int, k: int) -> list:
    words = []
    for tup in iproduct(range(1, m + 1), repeat=k):
        words.append(tuple((tup[t], tup[(t + 1) % k]) for t in range(k)))
    return words


def gt_central_check(params: Params, window: Window, m: int, k: int, controls=()) -> dict:
    """c_{m,k}, the sum of cyclic length-k words in E_pq with p,q <= m,
    commutes with every E_pq, p,q <= m.

    All intermediate supports must stay inside the outer window or the
    verdict is "error" (the window cannot absorb the word).  ``controls``
    lists generators outside the range expected NOT to commute; each must
    produce a nonzero residual somewhere, guarding against vacuous zeros.
    Controls run at every inner basis vector and their supports count
    toward absorption.  A control may also be a generator, and is then
    checked as one too.
    For m = 3, k = 1 the word sum is the trace, which must act as zero.
    m outside 1..3, k < 1 (no word, or c the identity) or a control
    outside the nine generators is refused.
    The residuals are one family of ``sl3.covariant_sweep``: c is applied
    letter by letter through its bound generators, each scaled by L, so a
    residual is divided by L**(k + 1).  At symbolic parameters every
    count, support and residual is derived from v_0(0,0); only the
    printed failures, at most five ``sl3.sweep_failures`` records, are
    moved to their keys.
    """
    if not (1 <= m <= 3 and k >= 1):
        raise ValueError(f"central words need 1 <= m <= 3 and k >= 1, got m={m}, k={k}")
    check_letters(controls)
    words = central_words(m, k)
    gens = [(p, q) for p in range(1, m + 1) for q in range(1, m + 1)]
    seen = set()
    nonzero = set()
    trace_zero = True if (m, k) == (3, 1) else None

    def apply_c(ops, x):
        # letter by letter, so every intermediate support is seen
        total = ModuleElement.zero(x.alpha)
        for letters in words:
            y = x
            for g in reversed(letters):
                y = ops[g](y)
                seen.update(y.terms)
            total = total + y
        return total

    def residuals(ops, scale, x):
        # c(E_g x) - E_g(c x) for the generators and the controls
        nonlocal trace_zero
        cx = apply_c(ops, x)
        trace_zero = trace_zero and cx.is_zero()
        formed = {}
        for g in dict.fromkeys([*gens, *controls]):
            gx = ops[g](x)
            seen.update(gx.terms)
            formed[g] = apply_c(ops, gx) - ops[g](cx)
        nonzero.update(g for g in controls if not formed[g].is_zero())
        return {g: _unscaled(formed[g], scale ** (k + 1)) for g in gens}

    checked, found, moves = covariant_sweep(params, window.basis(inner=True), residuals)
    absorbed = all(window.contains(*moved(key, *move)) for move in moves for key in seen)
    control_results = [{"generator": NAME_OF[g], "nonzero": g in nonzero} for g in controls]
    failures = sweep_failures(found[:5], "generator")
    if not absorbed:
        verdict = "error"
    else:
        ok = not failures and (trace_zero is not False) and all(
            c["nonzero"] for c in control_results
        )
        verdict = "pass" if ok else "fail"
    return _report(
        "gt-central", params, window, verdict,
        {
            "m": m,
            "k": k,
            "word_count": len(words),
            "commutator_checks": checked,
            "absorbed": absorbed,
            "failures": failures,
            "failure_count": len(found),
            "trace_zero": trace_zero,
            "controls": control_results,
        },
    )


# -- whole-algebra consistency runners ------------------------------------

# twist (alpha_1, alpha_2, alpha_3) of the rank-n runners; rank n uses the
# first n entries
TWIST = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))


def generic_report(params: Params) -> dict:
    generic = check_generic(params)
    if not generic["decidable"]:
        verdict = "refused"
        reason = "symbolic parameters: conditions are undecidable"
    else:
        verdict = "pass" if generic["irreducibility_ok"] else "fail"
        reason = None
    body = {"generic": generic}
    if reason:
        body["reason"] = reason
    return _report("check-generic", params, None, verdict, body)


def act_report(params: Params, word_text: str, x: ModuleElement) -> dict:
    letters = parse_word(word_text)
    y = act_word(params, letters, x)
    return _report(
        "act", params, None, "pass",
        {"word": word_text, "input": element_to_json(x), "result": element_to_json(y)},
    )


def proof_report(s_values: Sequence[int]) -> dict:
    body = proof_identity_report(s_values)
    verdict = "pass" if body.pop("ok") else "fail"
    return _report(
        "proof-identities", Params.symbolic(with_iota_index=True), None, verdict, body
    )


def bracket_report(params: Params, window: Window) -> dict:
    points = window.points()
    indices = window.indices()
    body = {}
    ok = True
    for name, verify in (("sl3", verify_sl3_brackets), ("embedding", verify_embedding)):
        res = verify(params, points, indices)
        body[name] = {k: v for k, v in res.items() if k != "failures"}
        body[name]["failures"] = res["failures"][:5]
        ok = ok and res["ok"]
    return _report("brackets", params, window, "pass" if ok else "fail", body)


@cache
def _witt_inputs() -> tuple:
    """(gl bracket results, trial setups) of ``witt_consistency_report``,
    built once per process: neither depends on the report's arguments."""
    vals = DEFAULT_VALUES
    cusp = CuspidalGl2(vals["l"], vals["b"], vals["c"])
    gl_results = [("cuspidal gl2", verify_gl_brackets(cusp))]
    setups = [("cuspidal gl2", 2, cusp, TWIST[:2])]
    for n in (2, 3):
        for kk in range(n + 1):
            name = f"wedge^{kk} of gl{n}"
            mod = exterior_power(n, kk)
            gl_results.append((name, verify_gl_brackets(mod)))
            if 0 < kk:
                setups.append((name, n, mod, TWIST[:n]))
    return tuple(gl_results), tuple(setups)


def _randbelow(getrandbits, k: int) -> int:
    """A uniform int in [0, k), k > 0, from ``getrandbits`` of one
    ``random.Random``: k.bit_length() bits at a time until the value is
    below k.  This is CPython's ``Random._randbelow_with_getrandbits``,
    which ``randint(a, a + k - 1)`` reaches through ``randrange``, so
    a + _randbelow(rnd.getrandbits, k) draws what that ``randint`` draws,
    without its three Python frames per draw."""
    bits = k.bit_length()
    v = getrandbits(bits)
    while v >= k:
        v = getrandbits(bits)
    return v


def witt_consistency_report(
    rng_seed: int = 20260817, bracket_trials: int = 200, jacobi_trials: int = 50
) -> dict:
    """Witt bracket law and Jacobi identity on random generators.

    Runs over the cuspidal rank-two input and over wedge-power inputs in
    ranks two and three; directions and shifts have entries in [-2, 2].
    The underlying gl bracket laws are checked exhaustively first; a
    failing one prints its first failure, the generator pair, basis index
    and residual that ``glmod.bracket_residual`` replays.  At least one
    bracket or Jacobi trial is required.  The first failing bracket trial
    prints u, r, v, s, its input by its ``gl_bracket_checks`` name and
    x's basis index and lattice point: all that ``witt_bracket_residual``
    needs to replay it.  The first failing Jacobi trial, only when there
    is one, prints its three generators' u and r, its input and x the
    same way, for ``jacobi_residual``.
    """
    _require_nonnegative(bracket_trials=bracket_trials, jacobi_trials=jacobi_trials)
    if bracket_trials == 0 and jacobi_trials == 0:
        raise ValueError("witt needs at least one bracket or Jacobi trial")
    getrandbits = random.Random(rng_seed).getrandbits
    gl_results, setups = _witt_inputs()
    gl_checks = [
        {"module": name, "ok": res["ok"], "checked_indices": res["checked_indices"]}
        | ({} if res["ok"] else {"first_failure": deepcopy(res["failures"][0])})
        for name, res in gl_results
    ]

    def rand_vec(n):
        # entries in [-2, 2], as randint(-2, 2) draws them
        return tuple([_randbelow(getrandbits, 5) - 2 for _ in range(n)])

    def rand_basis(n, mod, alpha):
        if mod.kind == "cuspidal":
            idx = _randbelow(getrandbits, 5) - 2
        else:
            idx = _randbelow(getrandbits, mod.dim)
        m = rand_vec(n)
        return ModuleElement.basis(alpha, idx, m)

    def basis_json(mod, x):
        [(idx, m)] = x.terms
        return {"index": mod.label(idx), "m": list(m)}

    bracket_failures = 0
    first_bracket_failure = None
    for t in range(bracket_trials):
        name, n, mod, alpha = setups[t % len(setups)]
        u, r = rand_vec(n), rand_vec(n)
        v, s = rand_vec(n), rand_vec(n)
        x = rand_basis(n, mod, alpha)
        res = witt_bracket_residual(u, r, v, s, x, mod)
        if not res.is_zero():
            bracket_failures += 1
            if first_bracket_failure is None:
                first_bracket_failure = {
                    "u": list(u), "r": list(r), "v": list(v), "s": list(s),
                    "module": name, "basis": basis_json(mod, x),
                    "residual": element_to_json(res, mod),
                }
    jacobi_failures = 0
    first_jacobi_failure = None
    for t in range(jacobi_trials):
        name, n, mod, alpha = setups[t % len(setups)]
        gens = [WittGenerator(rand_vec(n), rand_vec(n)) for _ in range(3)]
        x = rand_basis(n, mod, alpha)
        res = jacobi_residual(gens, x, mod)
        if not res.is_zero():
            jacobi_failures += 1
            if first_jacobi_failure is None:
                first_jacobi_failure = {
                    "generators": [{"u": list(D.u), "r": list(D.r)} for D in gens],
                    "module": name, "basis": basis_json(mod, x),
                    "residual": element_to_json(res, mod),
                }
    ok = (
        all(g["ok"] for g in gl_checks)
        and bracket_failures == 0
        and jacobi_failures == 0
    )
    body = {
        "gl_bracket_checks": gl_checks,
        "bracket_trials": bracket_trials,
        "bracket_failures": bracket_failures,
        "first_bracket_failure": first_bracket_failure,
        "jacobi_trials": jacobi_trials,
        "jacobi_failures": jacobi_failures,
        "rng_seed": rng_seed,
    }
    if first_jacobi_failure is not None:
        body["first_jacobi_failure"] = first_jacobi_failure
    return _report("witt", Params.numeric(), None, "pass" if ok else "fail", body)


def _failing_directions(residuals, directions, box, r) -> int:
    """How many (u, m), u in ``directions`` and m in ``box``, fail, from
    the box-wide residual of each unit direction: the residual of t^m is
    the part at m + r, so u fails at the support of sum_k u_k residuals[k].
    The sums are formed only when some unit residual is nonzero; a term
    outside box + r, which no m owns, is refused."""
    if all(res.is_zero() for res in residuals):
        return 0
    shifted = {tuple(map(operator.add, m, r)) for m in box}
    for t in set().union(*(res.support_points() for res in residuals)) - shifted:
        raise ValueError(f"residual term at {t} is outside the box shifted by {r}")
    zero = ModuleElement.zero(residuals[0].alpha)
    return sum(
        len(sum((res.scale(uk) for uk, res in zip(u, residuals) if uk), zero).support_points())
        for u in directions
    )


def derham_report(n: int = 2, box_bound: int = 2, uv_bound: int = 2) -> dict:
    """d squared = 0, d intertwines the Witt action, and the image of d
    on functions is carried into itself.

    d squared = 0 is checked on the box [-box_bound, box_bound]^n.  The
    intertwining check runs over every direction/shift pair with entries
    in [-uv_bound, uv_bound] applied to the functions t^m, m in [-1, 1]^n.
    The image check verifies that D(u, r) d(t^m) = (u|m + alpha) d(t^(m+r))
    for u != 0, which follows from d intertwining the action and
    D(u, r) t^m = (u|m + alpha) t^(m+r).

    Each operator is applied once per box, to the sum of its forms: d
    keeps every term's point and D(u, r) moves it by r, so a result's
    part at m (m + r after D) is that of the form at m alone, and a
    check fails at each point of its support.  A residual term outside
    the box shifted by r is refused.  The intertwining and image
    residuals share moved = D d(whole), whole the sum of t^m.

    Both residuals are linear in u: ``witt_operator`` builds D(u, r) as
    sum_k u_k D(e_k, r), d does not read u, and (u|m + alpha) is
    sum_k u_k (m_k + alpha_k).  So per shift only the unit directions are
    bound and checked, and each u's residual is their u-weighted sum.

    Every check runs on ints, with D and d scaled by L from
    ``tensor._sweep_scale(alpha, wedges)``, the lcm of the twist's
    denominators: dd becomes L**2 dd, and the image check compares
    (LD)(Ld)(t^m) with L(u|m + alpha) (Ld)(t^(m+r)).
    """
    if n not in (2, 3):
        raise ValueError("de Rham runner supports rank 2 or 3")
    _require_nonnegative(box_bound=box_bound, uv_bound=uv_bound)
    if uv_bound == 0:
        raise ValueError("uv_bound must be positive: at 0 every D(u, r) is D(0, 0) = 0")
    alpha = TWIST[:n]
    wedges = [exterior_power(n, kk) for kk in range(n + 1)]
    scale = _sweep_scale(alpha, wedges)
    twist = tuple(scaled_int(a, scale) for a in alpha)  # L alpha
    box = list(iproduct(range(-box_bound, box_bound + 1), repeat=n))
    d = [de_rham_operator(wedges, kk, alpha, scale) for kk in range(n)]  # d from degree kk

    dd_failures = 0
    for kk in range(n - 1):
        for idx in range(wedges[kk].dim):
            twice = d[kk + 1](d[kk](ModuleElement(alpha, {(idx, m): 1 for m in box})))
            dd_failures += len(twice.support_points())
    dd_checked = len(box) * sum(wedges[kk].dim for kk in range(n - 1))

    directions = list(iproduct(range(-uv_bound, uv_bound + 1), repeat=n))
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    small_box = list(iproduct(range(-1, 2), repeat=n))
    whole = ModuleElement(alpha, {(0, m): 1 for m in small_box})  # wedge^0 has one basis vector
    d_whole = d[0](whole)

    inter_failures = 0
    image_failures = 0
    for r in directions:
        residuals, images = [], []
        for k, e in enumerate(units):
            on_functions, on_forms = (
                witt_operator(WittGenerator(e, r), wedges[kk], alpha, scale) for kk in (0, 1)
            )
            moved = on_forms(d_whole)
            # d(D x) - D(d x), L**2 times the true residual
            residuals.append(d[0](on_functions(whole)) - moved)
            # L D(e_k, r) whole by the formula: sum_m L(m_k + alpha_k) t^(m+r)
            target = ModuleElement(alpha, {
                (0, tuple(map(operator.add, m, r))): twist[k] + scale * m[k] for m in small_box
            })
            images.append(moved - d[0](target))
        inter_failures += _failing_directions(residuals, directions, small_box, r)
        image_failures += _failing_directions(images, directions, small_box, r)

    ok = dd_failures == 0 and inter_failures == 0 and image_failures == 0
    params = Params.numeric()
    return _report(
        "derham", params, None, "pass" if ok else "fail",
        {
            "n": n,
            "alpha": [str(a) for a in alpha],
            "dd_checked": dd_checked,
            "dd_failures": dd_failures,
            "intertwining_pairs": len(directions) ** 2,
            "intertwining_checked": len(directions) ** 2 * len(small_box),
            "intertwining_failures": inter_failures,
            "image_checked": (len(directions) - 1) * len(directions) * len(small_box),
            "image_failures": image_failures,
        },
    )
