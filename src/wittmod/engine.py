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

import random
from collections import deque
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .glmod import CuspidalGl2, exterior_power, verify_gl_brackets
from .scalars import (
    Scalar,
    coeff_is_zero,
    coeff_to_text,
    factor_linear_in_iota,
    factor_polynomial,
    scalar_to_text,
)
from .sl3 import (
    CONDITION_NAMES,
    DEFAULT_VALUES,
    GEN_SHIFTS,
    SPANNING_CONDITIONS,
    NAME_OF,
    Params,
    act_gen,
    act_word,
    act_word_stepwise,
    basis_element,
    check_generic,
    condition_value,
    parse_word,
    verify_embedding,
    verify_sl3_brackets,
)
from .tensor import (
    ModuleElement,
    WittGenerator,
    act_witt,
    de_rham_differential,
    element_to_json,
    jacobi_residual,
    witt_bracket_residual,
)


class Window:
    """Index range and lattice box with an inner margin.

    Closure rows live on the outer region; conclusions are read off the
    inner region, ``margin`` steps away from every outer face, so edge
    truncation cannot reach them.
    """

    __slots__ = ("i_min", "i_max", "r_bounds", "margin")

    def __init__(self, i_min: int, i_max: int, r_bounds, margin: int = 0):
        self.i_min = int(i_min)
        self.i_max = int(i_max)
        self.r_bounds = tuple((int(lo), int(hi)) for lo, hi in r_bounds)
        self.margin = int(margin)
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

    def contains_index(self, idx: int, inner: bool = False) -> bool:
        m = self.margin if inner else 0
        return self.i_min + m <= idx <= self.i_max - m

    def contains_point(self, pt, inner: bool = False) -> bool:
        m = self.margin if inner else 0
        return all(
            lo + m <= x <= hi - m for x, (lo, hi) in zip(pt, self.r_bounds)
        ) and len(pt) == len(self.r_bounds)

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


def _row_sub(row: dict, factor, other: dict) -> dict:
    out = dict(row)
    for k, v in other.items():
        s = out.get(k, 0) - factor * v
        if coeff_is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


class SubspaceBasis:
    """Reduced row-echelon bases, one per lattice point.

    Rows are kept fully back-substituted with pivot coefficient 1 and the
    pivot at the lowest index, so the basis of a given subspace is unique
    and reports built from it are reproducible byte for byte.
    """

    def __init__(self):
        self.by_point = {}

    def reduce(self, pt, row: dict) -> dict:
        out = {k: v for k, v in row.items() if not coeff_is_zero(v)}
        for pivot, r in self.by_point.get(pt, []):
            cf = out.get(pivot)
            if cf is not None:
                out = _row_sub(out, cf, r)
        return out

    def insert(self, pt, row: dict) -> Optional[dict]:
        """Add a vector; returns its canonical new row, or None if dependent."""
        red = self.reduce(pt, row)
        if not red:
            return None
        pivot = min(red)
        pv = red[pivot]
        red = {k: v / pv for k, v in red.items()}
        rows = self.by_point.setdefault(pt, [])
        for t, (p, r) in enumerate(rows):
            cf = r.get(pivot)
            if cf is not None and not coeff_is_zero(cf):
                rows[t] = (p, _row_sub(r, cf, red))
        pos = sum(1 for p, _ in rows if p < pivot)
        rows.insert(pos, (pivot, red))
        return red

    def contains(self, pt, row: dict) -> bool:
        return not self.reduce(pt, row)

    def contains_basis(self, pt, idx: int) -> bool:
        return self.contains(pt, {idx: Fraction(1)})

    def rank(self, pt) -> int:
        return len(self.by_point.get(pt, []))

    def total_rank(self) -> int:
        return sum(len(rows) for rows in self.by_point.values())

    def points(self) -> list:
        return sorted(self.by_point)

    def to_json(self) -> dict:
        out = {}
        for pt in self.points():
            out[",".join(str(x) for x in pt)] = [
                [{"index": k, "coeff": coeff_to_text(row[k])} for k in sorted(row)]
                for _, row in self.by_point[pt]
            ]
        return out


DEFAULT_WORD_NAMES = (
    "E11", "E12", "E13", "E21", "E22", "E23", "E31", "E32", "E33",
    "E13*E32", "E23*E31",
)
DEFAULT_WORDS = tuple(parse_word(w) for w in DEFAULT_WORD_NAMES)


def closure(params: Params, seeds, words, window: Window):
    """Deterministic window-truncated closure of the span of the seeds.

    Seeds are decomposed per lattice point before insertion: the diagonal
    generators separate lattice points (their eigenvalues differ by
    nonzero integers across points), so a submodule containing an element
    contains each of its per-point components.  Images landing outside
    the outer lattice box are discarded and indices beyond the index
    range are dropped; the margin keeps such edge effects away from any
    inner-window conclusion.
    """
    alpha = params.alpha()
    basis = SubspaceBasis()
    queue = deque()
    for x in seeds:
        if x.is_zero():
            raise ValueError("zero seed")
        if tuple(x.alpha) != tuple(alpha):
            raise ValueError("seed twist does not match parameters")
        for (idx, pt) in x.terms:
            if not (window.contains_index(idx) and window.contains_point(pt)):
                raise ValueError(
                    f"seed support outside the window: index {idx} at {pt}"
                )
        for pt in sorted(x.support_points()):
            row = {i: cf for (i, p), cf in x.terms.items() if p == pt}
            ins = basis.insert(pt, row)
            if ins is not None:
                queue.append((pt, ins))
    rounds = 0
    processed = 0
    while queue:
        rounds += 1
        batch = list(queue)
        queue.clear()
        for pt, row in batch:
            processed += 1
            x = ModuleElement(alpha, {(i, pt): cf for i, cf in row.items()})
            for letters in words:
                y = act_word(params, letters, x)
                if y.is_zero():
                    continue
                for tpt in sorted(y.support_points()):
                    if not window.contains_point(tpt):
                        continue
                    trow = {
                        i: cf
                        for (i, p), cf in y.terms.items()
                        if p == tpt and window.contains_index(i)
                    }
                    if not trow:
                        continue
                    ins = basis.insert(tpt, trow)
                    if ins is not None:
                        queue.append((tpt, ins))
    stats = {
        "rounds": rounds,
        "rows_processed": processed,
        "rank": basis.total_rank(),
        "exhausted": not queue,
    }
    return basis, stats


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


def _missed_targets(basis: SubspaceBasis, targets) -> list:
    out = []
    for idx, pt in targets:
        if not basis.contains_basis(pt, idx):
            out.append((idx, pt))
    return out


def _basis_json(pairs, limit=10) -> list:
    return [{"index": idx, "r": list(pt)} for idx, pt in pairs[:limit]]


GENERATION_STAGES = (
    ("antidiagonal", ("E12", "E13*E32", "E21", "E23*E31")),
    ("lower-levels", ("E12", "E13*E32", "E21", "E23*E31", "E31")),
    ("full", DEFAULT_WORD_NAMES),
)


def check_generation(params: Params, window: Window, seed=None) -> dict:
    """Single basis seed generating the inner window, in three stages.

    Stage 1 uses only level-preserving words and must fill the seed's
    antidiagonal; stage 2 adds E31 and must fill all lower levels; stage 3
    uses the full word list and must fill the whole inner window.  Runs
    are gated on the eight non-integrality conditions of the restriction
    analysis; without them the span arguments are not valid and the check
    refuses.
    """
    if not params.is_numeric():
        return _report(
            "generate", params, window, "refused",
            {"reason": "symbolic parameters: genericity is undecidable"},
        )
    greport = check_generic(params)
    viol = greport.first_violation(SPANNING_CONDITIONS)
    if viol is not None:
        return _report(
            "generate", params, window, "refused",
            {"reason": f"genericity condition {viol} fails", "generic": greport.to_json()},
        )
    if seed is None:
        seed = basis_element(params, 0, (0, 0))
    if len(seed.terms) != 1:
        raise ValueError("generation check expects a single basis-vector seed")
    ((sidx, spt),) = seed.terms
    if not (window.contains_index(sidx, inner=True) and window.contains_point(spt, inner=True)):
        raise ValueError("generation seed must lie in the inner window")
    level = spt[0] + spt[1]
    subchecks = []
    for name, wordnames in GENERATION_STAGES:
        words = tuple(parse_word(w) for w in wordnames)
        basis, stats = closure(params, [seed], words, window)
        if name == "antidiagonal":
            targets = [
                (idx, pt)
                for pt in window.points(inner=True)
                if pt[0] + pt[1] == level
                for idx in window.indices(inner=True)
            ]
        elif name == "lower-levels":
            targets = [
                (idx, pt)
                for pt in window.points(inner=True)
                if pt[0] + pt[1] <= level
                for idx in window.indices(inner=True)
            ]
        else:
            targets = window.basis(inner=True)
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
            "generic": greport.to_json(),
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


def check_irreducible(
    params: Params,
    window: Window,
    seeds=None,
    seed_box: Optional[Window] = None,
    random_counts=(5, 5),
    rng_seed: int = 20260817,
) -> dict:
    """Every seed must generate every inner basis vector.

    Default seeds: each basis vector of the seed box (the inner window
    when no box is given), plus deterministic pseudo-random two- and
    three-term elements.  Gated on all ten non-integrality conditions.
    """
    if not params.is_numeric():
        return _report(
            "irreducible", params, window, "refused",
            {"reason": "symbolic parameters: genericity is undecidable"},
        )
    greport = check_generic(params)
    viol = greport.first_violation()
    if viol is not None:
        return _report(
            "irreducible", params, window, "refused",
            {"reason": f"genericity condition {viol} fails", "generic": greport.to_json()},
        )
    alpha = params.alpha()
    if seeds is None:
        if seed_box is None:
            box_basis = window.basis(inner=True)
        else:
            box_basis = seed_box.basis()
        seeds = [basis_element(params, idx, pt) for idx, pt in box_basis]
        rnd = random.Random(rng_seed)
        for count, nterms in zip(random_counts, (2, 3)):
            for _ in range(count):
                seeds.append(random_in_box(rnd, box_basis, nterms, alpha))
    targets = window.basis(inner=True)
    subchecks = []
    all_ok = True
    for x in seeds:
        basis, stats = closure(params, [x], DEFAULT_WORDS, window)
        missed = _missed_targets(basis, targets)
        ok = not missed
        all_ok = all_ok and ok
        subchecks.append(
            {
                "seed": element_to_json(x),
                "targets": len(targets),
                "reached": len(targets) - len(missed),
                "missed": _basis_json(missed, limit=5),
                "rank": stats["rank"],
                "ok": ok,
            }
        )
    return _report(
        "irreducible", params, window, "pass" if all_ok else "fail",
        {
            "generic": greport.to_json(),
            "seed_count": len(seeds),
            "subchecks": subchecks,
        },
    )


# -- singular vectors and the degenerate regime ---------------------------


def nullspace(rows, ncols: int) -> list:
    """Exact nullspace basis of a dense matrix given as a list of rows.

    The rows are reduced in one ``SubspaceBasis``; each free column of the
    resulting reduced echelon form gives one kernel vector.
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
                vec[p] = -row[fc]
        out.append(vec)
    return out


SINGULAR_OPS = ((3, 1), (3, 2))


def find_singular_vectors(params: Params, window: Window) -> list:
    """Joint kernel of E31 and E32 on each lattice point of the window.

    Computed as an honest nullspace of the stacked coefficient matrices,
    then certified by applying both operators to every solution.
    """
    indices = window.indices()
    found = []
    for pt in window.points():
        rows = []
        for (i, j) in SINGULAR_OPS:
            shift = GEN_SHIFTS[(i, j)]
            tpt = (pt[0] + shift[0], pt[1] + shift[1])
            cols = []
            for idx in indices:
                y = act_gen(params, i, j, basis_element(params, idx, pt))
                cols.append({k: cf for (k, p), cf in y.terms.items() if p == tpt})
            out_indices = sorted({k for col in cols for k in col})
            for k in out_indices:
                rows.append([col.get(k, Fraction(0)) for col in cols])
        for vec in nullspace(rows, len(indices)):
            terms = {
                (indices[t], pt): cf for t, cf in enumerate(vec) if not coeff_is_zero(cf)
            }
            x = ModuleElement(params.alpha(), terms)
            for (i, j) in SINGULAR_OPS:
                if not act_gen(params, i, j, x).is_zero():
                    raise AssertionError("nullspace certification failed")
            found.append(x)
    return found


def check_degenerate_reducibility(params: Params, window: Window) -> dict:
    """Submodule generated by all singular vectors must miss inner basis vectors.

    Preconditions: numeric parameters with both a1 - b - l and a2 - b + l
    integral (the regime where singular vectors can exist at all); refused
    otherwise.  Fails honestly when the window contains no singular vector
    or when the generated submodule already covers the inner window.
    """
    if not params.is_numeric():
        return _report(
            "degenerate", params, window, "refused",
            {"reason": "symbolic parameters: integrality is undecidable"},
        )
    vals = {k: Fraction(v) for k, v in params.values().items()}
    k1 = condition_value("a1-b-l", vals)
    k2 = condition_value("a2-b+l", vals)
    nonint = [
        name
        for name, val in (("a1-b-l", k1), ("a2-b+l", k2))
        if val.denominator != 1
    ]
    if nonint:
        return _report(
            "degenerate", params, window, "refused",
            {"reason": f"degenerate regime requires {' and '.join(nonint)} integral"},
        )
    singular = find_singular_vectors(params, window)
    body = {
        "integrality": {"a1-b-l": str(k1), "a2-b+l": str(k2)},
        "singular_count": len(singular),
        "singular_vectors": [element_to_json(x) for x in singular[:10]],
    }
    if not singular:
        body["reason"] = "no singular vector inside the window"
        return _report("degenerate", params, window, "fail", body)
    basis, stats = closure(params, singular, DEFAULT_WORDS, window)
    targets = window.basis(inner=True)
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


def recursion_factorization_oracle(s_values: Sequence[int]) -> dict:
    """Obstruction polynomial for the two-route coefficient recursion.

    For truncation length s, the raising operator T_A and the lowering
    operator T_B each force a value of the neighbour ratio a_{j-1}/a_j
    inside an invariant line of the index window; both are derived here
    from the action alone.  Compatibility is measured by
    N = num(R_A/R_B) - den(R_A/R_B) in lowest terms, which must be free
    of the symbolic index and of j, and factors into two linear forms.
    The factors are compared against the reference forms
    (c + 3b - s - 2) and (c - 3b + s + 3); each comparison is reported
    with its constant offset instead of being asserted, so a discrepancy
    in either reference is flagged rather than hidden.
    """
    params = Params.symbolic(with_iota_index=True)
    word_a = parse_word("E13*E32")
    word_b = parse_word("E23*E31")
    origin = (0, 0)
    results = []
    flags = []
    for s in s_values:
        s = int(s)
        if s < 1:
            raise ValueError("truncation length must be a positive integer")
        mult_a = params.a2 - params.b + params.lam + s

        def t_a(x):
            return act_word(params, word_a, x) + act_gen(params, 1, 2, x).scale(mult_a)

        mult_b = params.a1 - params.b - params.lam

        def t_b(x):
            return act_word(params, word_b, x) + act_gen(params, 2, 1, x).scale(mult_b)

        vj = {j: basis_element(params, j, origin) for j in range(-1, s + 2)}
        c1a = {j: t_a(vj[j]).coefficient(j, (1, -1)) for j in range(s + 1)}
        c2a = {j: t_a(vj[j - 1]).coefficient(j, (1, -1)) for j in range(1, s + 1)}
        top_kill = coeff_is_zero(t_a(vj[s]).coefficient(s + 1, (1, -1)))
        c1b = {j: t_b(vj[j]).coefficient(j, (-1, 1)) for j in range(s + 1)}
        c2b = {j: t_b(vj[j + 1]).coefficient(j, (-1, 1)) for j in range(s)}
        bottom_kill = coeff_is_zero(t_b(vj[0]).coefficient(-1, (-1, 1)))

        def g_at(j, r1):
            src = basis_element(params, j, (r1, 0))
            return act_gen(params, 3, 1, src).coefficient(j, (r1 - 1, 0))

        def h_at(j, r2):
            src = basis_element(params, j, (0, r2))
            return act_gen(params, 3, 2, src).coefficient(j, (0, r2 - 1))

        rho_a = {j: (g_at(0, 1) / g_at(j, 1)) * (h_at(j, 0) / h_at(0, 0)) for j in range(s + 1)}
        rho_b = {j: (g_at(j, 0) / g_at(0, 0)) * (h_at(0, 1) / h_at(j, 1)) for j in range(s + 1)}
        norm_ok = coeff_is_zero(rho_a[0] - 1) and coeff_is_zero(rho_b[0] - 1)
        k_a = c1a[0]
        k_b = c1b[s] / rho_b[s]
        obstructions = []
        for j in range(1, s + 1):
            r_a = (k_a * rho_a[j] - c1a[j]) / c2a[j]
            r_b = c2b[j - 1] / (k_b * rho_b[j - 1] - c1b[j - 1])
            q = r_a / r_b
            obstructions.append(Scalar(q.num - q.den))
        n_poly = obstructions[0]
        index_free = all(o == n_poly for o in obstructions)
        iota_free = n_poly.num.degree_in("iota") == 0
        unit, factors = factor_polynomial(n_poly)
        mult_back_ok = len(factors) == 2 and all(m == 1 for _, m in factors)
        ref_first = Scalar.sym("c") + 3 * Scalar.sym("b") - (s + 2)
        ref_second = Scalar.sym("c") - 3 * Scalar.sym("b") + (s + 3)
        derived = [f for f, _ in factors]

        def match(ref):
            for f in derived:
                diff = f - ref
                if diff.is_const():
                    return f, diff.const_value()
            return None, None

        f1, off1 = match(ref_first)
        f2, off2 = match(ref_second)
        entry = {
            "s": s,
            "top_kill": top_kill,
            "bottom_kill": bottom_kill,
            "normalization_ok": norm_ok,
            "index_free": index_free,
            "iota_free": iota_free,
            "obstruction": scalar_to_text(n_poly),
            "unit": scalar_to_text(unit),
            "derived_factors": [scalar_to_text(f) for f in derived],
            "first_factor": {
                "reference": scalar_to_text(ref_first),
                "derived": scalar_to_text(f1) if f1 is not None else None,
                "offset": str(off1) if off1 is not None else None,
                "matches": off1 == 0,
            },
            "second_factor": {
                "reference": scalar_to_text(ref_second),
                "derived": scalar_to_text(f2) if f2 is not None else None,
                "offset": str(off2) if off2 is not None else None,
                "matches": off2 == 0,
            },
        }
        entry["ok"] = (
            top_kill
            and bottom_kill
            and norm_ok
            and index_free
            and iota_free
            and mult_back_ok
            and entry["first_factor"]["matches"]
            and f2 is not None
        )
        if off2 is not None and off2 != 0:
            flags.append(
                f"s={s}: second factor is offset {off2} from its reference form"
            )
        if f2 is None:
            flags.append(f"s={s}: no derived factor is a constant shift of the second reference")
        results.append(entry)
    all_ok = all(e["ok"] for e in results)
    return _report(
        "factorization", params, None, "pass" if all_ok else "fail",
        {"s_values": [int(s) for s in s_values], "results": results, "flags": flags},
    )


# -- index-leakage obstruction and centrality ------------------------------

GT_OBSTRUCTION_OPS = (("E12*E21", 1), ("E23*E32", -1), ("E13*E31", 1))


def gt_obstruction(params: Params, window: Window) -> dict:
    """The three index-preserving composites leak into a neighbour index.

    On each basis vector the composite keeps the lattice point, moves the
    index by at most one, and the extreme component carries a coefficient
    that factors into index-linear forms, each a constant shift of one of
    the ten non-integrality conditions.  So under those conditions the
    leakage never vanishes: no basis of the window can diagonalize all
    three composites simultaneously.
    """
    if not params.is_numeric():
        return _report(
            "gt-obstruction", params, window, "refused",
            {"reason": "numeric parameters required for the window scan"},
        )
    sym = Params.symbolic(with_iota_index=True)
    cond_scalars = {
        name: condition_value(
            name,
            {
                "l": Scalar.sym("l"),
                "b": Scalar.sym("b"),
                "c": Scalar.sym("c"),
                "a1": Scalar.sym("a1"),
                "a2": Scalar.sym("a2"),
            },
        )
        for name in CONDITION_NAMES
    }
    ops = []
    all_ok = True
    for word_text, direction in GT_OBSTRUCTION_OPS:
        letters = parse_word(word_text)
        triangular_ok = True
        extreme_ok = True
        first_failure = None
        checked = 0
        for idx in window.indices():
            for pt in window.points():
                y = act_word(params, letters, basis_element(params, idx, pt))
                checked += 1
                bad = None
                if y.support_points() - {pt}:
                    bad = "moved lattice point"
                elif any(not (idx - 1 <= k <= idx + 1) for (k, _) in y.terms):
                    bad = "index moved by more than one"
                if bad is not None:
                    triangular_ok = False
                elif coeff_is_zero(y.coefficient(idx + direction, pt)):
                    extreme_ok = False
                    bad = "extreme component vanished"
                if bad is not None and first_failure is None:
                    first_failure = {"index": idx, "r": list(pt), "problem": bad}
        factor_reports = []
        factors_ok = True
        for pt in window.points():
            kappa = act_word(sym, letters, basis_element(sym, 0, pt)).coefficient(
                direction, pt
            )
            fz = factor_linear_in_iota(kappa)
            if fz is None:
                factors_ok = False
                factor_reports.append({"r": list(pt), "factors": None})
                continue
            fr = []
            for zeta, sign in fz.factors:
                covered = None
                for cname in CONDITION_NAMES:
                    for sigma in (1, -1):
                        diff = zeta - cond_scalars[cname] * sigma
                        if diff.is_const() and diff.const_value().denominator == 1:
                            covered = {
                                "condition": cname,
                                "sign": sigma,
                                "shift": str(diff.const_value()),
                            }
                            break
                    if covered:
                        break
                if covered is None:
                    factors_ok = False
                fr.append(
                    {
                        "zeta": scalar_to_text(zeta),
                        "iota_sign": sign,
                        "covered_by": covered,
                    }
                )
            factor_reports.append(
                {"r": list(pt), "unit": scalar_to_text(fz.unit), "factors": fr}
            )
        op_ok = triangular_ok and extreme_ok and factors_ok
        all_ok = all_ok and op_ok
        ops.append(
            {
                "word": word_text,
                "extreme_offset": direction,
                "checked": checked,
                "triangular_ok": triangular_ok,
                "extreme_nonzero_ok": extreme_ok,
                "first_failure": first_failure,
                "factors_covered": factors_ok,
                "factor_analysis": factor_reports,
                "ok": op_ok,
            }
        )
    return _report(
        "gt-obstruction", params, window, "pass" if all_ok else "fail",
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
    For m = 3, k = 1 the word sum is the trace, which must act as zero.
    """
    words = central_words(m, k)
    inner = window.basis(inner=True)
    absorbed = True

    def in_outer(support):
        return all(
            window.contains_index(i) and window.contains_point(p) for (i, p) in support
        )

    def apply_c(x):
        nonlocal absorbed
        total = ModuleElement.zero(x.alpha)
        for letters in words:
            y, sups = act_word_stepwise(params, letters, x)
            for sup in sups:
                if not in_outer(sup):
                    absorbed = False
            total = total + y
        return total

    gens = [(p, q) for p in range(1, m + 1) for q in range(1, m + 1)]
    failures = []
    checked = 0
    for idx, pt in inner:
        x = basis_element(params, idx, pt)
        cx = apply_c(x)
        if not in_outer(set(cx.terms)):
            absorbed = False
        for (p, q) in gens:
            gx = act_gen(params, p, q, x)
            if not in_outer(set(gx.terms)):
                absorbed = False
            res = apply_c(gx) - act_gen(params, p, q, cx)
            checked += 1
            if not res.is_zero():
                failures.append(
                    {
                        "generator": NAME_OF[(p, q)],
                        "basis": {"index": idx, "r": list(pt)},
                        "residual": element_to_json(res),
                    }
                )
    trace_zero = None
    if k == 1 and m == 3:
        trace_zero = all(
            apply_c(basis_element(params, idx, pt)).is_zero() for idx, pt in inner
        )
    control_results = []
    for (p, q) in controls:
        nonzero = False
        for idx, pt in inner:
            x = basis_element(params, idx, pt)
            res = apply_c(act_gen(params, p, q, x)) - act_gen(params, p, q, apply_c(x))
            if not res.is_zero():
                nonzero = True
                break
        control_results.append({"generator": NAME_OF[(p, q)], "nonzero": nonzero})
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
            "failures": failures[:5],
            "failure_count": len(failures),
            "trace_zero": trace_zero,
            "controls": control_results,
        },
    )


# -- whole-algebra consistency runners ------------------------------------


def generic_report(params: Params) -> dict:
    g = check_generic(params)
    if not g.decidable:
        verdict = "refused"
        reason = "symbolic parameters: conditions are undecidable"
    else:
        verdict = "pass" if g.irreducibility_ok else "fail"
        reason = None
    body = {"generic": g.to_json()}
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
    from .sl3 import proof_identity_report

    body = proof_identity_report([int(s) for s in s_values])
    verdict = "pass" if body.pop("ok") else "fail"
    return _report(
        "proof-identities", Params.symbolic(with_iota_index=True), None, verdict, body
    )


def bracket_report(params: Params, window: Window, embedding: bool = True) -> dict:
    points = window.points()
    indices = window.indices()
    sl3_res = verify_sl3_brackets(params, points, indices)
    body = {"sl3": {k: v for k, v in sl3_res.items() if k != "failures"}}
    body["sl3"]["failures"] = sl3_res["failures"][:5]
    ok = sl3_res["ok"]
    if embedding:
        emb = verify_embedding(params, points, indices)
        body["embedding"] = {k: v for k, v in emb.items() if k != "failures"}
        body["embedding"]["failures"] = emb["failures"][:5]
        ok = ok and emb["ok"]
    return _report("brackets", params, window, "pass" if ok else "fail", body)


def witt_consistency_report(
    rng_seed: int = 20260817, bracket_trials: int = 200, jacobi_trials: int = 50
) -> dict:
    """Witt bracket law and Jacobi identity on random generators.

    Runs over the cuspidal rank-two input and over wedge-power inputs in
    ranks two and three; directions and shifts have entries in [-2, 2].
    The underlying gl bracket laws are checked exhaustively first.
    """
    rnd = random.Random(rng_seed)
    vals = DEFAULT_VALUES
    gl_checks = []
    cusp = CuspidalGl2(vals["l"], vals["b"], vals["c"])
    res = verify_gl_brackets(cusp, window=range(-4, 5))
    gl_checks.append({"module": "cuspidal gl2", "ok": res["ok"], "checked_indices": res["checked_indices"]})
    wedge_inputs = []
    for n in (2, 3):
        for kk in range(n + 1):
            mod = exterior_power(n, kk)
            res = verify_gl_brackets(mod)
            gl_checks.append(
                {"module": f"wedge^{kk} of gl{n}", "ok": res["ok"], "checked_indices": res["checked_indices"]}
            )
            if 0 < kk:
                wedge_inputs.append((n, mod))
    setups = [(2, cusp, (Fraction(1, 17), Fraction(1, 19)))]
    for n, mod in wedge_inputs:
        alpha = (Fraction(1, 17), Fraction(1, 19)) if n == 2 else (
            Fraction(1, 17), Fraction(1, 19), Fraction(1, 23)
        )
        setups.append((n, mod, alpha))

    def rand_vec(n):
        return tuple(rnd.randint(-2, 2) for _ in range(n))

    def rand_basis(n, mod, alpha):
        if mod.kind == "cuspidal":
            idx = rnd.randint(-2, 2)
        else:
            idx = rnd.randint(0, mod.dim - 1)
        m = rand_vec(n)
        return ModuleElement.basis(alpha, idx, m)

    bracket_failures = 0
    first_bracket_failure = None
    for t in range(bracket_trials):
        n, mod, alpha = setups[t % len(setups)]
        u, r = rand_vec(n), rand_vec(n)
        v, s = rand_vec(n), rand_vec(n)
        x = rand_basis(n, mod, alpha)
        res = witt_bracket_residual(u, r, v, s, x, mod)
        if not res.is_zero():
            bracket_failures += 1
            if first_bracket_failure is None:
                first_bracket_failure = {
                    "u": list(u), "r": list(r), "v": list(v), "s": list(s),
                    "module": mod.kind, "residual": element_to_json(res, mod),
                }
    jacobi_failures = 0
    for t in range(jacobi_trials):
        n, mod, alpha = setups[t % len(setups)]
        gens = [WittGenerator(rand_vec(n), rand_vec(n)) for _ in range(3)]
        x = rand_basis(n, mod, alpha)
        if not jacobi_residual(gens, x, mod).is_zero():
            jacobi_failures += 1
    ok = (
        all(g["ok"] for g in gl_checks)
        and bracket_failures == 0
        and jacobi_failures == 0
    )
    params = Params.numeric()
    return _report(
        "witt", params, None, "pass" if ok else "fail",
        {
            "gl_bracket_checks": gl_checks,
            "bracket_trials": bracket_trials,
            "bracket_failures": bracket_failures,
            "first_bracket_failure": first_bracket_failure,
            "jacobi_trials": jacobi_trials,
            "jacobi_failures": jacobi_failures,
            "rng_seed": rng_seed,
        },
    )


def derham_report(n: int = 2, box_bound: int = 2, uv_bound: int = 2) -> dict:
    """d squared = 0, d intertwines the Witt action, and the image of d
    on functions is carried into itself.

    The intertwining check runs over every direction/shift pair with
    entries in [-uv_bound, uv_bound] applied to monomial generators of
    the function layer on a small box; the image check verifies that each
    generator of im(d) maps to a multiple of the image generator at the
    target point.
    """
    if n == 2:
        alpha = (Fraction(1, 17), Fraction(1, 19))
    elif n == 3:
        alpha = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
    else:
        raise ValueError("de Rham runner supports rank 2 or 3")
    wedges = [exterior_power(n, kk) for kk in range(n + 1)]
    box = [tuple(pt) for pt in iproduct(range(-box_bound, box_bound + 1), repeat=n)]

    dd_failures = 0
    dd_checked = 0
    for kk in range(n - 1):
        src = wedges[kk]
        for m in box:
            for idx in range(src.dim):
                x = ModuleElement.basis(alpha, idx, m)
                once = de_rham_differential(x, n, kk, wedges[kk], wedges[kk + 1])
                twice = de_rham_differential(once, n, kk + 1, wedges[kk + 1], wedges[kk + 2])
                dd_checked += 1
                if not twice.is_zero():
                    dd_failures += 1

    uv_range = range(-uv_bound, uv_bound + 1)
    pairs = [
        (u, r)
        for u in iproduct(uv_range, repeat=n)
        for r in iproduct(uv_range, repeat=n)
    ]
    inter_failures = 0
    inter_checked = 0
    small_box = [tuple(pt) for pt in iproduct(range(-1, 2), repeat=n)]
    for u, r in pairs:
        D = WittGenerator(u, r)
        for m in small_box:
            x = ModuleElement.basis(alpha, 0, m)
            lhs = de_rham_differential(act_witt(D, x, wedges[0]), n, 0, wedges[0], wedges[1])
            rhs = act_witt(D, de_rham_differential(x, n, 0, wedges[0], wedges[1]), wedges[1])
            inter_checked += 1
            if not (lhs - rhs).is_zero():
                inter_failures += 1

    def image_gen(m):
        return de_rham_differential(
            ModuleElement.basis(alpha, 0, m), n, 0, wedges[0], wedges[1]
        )

    image_failures = 0
    image_checked = 0
    for u, r in pairs:
        if all(x == 0 for x in u):
            continue
        D = WittGenerator(u, r)
        for m in small_box:
            w = image_gen(m)
            y = act_witt(D, w, wedges[1])
            target = image_gen(tuple(a + bb for a, bb in zip(m, r)))
            image_checked += 1
            if y.is_zero():
                continue
            ratio = None
            for key, cf in target.sorted_terms():
                ycf = y.terms.get(key)
                if ycf is None:
                    continue
                ratio = ycf / cf
                break
            if ratio is None or not (y - target.scale(ratio)).is_zero():
                image_failures += 1

    ok = dd_failures == 0 and inter_failures == 0 and image_failures == 0
    params = Params.numeric()
    return _report(
        "derham", params, None, "pass" if ok else "fail",
        {
            "n": n,
            "alpha": [str(a) for a in alpha],
            "dd_checked": dd_checked,
            "dd_failures": dd_failures,
            "intertwining_pairs": len(pairs),
            "intertwining_checked": inter_checked,
            "intertwining_failures": inter_failures,
            "image_checked": image_checked,
            "image_failures": image_failures,
        },
    )
