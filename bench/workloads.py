"""Seeded request lists for the three certificate workloads.

A request is one certificate asked of the package through its public
API: ``wittmod.cli.main(argv)``, an ``engine`` report function, or
``tensor.verify_d_intertwines``.  Every argument is built here from the
workload seed, so the same seed always yields the same list.  The
random parts are drawn from finite pools, and ``golden_pool`` lists one
request for every expected report any seed can draw, so the recorded
digests in ``golden.json`` cover every seed.

Callables look the package functions up at call time, so a tracer that
replaces them after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from itertools import product

import wittmod
from wittmod import cli, engine, glmod, report, tensor
from wittmod.sl3 import Params

VERDICT_OF_EXIT = {0: "pass", 1: "fail", 2: "error", 3: "refused"}

# pools the seeded draws come from; golden.json records all of them
RANDOM_SEED_POOL = 32  # multi-term closure seeds per term count
WITT_RNG_POOL = 32  # rng seeds for witt_consistency_report

CLOSURE_WINDOW = (4, 4, 4, 2)
SYMBOLIC_INDICES = range(-3, 4)
SYMBOLIC_POINTS = [(r1, r2) for r1 in range(-2, 3) for r2 in range(-2, 3)]
UV_RANGE = range(-2, 3)
DERHAM_ALPHA = (Fraction(1, 17), Fraction(1, 19), Fraction(1, 23))
DERHAM_BOX = [tuple(m) for m in product(range(-1, 2), repeat=3)]
# Degree-1 checks cost 3x degree-0 ones and vary with the zeros of
# D(u, r); with most requests in degree 0 the median latency lies inside
# one cluster instead of between two, which halves its spread over seeds.
D_INTERTWINES_COUNTS = ((0, 200), (1, 40))

# Reference-speed seconds one pass over each request list takes; with
# ``--seconds`` it fixes the number of passes.
PASS_SECONDS = {"numeric-closure": 15.0, "symbolic-identities": 11.5, "witt-derham": 9.8}


class Request:
    """One certificate request; ``run()`` returns (verdict, report text).

    ``golden_key`` names the recorded report the output must equal.  It
    is the request key, except where the report provably does not
    depend on a drawn argument (a passing intertwining check does not
    mention its generator).
    """

    __slots__ = ("key", "golden_key", "run")

    def __init__(self, key: str, run, golden_key: str = None):
        self.key = key
        self.run = run
        self.golden_key = golden_key or key


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_request(argv) -> Request:
    argv = list(argv)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return VERDICT_OF_EXIT.get(code, f"exit {code}"), buf.getvalue()

    return Request("cli " + " ".join(argv), run)


def report_request(key: str, produce) -> Request:
    """A request whose result is a report dict with a ``verdict``."""

    def run():
        doc = produce()
        return doc["verdict"], report.canonical_json(doc)

    return Request(key, run)


# -- numeric-closure --------------------------------------------------------


def _closure_setup():
    params = Params.numeric()
    window = engine.Window.symmetric(*CLOSURE_WINDOW)
    return params, window


def _random_seed(window, nterms: int, pool_index: int):
    """Multi-term closure seed number ``pool_index`` of the pool."""
    rnd = random.Random(1000 * nterms + pool_index)
    box = window.basis(inner=True)
    terms = {}
    for pos in sorted(rnd.sample(range(len(box)), nterms)):
        terms[box[pos]] = Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 3))
    return terms


def _irreducible_basis(idx, pt) -> Request:
    return cli_request(["irreducible", "--seed", f"v:{idx}@{pt[0]},{pt[1]}"])


def _irreducible_random(params, window, terms) -> Request:
    text = " + ".join(f"({cf})*v[{i}]{pt}" for (i, pt), cf in sorted(terms.items()))

    def produce():
        x = tensor.ModuleElement(params.alpha(), terms)
        return engine.check_irreducible(params, window, seeds=[x])

    return report_request(f"engine.check_irreducible seed={text}", produce)


def numeric_closure(seed: int) -> list:
    """Single-seed irreducibility certificates on the default window.

    One basis seed at every inner lattice point (seed-drawn index), three
    two-term and three three-term seeds from the pool, plus ``generate``
    and ``degenerate`` at their defaults.  Covering every point once
    keeps the list's total cost nearly the same for every seed.
    """
    rnd = random.Random(seed)
    params, window = _closure_setup()
    indices = window.indices(inner=True)
    reqs = [_irreducible_basis(rnd.choice(indices), pt) for pt in window.points(inner=True)]
    for nterms in (2, 3):
        for k in rnd.sample(range(RANDOM_SEED_POOL), 3):
            reqs.append(_irreducible_random(params, window, _random_seed(window, nterms, k)))
    reqs += [cli_request(["generate"]), cli_request(["degenerate"])]
    rnd.shuffle(reqs)
    return reqs


# -- symbolic-identities ----------------------------------------------------


def _bracket_window(params, idx, pt) -> Request:
    window = engine.Window(idx, idx, ((pt[0], pt[0]), (pt[1], pt[1])))
    return report_request(
        f"engine.bracket_report symbolic index={idx} r={pt[0]},{pt[1]}",
        lambda: engine.bracket_report(params, window),
    )


def _symbolic_fixed() -> list:
    reqs = []
    for s in range(1, 5):
        reqs.append(report_request(
            f"engine.recursion_factorization_oracle s={s}",
            lambda s=s: engine.recursion_factorization_oracle([s]),
        ))
        reqs.append(report_request(
            f"engine.proof_report s={s}", lambda s=s: engine.proof_report([s])
        ))
    reqs.append(cli_request(["gt", "--k", "1"]))
    return reqs


def symbolic_identities(seed: int) -> list:
    """Symbolic bracket laws on single-basis-vector windows (nine
    seed-drawn points for each index in [-3, 3]), the factorization
    oracle and the proof identities for s = 1..4, and ``gt --k 1``."""
    rnd = random.Random(seed)
    params = Params.symbolic()
    reqs = [
        _bracket_window(params, idx, pt)
        for idx in SYMBOLIC_INDICES
        for pt in rnd.sample(SYMBOLIC_POINTS, 9)
    ]
    reqs += _symbolic_fixed()
    rnd.shuffle(reqs)
    return reqs


# -- witt-derham ------------------------------------------------------------


def _wedges():
    return [glmod.exterior_power(3, k) for k in range(4)]


def _d_intertwines(wedges, k, u, r) -> Request:
    def run():
        doc = tensor.verify_d_intertwines(u, r, DERHAM_ALPHA, DERHAM_BOX, 3, k, wedges)
        return ("pass" if doc["ok"] else "fail"), report.canonical_json(doc)

    return Request(
        f"tensor.verify_d_intertwines n=3 k={k} u={u} r={r}",
        run,
        golden_key=f"tensor.verify_d_intertwines n=3 k={k}",
    )


def _witt(rng: int) -> Request:
    return report_request(
        f"engine.witt_consistency_report rng_seed={rng}",
        lambda: engine.witt_consistency_report(rng_seed=rng),
    )


def _witt_fixed() -> list:
    return [
        cli_request(["derham"]),
        cli_request(["brackets", "--mode", "numeric", "--window", "2,1,1"]),
    ]


def witt_derham(seed: int) -> list:
    """Rank-3 intertwining of d with seed-drawn D(u, r) in degrees 0 and
    1, eight Witt consistency reports at seed-drawn rng seeds, ``derham``
    and numeric ``brackets --window 2,1,1``."""
    rnd = random.Random(seed)
    wedges = _wedges()

    def vec():
        return tuple(rnd.choice(UV_RANGE) for _ in range(3))

    reqs = [
        _d_intertwines(wedges, k, vec(), vec())
        for k, count in D_INTERTWINES_COUNTS
        for _ in range(count)
    ]
    reqs += [_witt(rng) for rng in rnd.sample(range(WITT_RNG_POOL), 8)]
    reqs += _witt_fixed()
    rnd.shuffle(reqs)
    return reqs


REQUEST_LISTS = {
    "numeric-closure": numeric_closure,
    "symbolic-identities": symbolic_identities,
    "witt-derham": witt_derham,
}
WORKLOADS = tuple(REQUEST_LISTS)


def build(workload: str, seed: int) -> list:
    return REQUEST_LISTS[workload](seed)


def golden_pool(workload: str) -> list:
    """Requests covering every golden key that some seed can draw."""
    if workload == "numeric-closure":
        params, window = _closure_setup()
        reqs = [_irreducible_basis(idx, pt) for idx, pt in window.basis(inner=True)]
        for nterms in (2, 3):
            for k in range(RANDOM_SEED_POOL):
                reqs.append(_irreducible_random(params, window, _random_seed(window, nterms, k)))
        return reqs + [cli_request(["generate"]), cli_request(["degenerate"])]
    if workload == "symbolic-identities":
        params = Params.symbolic()
        reqs = [
            _bracket_window(params, idx, pt)
            for idx in SYMBOLIC_INDICES
            for pt in SYMBOLIC_POINTS
        ]
        return reqs + _symbolic_fixed()
    if workload == "witt-derham":
        wedges = _wedges()
        # several generators per degree, so the recording confirms the
        # report does not depend on which one was drawn
        gens = [((1, -2, 2), (2, 1, -1)), ((0, 1, 0), (0, 0, 1)), ((-2, 0, 1), (1, 1, 1))]
        reqs = [_d_intertwines(wedges, k, u, r) for k in (0, 1) for u, r in gens]
        reqs += [_witt(rng) for rng in range(WITT_RNG_POOL)]
        return reqs + _witt_fixed()
    raise KeyError(workload)


def warm_up():
    """One certified factorization, which loads and warms sympy."""
    s = wittmod.Scalar.sym
    x = (s("c") + 3 * s("b") - 3) * (s("c") - 3 * s("b") + 4)
    unit, factors = wittmod.factor_polynomial(x)
    if len(factors) != 2:
        raise RuntimeError("warm-up factorization returned the wrong factor count")
