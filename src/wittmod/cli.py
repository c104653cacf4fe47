"""Command line interface.

Each subcommand runs one check and prints a single canonical JSON report.
Exit codes: 0 pass, 1 fail, 2 input or window error, 3 precondition
refused.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial

from .engine import (
    Window,
    act_report,
    bracket_report,
    check_degenerate_reducibility,
    check_generation,
    check_irreducible,
    derham_report,
    generic_report,
    gt_central_check,
    gt_obstruction,
    proof_report,
    recursion_factorization_oracle,
    witt_consistency_report,
)
from .report import aggregate_verdict, emit, exit_code_for
from .sl3 import DEGENERATE_VALUES, Params, basis_element, parse_param_line


def parse_vector_literal(text: str):
    """Parse ``v:i@r1,r2`` into (index, lattice point)."""
    if not text.startswith("v:"):
        raise ValueError(f"vector literal must start with 'v:', got {text!r}")
    body = text[2:]
    istr, sep, rstr = body.partition("@")
    if not sep:
        raise ValueError(f"vector literal missing '@' separator: {text!r}")
    parts = rstr.split(",")
    if len(parts) != 2:
        raise ValueError(f"vector literal needs two lattice coordinates: {text!r}")
    try:
        idx = int(istr)
        pt = (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"vector literal has non-integer fields: {text!r}")
    return idx, pt


def parse_window_arg(text: str) -> Window:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ValueError(f"window must be I,R1,R2 or I,R1,R2,margin: {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"window has non-integer fields: {text!r}")
    margin = nums[3] if len(nums) == 4 else 0
    return Window.symmetric(nums[0], nums[1], nums[2], margin)


def parse_int_list(text: str, what: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{what} must be a comma-separated integer list: {text!r}")
    if not out:
        raise ValueError(f"empty {what} list")
    if min(out) < 1:
        raise ValueError(f"every {what} must be positive: {text!r}")
    repeated = [v for t, v in enumerate(out) if v in out[:t]]
    if repeated:
        raise ValueError(f"{what} {repeated[0]} is repeated: {text!r}")
    return out


def load_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config: {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, val = parse_param_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: parameter key {key!r} is repeated")
        values[key] = val
    return values


def build_params(args, defaults=None) -> Params:
    if args.mode == "symbolic":
        if args.config:
            raise ValueError("--config applies to numeric mode only")
        return Params.symbolic()
    values = dict(defaults) if defaults else {}
    if args.config:
        values.update(load_config(args.config))
    return Params.numeric(values)


def seed_element(params: Params, literal: str):
    idx, pt = parse_vector_literal(literal)
    return basis_element(params, idx, pt)


# -- subcommand handlers --------------------------------------------------


def cmd_check_generic(args):
    return generic_report(build_params(args))


def cmd_act(args):
    params = build_params(args)
    return act_report(params, args.word, seed_element(params, args.vector))


def cmd_brackets(args):
    params = build_params(args)
    return bracket_report(params, parse_window_arg(args.window))


def cmd_witt(args):
    return witt_consistency_report(
        rng_seed=args.rng, bracket_trials=args.trials, jacobi_trials=args.jacobi
    )


def cmd_generate(args):
    params = build_params(args)
    window = parse_window_arg(args.window)
    seed = seed_element(params, args.seed)
    return check_generation(params, window, seed)


def cmd_irreducible(args):
    params = build_params(args)
    window = parse_window_arg(args.window)
    seeds = [seed_element(params, args.seed)] if args.seed is not None else None
    return check_irreducible(
        params,
        window,
        seeds=seeds,
        random_count=args.trials,
        rng_seed=args.rng,
    )


def cmd_degenerate(args):
    params = build_params(args, defaults=DEGENERATE_VALUES)
    return check_degenerate_reducibility(params, parse_window_arg(args.window))


def cmd_derham(args):
    return derham_report(n=args.n, box_bound=args.box, uv_bound=args.uv)


def cmd_proof_identities(args):
    return proof_report(parse_int_list(args.s, "s"))


def cmd_factorization(args):
    return recursion_factorization_oracle(parse_int_list(args.s, "s"))


def cmd_gt(args):
    # every argument is checked before the first subcheck runs
    runs = []
    if args.gt_check in ("obstruction", "both"):
        numeric = Params.numeric(load_config(args.config) if args.config else None)
        runs.append(partial(gt_obstruction, numeric, parse_window_arg(args.window)))
    if args.gt_check in ("central", "both"):
        params = build_params(args)
        window = parse_window_arg(args.central_window)
        for k in parse_int_list(args.k, "k"):
            runs.append(partial(gt_central_check, params, window, 3, k))
        runs.append(partial(gt_central_check, params, window, 2, 2, controls=((1, 3),)))
    subreports = [run() for run in runs]
    verdict = aggregate_verdict(r["verdict"] for r in subreports)
    return {
        "check": "gt",
        "verdict": verdict,
        "subchecks": subreports,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittmod",
        description=(
            "Exact checks for tensor-field modules over the rank-two Witt "
            "algebra and their sl3 restriction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mode_default="numeric", window_default=None):
        sp.add_argument(
            "--mode", choices=("numeric", "symbolic"), default=mode_default,
            help=f"coefficient mode (default {mode_default})",
        )
        sp.add_argument("--config", help="key=value parameter file (keys l b c a1 a2)")
        sp.add_argument("--out", help="write the JSON report to this file")
        if window_default is not None:
            sp.add_argument(
                "--window", default=window_default,
                help=f"I,R1,R2[,margin] (default {window_default})",
            )

    sp = sub.add_parser("check-generic", help="evaluate the ten non-integrality conditions")
    common(sp)
    sp.set_defaults(func=cmd_check_generic)

    sp = sub.add_parser("act", help="apply a generator word to a basis vector")
    common(sp)
    sp.add_argument("--word", required=True, help="generator word, e.g. E13*E32")
    sp.add_argument("--vector", required=True, help="basis vector literal v:i@r1,r2")
    sp.set_defaults(func=cmd_act)

    sp = sub.add_parser("brackets", help="sl3 bracket law and the Witt-route comparison")
    common(sp, mode_default="symbolic", window_default="3,2,2")
    sp.set_defaults(func=cmd_brackets)

    sp = sub.add_parser("witt", help="Witt bracket and Jacobi spot checks over random generators")
    sp.add_argument("--out")
    sp.add_argument("--rng", type=int, default=20260817)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--jacobi", type=int, default=50)
    sp.set_defaults(func=cmd_witt)

    sp = sub.add_parser("generate", help="staged generation of the inner window from one seed")
    common(sp, window_default="4,4,4,2")
    sp.add_argument("--seed", default="v:0@0,0", help="seed vector literal")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("irreducible", help="every seed generates the whole inner window")
    common(sp, window_default="4,4,4,2")
    sp.add_argument("--seed", help="check a single seed vector literal instead")
    sp.add_argument("--rng", type=int, default=20260817)
    sp.add_argument("--trials", type=int, default=5, help="random multi-term seeds per shape")
    sp.set_defaults(func=cmd_irreducible)

    sp = sub.add_parser("degenerate", help="reducibility witness at integral parameters")
    common(sp, window_default="4,4,4,2")
    sp.set_defaults(func=cmd_degenerate)

    sp = sub.add_parser("derham", help="differential: square zero, intertwining, image invariance")
    sp.add_argument("--out", help="write the JSON report to this file")
    sp.add_argument("--n", type=int, choices=(2, 3), default=2, help="rank of the Witt algebra")
    sp.add_argument(
        "--box", type=int, default=2,
        help="d^2 = 0 runs on [-BOX, BOX]^n; intertwining and image always run on [-1, 1]^n",
    )
    sp.add_argument(
        "--uv", type=int, default=2,
        help="directions u and shifts r of D(u, r) range over [-UV, UV]^n",
    )
    sp.set_defaults(func=cmd_derham)

    sp = sub.add_parser("proof-identities", help="truncation-operator identities with controls")
    sp.add_argument("--out")
    sp.add_argument("--s", default="1,2,3,4", help="comma-separated truncation lengths")
    sp.set_defaults(func=cmd_proof_identities)

    sp = sub.add_parser("factorization", help="derive the recursion obstruction and factor it")
    sp.add_argument("--out")
    sp.add_argument("--s", default="1,2,3", help="comma-separated truncation lengths")
    sp.set_defaults(func=cmd_factorization)

    sp = sub.add_parser("gt", help="index-leakage obstruction and centrality checks")
    common(sp, mode_default="symbolic", window_default="4,2,2")
    sp.add_argument("--central-window", default="4,3,3,2")
    sp.add_argument("--k", default="1,2", help="central word lengths")
    sp.add_argument(
        "--gt-check", choices=("obstruction", "central", "both"), default="both"
    )
    sp.set_defaults(func=cmd_gt)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one;
    built lazily so that importing the module stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        doc = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a window or box too large to enumerate
        print(f"error: input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        emit(doc, getattr(args, "out", None))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return exit_code_for(doc["verdict"])


if __name__ == "__main__":
    sys.exit(main())
