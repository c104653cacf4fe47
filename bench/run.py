"""Certificate benchmark for wittmod.

Run from the repository root:

    python3 bench/run.py --workload numeric-closure --seed 1 --seconds 30 --trace 0

One caller, one thread, closed loop: each request is sent only after
the previous one returned.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the request list untraced, traced (every
layer's public functions wrapped) and untraced again, checks that all
three produce the same reports, and reports the per-layer metrics.  ``--workload all``
runs every workload in its own process.  The last line of standard
output is one JSON object; a results file with provenance goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("numeric-closure", "symbolic-identities", "witt-derham")
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Shared hosts drift in speed by tens of percent over seconds to minutes.
# Times are reported scaled to a reference speed, at which the speed
# probe takes PROBE_REF_S; unscaled times go to the results file.
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.1
PROBE_BATCH = 40
PROBE_NEAR_S = 0.25
SETUP_SPEED_PROBES = 10


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr, exit 2."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def locate_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "wittmod" / "__init__.py").is_file():
        raise BenchError(f"no wittmod sources under {src}; run from the repository root")
    return src


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int, src: Path):
    """Import the package, warm sympy up and build the request list."""
    import workloads

    if not Path(workloads.wittmod.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported wittmod from {workloads.wittmod.__file__}, not {src}")
    workloads.warm_up()
    return workloads, workloads.build(workload, seed)


def timed_setup(workload: str, seed: int, src: Path) -> dict:
    """One set-up in this (fresh) process, bracketed by speed probes."""
    before = [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
    t0 = time.perf_counter()
    setup(workload, seed, src)
    raw = time.perf_counter() - t0
    after = [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
    return {"raw_s": raw, "scaled_s": raw * PROBE_REF_S / statistics.fmean(before + after)}


def probe_setup_seconds(args):
    """Set-up time as a fresh process pays it, SETUP_PROBES times.

    Each sample is timed inside its own process and scaled by the probes
    taken there just before and after it.  Returns (scaled, raw) lists.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return [x["scaled_s"] for x in samples], [x["raw_s"] for x in samples]


# -- running requests --------------------------------------------------------------


def speed_probe() -> float:
    """Seconds for a fixed stdlib task shaped like the package's inner
    loops (Fraction products summed into a dict).  It shares no code
    with the package, so it tracks only how fast the machine runs."""
    t0 = time.perf_counter()
    acc = {}
    for k in range(600):
        key = (k % 9, k % 5)
        acc[key] = acc.get(key, 0) + Fraction(k % 7 + 1, k % 11 + 2) * Fraction(3, k % 13 + 1)
    return time.perf_counter() - t0


def take_probes(probes: list, since) -> float:
    """Append one (time, seconds) probe per PROBE_EVERY_S elapsed since
    ``since`` (at least one, at most PROBE_BATCH), so probes sample time
    evenly even between long requests.  Returns the time the batch ended."""
    due = 1 if since is None else int((time.perf_counter() - since) / PROBE_EVERY_S)
    for _ in range(max(1, min(PROBE_BATCH, due))):
        t0 = time.perf_counter()
        probes.append((t0, speed_probe()))
    return time.perf_counter()


def speed_around(probes: list, start: float, end: float) -> float:
    """Mean probe time within max(PROBE_NEAR_S, end - start) of a request.

    A short request gets the probes just before and after it, which saw
    the same machine state; a long one gets as many probes as it lasted
    on either side.
    """
    reach = max(PROBE_NEAR_S, end - start)
    times = [t for t, _ in probes]
    lo = bisect.bisect_left(times, start - reach)
    hi = bisect.bisect_right(times, end + reach)
    return statistics.fmean(d for _, d in probes[lo:hi])


def check_output(expected, verdict: str, digest) -> str:
    """Why an output fails the gate, or "" when it matches the record."""
    if digest is None:
        return verdict
    if expected is None:
        return "no recorded report for this request"
    if verdict != expected["verdict"]:
        return f"verdict {verdict}, expected {expected['verdict']}"
    if digest != expected["sha256"]:
        return "report differs from the recorded one"
    return ""


def run_pass(wl, requests, golden: dict, probe: bool = True) -> dict:
    """Send every request once, in order; check each output.

    With ``probe``, speed probes run between requests, and each latency
    is also given scaled to reference speed: times PROBE_REF_S over the
    mean of the probes around it.  On a shared host the probe's speed is
    bimodal, and the state persists for a fraction of a second to
    seconds; a mean over probes near the request follows the share of
    its time spent in each state.
    """
    gc.collect()
    latencies, spans, digests, failures = [], [], [], []
    probes = []
    last_probe = None
    for req in requests:
        if probe and (
            last_probe is None or time.perf_counter() - last_probe >= PROBE_EVERY_S
        ):
            last_probe = take_probes(probes, last_probe)
        t0 = time.perf_counter()
        try:
            verdict, text = req.run()
        except Exception as exc:  # a raising request is a failed request
            verdict, text = f"raised {exc!r}", None
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        dg = None if text is None else wl.digest(text)
        digests.append(dg)
        problem = check_output(golden.get(req.golden_key), verdict, dg)
        if problem:
            failures.append({"key": req.key, "problem": problem})
    if probe:
        take_probes(probes, last_probe)
        scaled = [
            lat * PROBE_REF_S / speed_around(probes, t0, t1)
            for lat, (t0, t1) in zip(latencies, spans)
        ]
    else:
        scaled = latencies
    return {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(latencies),
        "latencies": scaled,
        "raw_latencies": latencies,
        "probes": [d for _, d in probes],
        "digests": digests,
        "failures": failures,
    }


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond
    it, by nearest rank; returns (percentile, value)."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    raise BenchError(f"{n} samples are too few for a tail with {TAIL_BEYOND} beyond it")


def latency_metrics(passes, key: str) -> dict:
    lat = [x for p in passes for x in p[key]]
    pct, tail_value = tail(lat)
    walls = [sum(p[key]) for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cert_p50_s": (statistics.median(lat), "s", len(lat)),
        "cert_tail_s": (tail_value, "s", len(lat)),
        "tail_percentile": pct,
    }


def measure(args, wl, requests, golden) -> dict:
    """Untraced passes over the request list for about ``--seconds``.

    The pass count follows from ``--seconds`` and the nominal pass time
    alone, so every commit measured with the same settings sends the
    same requests and its tail percentile has the same rank.
    """
    count = max(1, round(args.seconds / wl.PASS_SECONDS[args.workload]))
    passes = [run_pass(wl, requests, golden) for _ in range(count)]
    metrics = latency_metrics(passes, "latencies")
    raw = latency_metrics(passes, "raw_latencies")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
    )
    return {
        "passes": passes,
        "tail_percentile": metrics.pop("tail_percentile"),
        "metrics": metrics,
        "raw": {k: v[0] for k, v in raw.items() if k != "tail_percentile"},
    }


def measure_traced(wl, requests, golden) -> dict:
    """Per-layer metrics from one traced pass.

    An untraced pass first fills sympy's caches; the traced pass
    follows, then another untraced pass, whose time is the base of
    ``trace.overhead_s``.  All three must return the same reports.
    """
    import wittmod
    from tracing import REQUEST_SPAN, Tracer, layer_metrics

    cold = run_pass(wl, requests, golden, probe=False)
    tracer = Tracer()
    tracer.install(wittmod)
    root = tracer.name_id(REQUEST_SPAN)
    try:
        traced = run_pass(
            wl, [in_request_span(tracer, root, req) for req in requests], golden,
            probe=False,
        )
    finally:
        tracer.remove()
    warm = run_pass(wl, requests, golden, probe=False)
    traced["failures"] += [
        {"key": req.key, "problem": "traced report differs from the untraced one"}
        for req, a, b, c in zip(requests, cold["digests"], traced["digests"], warm["digests"])
        if not a == b == c
    ]
    metrics = {k: (v, u, 1) for k, (v, u) in layer_metrics(tracer).items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - warm["wall_s"], "s", 1)
    return {"passes": [cold, traced, warm], "metrics": metrics, "tracer": tracer}


def in_request_span(tracer, root: int, req):
    """The request with its run wrapped in a root span, which every
    layer span of the request descends from."""

    def run():
        sid = tracer.open(root)
        try:
            return req.run()
        finally:
            tracer.close(sid)

    return type(req)(req.key, run, req.golden_key)


# -- provenance and output ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "wittmod").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, root: Path, src: Path) -> dict:
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "workload": args.workload,
    }


def run_workload(args, root: Path, src: Path) -> dict:
    setup_samples, setup_raw = ([], []) if args.trace else probe_setup_seconds(args)
    wl, requests = setup(args.workload, args.seed, src)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[args.workload]
    if args.trace:
        result = measure_traced(wl, requests, golden)
    else:
        result = measure(args, wl, requests, golden)
        result["metrics"]["setup_s"] = (
            statistics.median(setup_samples), "s", len(setup_samples)
        )
        result["raw"]["setup_s"] = statistics.median(setup_raw)
    passes = result["passes"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    doc = {
        "provenance": provenance(args, root, src),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in sorted(result["metrics"].items())
        },
        "tail_percentile": result.get("tail_percentile"),
        "unscaled": result.get("raw"),
        "setup_samples_s": setup_samples,
        "setup_unscaled_s": setup_raw,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "speed_probe_mean_s": [
            statistics.fmean(p["probes"]) if p["probes"] else None for p in passes
        ],
        "requests": [
            {
                "key": req.key,
                "latencies_s": [p["latencies"][k] for p in passes],
                "unscaled_latencies_s": [p["raw_latencies"][k] for p in passes],
            }
            for k, req in enumerate(requests)
        ],
        "failures": failures[:50],
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracer"].write_spans(out_dir / f"{stem}-spans.tsv.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def print_summary(doc: dict):
    prov = doc["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']} trace {int(prov['trace'])}")
    for name, m in doc["metrics"].items():
        note = ""
        if name == "cert_tail_s":
            note = f"  (p{doc['tail_percentile']} of {m['samples']} request latencies)"
        raw = (doc["unscaled"] or {}).get(name)
        if raw is not None:
            note += f"  [unscaled {raw:.6g}]"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  failed_frac = {doc['failed_frac']:.6g} ({doc['failed']} of {doc['attempted']})")
    for f in doc["failures"][:10]:
        print(f"  FAILED {f['key']}: {f['problem']}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src = locate_source(root)
        sys.path.insert(0, str(src))
        if args.setup_probe:
            print(json.dumps(timed_setup(args.workload, args.seed, src)))
            return 0
        if args.workload == "all":
            return run_all(args)
        doc = run_workload(args, root, src)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_summary(doc)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in doc["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
