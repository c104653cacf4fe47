"""Record the expected verdict and report digest of every request.

Run from the repository root, only when a change deliberately alters a
canonical report (and say so in CHANGES.md):

    python3 bench/record_golden.py

It runs ``workloads.golden_pool`` for each workload, which covers every
request any seed can draw, and rewrites ``bench/golden.json``.  Requests
that share a golden key must produce the same report, or recording stops.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        table = {}
        for req in workloads.golden_pool(name):
            verdict, text = req.run()
            entry = {"verdict": verdict, "sha256": workloads.digest(text)}
            if table.setdefault(req.golden_key, entry) != entry:
                raise SystemExit(f"{req.key}: report differs from others under {req.golden_key}")
        golden[name] = dict(sorted(table.items()))
        verdicts = Counter(e["verdict"] for e in table.values())
        print(f"{name}: {len(table)} reports, verdicts {dict(verdicts)}", flush=True)
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
