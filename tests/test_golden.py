"""Every ``bench/golden.json`` entry, recomputed from ``bench/workloads.py``.

``golden_pool`` lists one request for every report any benchmark seed
can draw; each must produce the recorded verdict and digest, and the
pool's golden keys must be exactly the recorded ones.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_golden_pool_reproduces_every_recorded_report(name):
    recorded = GOLDEN[name]
    produced = {}
    for req in workloads.golden_pool(name):
        verdict, text = req.run()
        produced.setdefault(req.golden_key, []).append(
            {"verdict": verdict, "sha256": workloads.digest(text)}
        )
    assert set(produced) == set(recorded)
    for key, entries in produced.items():
        assert all(entry == recorded[key] for entry in entries), key
