"""Behaviour lock: the report of every subcommand at its default arguments.

Each run's canonical report is compared with the SHA-256 digest recorded
in ``cli_digests.json``, so no report can drift between commits unless a
change re-records it on purpose.  ``act`` has no defaults for its word
and vector and gets a minimal pair; ``derham --n 3`` is left out (it
takes minutes).  Record the digests with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wittmod.cli import main

DEFAULT_RUNS = {
    "check-generic": ["check-generic"],
    "act": ["act", "--word", "E11", "--vector", "v:0@0,0"],
    "brackets": ["brackets"],
    "witt": ["witt"],
    "generate": ["generate"],
    "irreducible": ["irreducible"],
    "degenerate": ["degenerate"],
    "derham": ["derham"],
    "proof-identities": ["proof-identities"],
    "factorization": ["factorization"],
    "gt": ["gt"],
}

RECORDED = Path(__file__).with_name("cli_digests.json")


def report_digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_every_default_run_is_recorded():
    assert set(json.loads(RECORDED.read_text())) == set(DEFAULT_RUNS)


@pytest.mark.parametrize("name", sorted(DEFAULT_RUNS))
def test_default_report_matches_recorded_digest(name):
    recorded = json.loads(RECORDED.read_text())[name]
    assert report_digest(DEFAULT_RUNS[name]) == recorded


if __name__ == "__main__":
    digests = {name: report_digest(argv) for name, argv in DEFAULT_RUNS.items()}
    print(json.dumps(digests, indent=2, sort_keys=True))
