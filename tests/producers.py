"""The canonical reports that the behaviour lock pins, produced with the
standard library and ``src/`` alone.

``PRODUCERS`` holds every report the lock pins: each subcommand run
through ``cli.main`` at its default arguments (``act`` gets a minimal
word and vector), the rank-three ``derham --n 3``, the numeric bracket
sweep ``brackets --mode numeric --window 2,1,1``, which the default
symbolic ``brackets`` does not reach, plus ``generation``, the
irreducibility run of acceptance criterion 4.  ``report_digests.json``
records the SHA-256 digest of each report, so a report cannot drift
between commits unless a change re-records it on purpose, with

    PYTHONPATH=src python tests/producers.py > tests/report_digests.json

This module imports no test framework, so it also runs under
``python -S``, with no site-packages on the path.
"""

import contextlib
import hashlib
import io
import json
import sys
from functools import partial

from wittmod.cli import main
from wittmod.engine import Window, check_irreducible
from wittmod.report import canonical_json, exit_code_for
from wittmod.sl3 import Params, basis_element

CLI_RUNS = {
    "check-generic": ["check-generic"],
    "act": ["act", "--word", "E11", "--vector", "v:0@0,0"],
    "brackets": ["brackets"],
    "brackets-numeric": ["brackets", "--mode", "numeric", "--window", "2,1,1"],
    "witt": ["witt"],
    "generate": ["generate"],
    "irreducible": ["irreducible"],
    "degenerate": ["degenerate"],
    "derham": ["derham"],
    "derham-n3": ["derham", "--n", "3"],
    "proof-identities": ["proof-identities"],
    "factorization": ["factorization"],
    "gt": ["gt"],
}


def cli_report(argv):
    """(stdout, parsed report) of one CLI run; its exit code must match
    the report's verdict."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    doc = json.loads(text)
    assert code == exit_code_for(doc["verdict"]), (argv, code, doc["verdict"])
    return text, doc


def generation_report():
    """Every basis vector of the 3 x 3 box around the origin regenerates
    the inner window."""
    params = Params.numeric()
    seeds = [basis_element(params, idx, pt) for idx, pt in Window.symmetric(2, 1, 1).basis()]
    doc = check_irreducible(params, Window.symmetric(4, 4, 4, margin=2), seeds=seeds)
    return canonical_json(doc), doc


PRODUCERS = {name: partial(cli_report, argv) for name, argv in CLI_RUNS.items()}
PRODUCERS["generation"] = generation_report


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lock_text(reports) -> str:
    """The lock file's contents for ``reports``, each report's text by
    producer name."""
    digests = {name: sha256_of(text) for name, text in reports.items()}
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(lock_text({name: producer()[0] for name, producer in PRODUCERS.items()}))
