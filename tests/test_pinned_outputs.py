"""Byte-identity guards on the CLI output beyond the n=3, K=6 pins of test_cli.

`terms` stdout is checked against the SHA-256 digests the benchmark keeps in
perfbench/digests.json (read only), for the labels that run in a few
seconds.  `verify --mode all` stdout is pinned too: it includes the floats
of the numeric check, so it guards the evaluation order of `substitute`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zassenhaus.cli import EXIT_OK

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())["digests"]

CHEAP_TERMS = (
    "terms --n 4 --max-degree 7 --format json",
    "terms --n 2 --max-degree 11 --path both",
    "terms --n 2 --max-degree 10 --format json",
    "terms --n 2 --max-degree 10 --format text",
    "terms --n 2 --max-degree 10 --format latex",
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label", CHEAP_TERMS)
def test_terms_match_benchmark_digests(cli, label):
    r = cli(*label.split())
    assert r.returncode == EXIT_OK
    assert sha256(r.stdout) == DIGESTS[label]


@pytest.mark.parametrize(
    "n, max_degree, digest",
    [
        (2, 8, "f4684dd24c5e2cc357e54f1165ee9463757f23da03ed03ab8e318e70581df97c"),
        (3, 6, "2bf64968212c73782186f804b09d6e4f4715e16f86e08024bda20bc0467640ee"),
    ],
)
def test_verify_all_report_is_pinned(cli, n, max_degree, digest):
    r = cli("verify", "--mode", "all", "--n", n, "--max-degree", max_degree)
    assert r.returncode == EXIT_OK
    assert sha256(r.stdout) == digest
