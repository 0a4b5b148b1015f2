"""Byte-identity guards on the CLI output beyond the n=3, K=6 pins of test_cli.

`terms` stdout is checked against the SHA-256 digests the benchmark keeps in
perfbench/digests.json (read only), for the labels that run in a few
seconds.  `verify --mode all` stdout is pinned too: it includes the floats
of the numeric check, so it guards the evaluation order of `substitute`.
The commutator renderings, which the benchmark digests do not cover, are
pinned as well, with digests recorded at commit 7183e64: `f1k` in every path
and format, and `terms --form comm`.  The large-n pins (n = 6 and n = 10, where
the f[1, k] sum has the most terms) were recorded at commit d060f6a, and the
frontier pins at (2,14) and (3,10), whose f[m, k] sums take longer Horner
chains than the benchmark labels, at commit 01a98fe.  The pins of the graded
f[1, k] pass at (k, n) = (10, 3) and (6, 5), and of `terms` at (5, 6), were
recorded at commit e2fcda1, before that pass ran in integers scaled by d!.
The `verify --mode numeric` pins at (2,14), (3,10), (2,10) at --dim 64 and
(4,7) at --dim 16 were recorded at commit 7b5e81b, before `substitute`
evaluated every W_m in one walk over the words' prefix tree.
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


@pytest.mark.parametrize(
    "flags, digest",
    [
        ("--n 2 --max-degree 14 --t 0.5,0.4", "b7b16da6379bcbde1dcf7fc6fbe610e7873499cbf31aa5b609ce9c4617ba55fe"),
        ("--n 3 --max-degree 10", "7e088ac8b6b5d39301f4bf20f0210dc90710afd55573159a0a25aa9e4db8d1f0"),
        ("--n 2 --max-degree 10 --dim 64", "783970630cf723920cae3a258f0beb36bed395547b1c0926708bb8153993f624"),
        ("--n 4 --max-degree 7 --dim 16", "94b1b15cdf3b3ddf0c4e81c46452586457dbbd47dbdd665ebea2d99db7d60ddd"),
    ],
)
def test_verify_numeric_report_is_pinned(cli, flags, digest):
    # Prefix trees of many levels, cut into many chunks (at --dim 64 one node
    # each), and conclusive orders, so the residuals' floats are all compared.
    r = cli("verify", "--mode", "numeric", *flags.split())
    assert r.returncode == EXIT_OK
    assert json.loads(r.stdout)["inconclusive"] is False
    assert sha256(r.stdout) == digest


@pytest.mark.parametrize(
    "path, format, digest",
    [
        ("comm", "text", "c574af677057a0815fcc07244237893a0f4346bd3fd7c254f5f3b1a0e2e18e4a"),
        ("comm", "latex", "a8dc9271efd7d01435c1550f5379fd6fca4eada2591922cccafca50cfd1622b2"),
        ("comm", "json", "07c8fd2921a82d81092efb6a1eaed2d84c280928776bb7fa8e7d1512c99d09f4"),
        ("direct", "text", "359c740cc11cd5de7c7324f7203a3d412fbbc9ae5cee75899773b746a43e47b1"),
        ("direct", "latex", "062aa6e6152d44f84fdf1c6e320a67b52f9520f9bb94aa7c82c969f4f6de8eda"),
        ("direct", "json", "89f51f360146b0ac6c70c0f8a55295c2ac02c75a5485412f146ae4b5c872e8e5"),
        ("both", "text", "c574af677057a0815fcc07244237893a0f4346bd3fd7c254f5f3b1a0e2e18e4a"),
        ("both", "latex", "a8dc9271efd7d01435c1550f5379fd6fca4eada2591922cccafca50cfd1622b2"),
        ("both", "json", "463e7bbddfe5f368dc298bc90819214a2ef6eb32ee3675b7697fdb346faa8662"),
    ],
)
def test_f1k_outputs_are_pinned(cli, path, format, digest):
    # One digest over the stdout of f1k for k = 1..6 (outer) and n = 1..3 (inner).
    out = []
    for k in range(1, 7):
        for n in range(1, 4):
            r = cli("f1k", "--k", k, "--n", n, "--path", path, "--format", format)
            assert r.returncode == EXIT_OK
            out.append(r.stdout)
    assert sha256("".join(out)) == digest


@pytest.mark.parametrize(
    "n, format, digest",
    [
        (1, "text", "c43bd52e52ca70571c4ee4b7409dddfcea2b96c29114028cbd6f5e0af9d8a47f"),
        (1, "latex", "bf9e0f67134d75397b1f3da39721fd101e9f323bc212464bcdc28b656a0c98cf"),
        (2, "text", "d4f2383d8c079880965e1fde1079e09d904c8272365425f066bde45a98656b5a"),
        (2, "latex", "f217c0c442ce85e00dc9682dce33ea325ce37abe4defc90e50e8a480b99ed169"),
        (3, "text", "bda9eaf98beb8dcf3cc973514d9cb731a57535d8075588bea0154230de6a3890"),
        (3, "latex", "ca979eadb726fb169ebadd756dec8e186242225757643d3476f53affcefaf0ee"),
        (4, "text", "b202b88637ed583f5ce71d69404e6d3f12ff0f9fe4d121846687cc19da1f4c44"),
        (4, "latex", "9e9f46c0a96045f437f3727b0d31cb60c1c093c52d1d9d947c44fc8cd2e0359c"),
    ],
)
def test_commutator_form_is_pinned(cli, n, format, digest):
    r = cli("terms", "--n", n, "--max-degree", 6, "--form", "comm", "--format", format)
    assert r.returncode == EXIT_OK
    assert sha256(r.stdout) == digest


@pytest.mark.parametrize(
    "label, digest",
    [
        ("terms --n 6 --max-degree 6 --format json", "c5b0060e7009fce4378df12a35ad8b646bd2cd3c8d8d7aab7cd3febdeac16312"),
        ("terms --n 10 --max-degree 4 --format json", "e81ad4af37f0dd21a1debc9ad029897d055078abd74661364bd278779616318c"),
        ("f1k --k 4 --n 6 --path direct --format json", "8c19ea1ee837f3ae2a9335b63daea4d5025e7a675db9f9548915d0ad3cac5824"),
        ("terms --n 2 --max-degree 14 --format json", "0355b4da8b01aac8d887e6afe34c9c29b6752682e706fa34b99644cf2978b1c3"),
        ("terms --n 3 --max-degree 10 --format json", "43296c48dfb3870cfd03a939060e45e16d3102ade822259f8bec9eecbe251902"),
        ("f1k --k 10 --n 3 --path direct --format json", "fe989610b429f57a4bb97f07dbdaae9fbd9205e5f812d1472612f6d5a527cbb5"),
        ("f1k --k 6 --n 5 --path direct --format json", "9235197892b4504e78dbe8f570915cb1ee58fb8f201acff06e69d88eb8e84361"),
        ("terms --n 5 --max-degree 6 --format json", "5cbbbfaf5286e177ab53ba390ec9129cb287fdda06696ffef3b22a0c5ed5f5db"),
    ],
)
def test_large_n_outputs_are_pinned(cli, label, digest):
    r = cli(*label.split())
    assert r.returncode == EXIT_OK
    assert sha256(r.stdout) == digest
