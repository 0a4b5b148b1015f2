"""The benchmark's workloads: fixed multisets of `zassenhaus` CLI commands.

Each workload is a multiset of argv lists for `zassenhaus.cli.main`.  A
pass runs every command once, in an order drawn from the workload seed;
the seed also sets `verify --seed`.  Nothing else about the inputs
depends on the seed, so every pass does the same work.

Why these workloads (the bench grid of the project roadmap):

* series  -- the engine recursion and `freealg.bracket` on homogeneous
             operands do most of the work; `mul`, `exp_trunc` and
             `log_trunc` sit idle, so a `bracket` or `fmk` change shows here.
* verify  -- the oracles and `mul`/`exp_trunc`/`log_trunc` on mixed-degree
             operands do most of the work and the engine about a tenth, so
             a homogeneous-only `bracket` speed-up should leave it flat.  At
             (2,10) the numeric check is often inconclusive; it stays in so
             that the share of inconclusive checks stays visible.
* cached  -- cache writes (first request per (n, K) in a pass) beside cache
             reads (the rest), through a fresh `--cache` directory per pass.
             (2,10) and (2,12) share W_2..W_10, so a cache keyed without K
             shows as a gain here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Command kinds; each end-to-end timing class is a set of kinds.
TERMS = "terms"  # generic `terms`, no cache
CROSSCHECK = "crosscheck"  # `terms --path both`
F1K = "f1k"  # `f1k --path both`
VERIFY = "verify"  # `verify --mode all`
CACHED = "cached"  # `terms --cache DIR`


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    `label` is the argv without `--cache DIR`: the key of the expected
    output digest, and the same for a cached request as for the uncached
    request whose output it must reproduce byte for byte.
    """

    kind: str
    argv: tuple[str, ...]
    n: int
    max_degree: int

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def argv_with_cache(self, cache_dir: str | None) -> list[str]:
        return [*self.argv, "--cache", cache_dir] if self.kind == CACHED else list(self.argv)


def _terms(kind: str, n: int, max_degree: int, *extra: str) -> Command:
    argv = ("terms", "--n", str(n), "--max-degree", str(max_degree), *extra)
    return Command(kind, argv, n, max_degree)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's multiset of commands, in a fixed canonical order."""
    if workload == "series":
        return [
            _terms(TERMS, 2, 12, "--format", "json"),
            _terms(TERMS, 3, 9, "--format", "json"),
            _terms(TERMS, 4, 7, "--format", "json"),
            _terms(CROSSCHECK, 2, 11, "--path", "both"),
            Command(F1K, ("f1k", "--k", "8", "--n", "3", "--path", "both"), 3, 9),
            _terms(TERMS, 3, 4, "--form", "comm", "--format", "latex"),
        ]
    if workload == "verify":
        verify_seed = str(seed % 2**32)
        return [
            Command(
                VERIFY,
                ("verify", "--mode", "all", "--n", str(n), "--max-degree", str(k), "--seed", verify_seed),
                n,
                k,
            )
            for n, k in ((2, 10), (3, 7))
        ]
    if workload == "cached":
        return [
            _terms(CACHED, n, k, "--format", fmt)
            for n, k in ((2, 10), (2, 12), (3, 8), (3, 9))
            for fmt in ("json", "text", "latex")
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("series", "verify", "cached")


def pass_orders(workload: str, seed: int):
    """Endless stream of passes: each a seeded shuffle of the workload's commands."""
    cmds = commands(workload, seed)
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.sample(cmds, len(cmds))
