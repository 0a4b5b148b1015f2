"""Record the SHA-256 digests of the `terms` outputs the benchmark checks.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

For every (n, K) of a `terms` command in the workloads, `verify --mode
exact` and `verify --mode oracle` must pass first; only then is the
uncached output of each command digested.  A `cached` request must
reproduce the uncached output byte for byte, so it shares its digest.
Writes `perfbench/digests.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from run import HERE, _git_commit, load_cli
from workloads import CACHED, CROSSCHECK, TERMS, commands


def _run(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"error: exit {rc} from {' '.join(argv)}")
    return out.getvalue()


def main() -> int:
    cli = load_cli()
    cmds = {c.label: c for w in ("series", "cached") for c in commands(w, 0) if c.kind in (TERMS, CROSSCHECK, CACHED)}
    for n, k in sorted({(c.n, c.max_degree) for c in cmds.values()}):
        for mode in ("exact", "oracle"):
            report = json.loads(_run(cli.main, ["verify", "--mode", mode, "--n", str(n), "--max-degree", str(k)]))
            if report["pass"] is not True:
                raise SystemExit(f"error: verify --mode {mode} fails at n={n}, K={k}")
            print(f"verified {mode:6s} n={n} K={k}", file=sys.stderr)
    digests = {label: hashlib.sha256(_run(cli.main, list(c.argv)).encode()).hexdigest() for label, c in sorted(cmds.items())}
    doc = {
        "commit": _git_commit(),
        "checked_with": ["verify --mode exact", "verify --mode oracle"],
        "digests": digests,
    }
    (HERE / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
