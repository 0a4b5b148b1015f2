"""Command line front end: cache, render, and verify the W_m the engine computes.

Three subcommands:

    terms   print W_2..W_K (associative or commutator form; text, LaTeX,
            or JSON), optionally backed by an on-disk cache
    verify  run the exact / oracle / numeric checks and print a JSON report
    f1k     print the base-family element f[1, k] from either closed form

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
--out file or cache root that cannot be used, and a request that runs out
of memory), 3 internal invariant breach (path disagreement, corrupted cache
entry).

All output is deterministic for fixed flags (and seed, where one
applies): JSON has sorted keys and fixed separators, byte for byte as
`json.dumps(doc, sort_keys=True, separators=(",", ":"))` writes it, and
term order is canonical everywhere.  `terms` holds each W_m as the
engine's reduced dense degree block (den, nums), from
`EngineCtx.series_blocks` or the cache to its output:
`freealg.render_block` writes text, LaTeX and the JSON "poly" straight
from the block, and the cache payload is one `json.dumps` of the block's
numerator list.  Dicts are made only where a
consumer needs one: `--path both` compares polynomials, `--form comm`
renders the `LieExpr` of W_2..W_4, and `f1k` and `verify` work on
`AssocPoly` values.  `terms` writes its output in chunks, one W_m each,
rendered only when written, so that one rendering at a time is alive.
The cache layout is

    <root>/<cache-version>/n<n>/W<m>.json

where <root> comes from --cache, or else the ZASSENHAUS_CACHE_DIR
environment variable.  W_m depends only on (n, m), so an entry serves
every K and --path, and `--path both` still cross-checks a cached value.
The engine does no I/O: `terms` reads the entries W_2..W_K first, hands
the hits to `EngineCtx` as known blocks, and writes each of those W_m
that was missing as soon as `series_blocks` yields it.  An interrupted
run keeps every entry it finished, and a --path both run whose
cross-check fails at W_m writes no W_m.
An entry holds W_m in context (n, m) as the engine's dense degree block
(see `freealg`), one line of compact JSON with sorted keys:

    {"digest":<hex>,"key":{"format":4,"m":m,"n":n},"payload":{"den":q,
     "maxDegree":m,"n":n,"nums":[p_0,...,p_(n^m-1)]}}

where nums holds the numerators of all n^m words of degree m in canonical
order, zeros included, so the word of nums[i] is implied by i; the
coefficient of that word is nums[i]/q.  The payload has exactly these
four keys, and `cache_store` and `cache_load` hold (q, nums) to one rule,
`freealg.check_block`: nums is a list of exactly n^m ints (no bool or
float), q is a positive int and gcd(q, nums) == 1, so the zero polynomial
is all zeros over 1.  The SHA-256 digest covers the payload bytes exactly
as written, so a load hashes what it read.  A digest mismatch, or a
payload that is not in this canonical form, is an integrity failure on
load, never silently recomputed; an entry with another key is stale and
is recomputed.  Trees of older cache versions (<root>/2, <root>/3) are
never read or touched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Iterator, Sequence

from .engine import EngineCtx, PathDisagreementError, f1k_comm, f1k_direct, series, w_comm
from .freealg import AlgebraCtx, Block, check_block, render_block
from .lieform import LieExpr, expand, render
from .oracle import (
    MAX_DIM,
    check_numeric_args,
    exact_identity_check,
    numeric_order_check,
    oracle_equivalence_check,
)

SCHEMA_VERSION = 1
CACHE_VERSION = 4

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CacheCorruptionError(RuntimeError):
    """A cache entry failed its digest or key consistency check."""


class CacheAccessError(RuntimeError):
    """The cache root cannot be read or written (e.g. it is a regular file)."""


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- cache --------------------------------------------------------------------


def cache_root(flag_value: str | None) -> Path | None:
    """Explicit --cache wins; else the environment override; else no cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("ZASSENHAUS_CACHE_DIR")
    return Path(env) if env else None


def _cache_file(root: Path, n: int, m: int) -> Path:
    return root / str(CACHE_VERSION) / f"n{n}" / f"W{m}.json"


def _cache_key(n: int, m: int) -> dict:
    return {"format": CACHE_VERSION, "n": n, "m": m}


# An entry is _dumps({"digest", "key", "payload"}) + "\n": the payload comes
# last, between this mark and the closing b"}\n", and the digest covers those bytes.
_PAYLOAD_MARK = b',"payload":'
_PAYLOAD_KEYS = {"den", "maxDegree", "n", "nums"}


def cache_store(root: Path, n: int, m: int, block: Block) -> Path:
    """Write W_m, given as its reduced block (den, nums), atomically: a killed run leaves no partial entry.

    A block that `freealg.check_block` refuses raises ValueError and writes
    nothing: a load would refuse its entry by the same rule.
    """
    den, nums = block
    check_block(n, m, den, nums)
    # The C encoder writes the int list in bounded chunks: 26 ms and a 4.6 MB peak at n = 3, m = 11,
    # against 45 ms and 12.5 MB for ",".join(map(str, nums)) (best of 5, peak by tracemalloc;
    # 2 CPUs, Python 3.11.7).
    payload = _dumps({"den": den, "maxDegree": m, "n": n, "nums": nums}).encode()
    header = _dumps({"digest": hashlib.sha256(payload).hexdigest(), "key": _cache_key(n, m)}).encode()
    entry = header[:-1] + _PAYLOAD_MARK + payload + b"}\n"
    target = _cache_file(root, n, m)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(entry)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise CacheAccessError(f"cannot write cache entry {target}: {exc.strerror or exc}") from exc
    return target


def cache_load(root: Path, n: int, m: int) -> Block | None:
    """The cached reduced block (den, nums) of W_m at n, or None on a clean miss; a bad entry raises."""
    target = _cache_file(root, n, m)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheAccessError(f"cannot read cache entry {target}: {exc.strerror or exc}") from exc
    head, mark, tail = data.partition(_PAYLOAD_MARK)
    try:
        header = json.loads(head + b"}")
    except (RecursionError, ValueError) as exc:
        raise CacheCorruptionError(f"unreadable cache entry {target}: {exc}") from exc
    if not mark or not isinstance(header, dict):
        raise CacheCorruptionError(f"cache entry {target} is not a JSON object ending in its payload")
    if header.get("key") != _cache_key(n, m):
        return None  # stale key (e.g. older format version): recompute
    payload_bytes = tail[:-2]
    if tail[-2:] != b"}\n" or hashlib.sha256(payload_bytes).hexdigest() != header.get("digest"):
        raise CacheCorruptionError(f"digest mismatch in cache entry {target}")
    try:
        payload = json.loads(payload_bytes)
        if set(payload) != _PAYLOAD_KEYS:
            raise ValueError(f"payload keys are not {sorted(_PAYLOAD_KEYS)}")
        ctx = AlgebraCtx(payload["n"], payload["maxDegree"])
        if ctx != AlgebraCtx(n, m):
            raise ValueError(f"payload context {ctx} is not {AlgebraCtx(n, m)}")
        den, nums = payload["den"], payload["nums"]
        check_block(n, m, den, nums)
    except (RecursionError, TypeError, ValueError) as exc:
        raise CacheCorruptionError(f"malformed cache entry {target}: {exc!r}") from exc
    return den, nums


# -- terms --------------------------------------------------------------------


def _terms_lines(args: argparse.Namespace) -> Iterator[str]:
    """W_2..W_K, read from and written to the cache, as output chunks rendered when they are consumed.

    All of the computing and caching is done before the first chunk, and
    only one W_m's rendering is alive at a time.  Each W_m is held and
    rendered as its dense block (`render_block`).
    """
    n, K = args.n, args.max_degree
    alg = AlgebraCtx(n, K)  # refuses a bad n or K before any cache read
    root = cache_root(args.cache)
    hits = {m: cache_load(root, n, m) for m in range(2, K + 1)} if root else {}
    known = {m: block for m, block in hits.items() if block is not None}
    rows = []
    for m, block in enumerate(EngineCtx(alg, known).series_blocks(args.path), start=2):
        if root and m not in known:
            cache_store(root, n, m, block)  # as soon as W_m is final: a killed run keeps it
        rows.append((m, block, w_comm(m, n) if args.form == "comm" else None))

    if args.format == "json":
        return _terms_json(args, alg, rows)
    head = "W_{{{}}} = " if args.format == "latex" else "W{} = "
    return (f"{head.format(m)}{_body(comm, alg, m, block, args.format)}\n" for m, block, comm in rows)


def _body(comm: LieExpr | None, alg: AlgebraCtx, m: int, block: Block, format: str) -> str:
    """The commutator form when there is one, else W_m from its block, in text or LaTeX."""
    return render_block(alg, m, *block, format) if comm is None else render(comm, format)


def _terms_json(
    args: argparse.Namespace, alg: AlgebraCtx, rows: list[tuple[int, Block, LieExpr | None]]
) -> Iterator[str]:
    # The document as `_dumps` would write it, keys sorted; each W_m is written as its own chunk.
    form, path = _dumps(args.form), _dumps(args.path)
    yield f'{{"form":{form},"maxDegree":{args.max_degree},"n":{args.n},"path":{path},"terms":['
    sep = ""
    for m, block, comm in rows:
        yield f'{sep}{{{_comm_member(comm)}"m":{m},"poly":'
        yield render_block(alg, m, *block, "json")
        yield "}"
        sep = ","
    yield f'],"version":{SCHEMA_VERSION}}}\n'


def _comm_member(comm: LieExpr | None) -> str:
    """The "comm" member of a JSON object and its comma, or nothing without a commutator form."""
    return "" if comm is None else f'"comm":{_dumps(render(comm, "text"))},'


def cmd_terms(args: argparse.Namespace) -> int:
    chunks = _terms_lines(args)
    if args.out:
        try:
            with open(args.out, "w") as out:
                out.writelines(chunks)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    n, K = args.n, args.max_degree
    t_values = [float(part) for part in args.t.split(",") if part.strip()]
    if args.mode in ("numeric", "all"):
        check_numeric_args(args.dim, args.seed, t_values)  # a usage error costs no work
    ws = list(series(EngineCtx(AlgebraCtx(n, K)))) if K >= 2 else []  # K = 1 verifies the bare splitting
    reports = []
    if args.mode in ("exact", "all"):
        reports.append(exact_identity_check(n, K, ws))
    if args.mode in ("oracle", "all"):
        reports.append(oracle_equivalence_check(n, K, ws))
    if args.mode in ("numeric", "all"):
        reports.append(numeric_order_check(n, K, args.dim, args.seed, t_values, ws=ws))
    overall = all(r.passed for r in reports)
    if args.mode == "all":
        doc: object = {"pass": overall, "checks": [r.to_json_dict() for r in reports]}
    else:
        doc = reports[0].to_json_dict()
    sys.stdout.write(_dumps(doc) + "\n")
    return EXIT_OK if overall else EXIT_VERIFY_FAILED


# -- f1k ----------------------------------------------------------------------


def cmd_f1k(args: argparse.Namespace) -> int:
    k, n = args.k, args.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ctx = AlgebraCtx(n, k + 1)
    comm = f1k_comm(k, n) if args.path in ("comm", "both") else None
    direct = f1k_direct(k, ctx) if args.path in ("direct", "both") else None
    if args.path == "both" and expand(comm, ctx) != direct:
        raise PathDisagreementError(
            f"f[1,{k}]: commutator form and nested-ad form disagree at n={n}"
        )
    if args.format == "json":
        # The document as `_dumps` would write it, keys sorted.
        path, poly = _dumps(args.path), "" if direct is None else f'"poly":{direct.to_json()},'
        sys.stdout.write(f'{{{_comm_member(comm)}"k":{k},"n":{n},"path":{path},{poly}"version":{SCHEMA_VERSION}}}\n')
        return EXIT_OK
    prefix = f"f_{{1,{k}}} = " if args.format == "latex" else f"f[1,{k}] = "
    if comm is not None:
        body = render(comm, args.format)
    else:
        body = direct.latex() if args.format == "latex" else direct.text()
    sys.stdout.write(prefix + body + "\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zassenhaus",
        description="Exponents W_m of the ordered splitting "
        "e^(X1+...+Xn) = e^(X1)...e^(Xn) e^(W2) e^(W3) ...",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_terms = sub.add_parser("terms", help="compute and print W_2..W_K")
    p_terms.add_argument("--n", type=int, default=2, help="number of generators (default 2)")
    p_terms.add_argument("--max-degree", type=int, default=6, help="truncation degree K (default 6)")
    p_terms.add_argument("--path", choices=("generic", "both"), default="generic")
    p_terms.add_argument("--form", choices=("assoc", "comm"), default="assoc")
    p_terms.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_terms.add_argument("--out", help="write output to this file instead of stdout")
    p_terms.add_argument("--cache", help="cache directory root (or set ZASSENHAUS_CACHE_DIR)")
    p_terms.set_defaults(func=cmd_terms)

    p_verify = sub.add_parser("verify", help="check the splitting against the oracles")
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--max-degree", type=int, default=6)
    p_verify.add_argument("--mode", choices=("exact", "numeric", "oracle", "all"), default="all")
    p_verify.add_argument("--dim", type=int, default=4, help=f"matrix dimension for numeric mode, 1..{MAX_DIM} (default 4)")
    p_verify.add_argument("--seed", type=int, default=42, help="RNG seed for numeric mode")
    p_verify.add_argument("--t", default="0.2,0.1", help="comma-separated step sizes for numeric mode")
    p_verify.set_defaults(func=cmd_verify)

    p_f1k = sub.add_parser("f1k", help="print the base-family element f[1,k]")
    p_f1k.add_argument("--k", type=int, required=True)
    p_f1k.add_argument("--n", type=int, default=2)
    p_f1k.add_argument("--path", choices=("comm", "direct", "both"), default="comm")
    p_f1k.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_f1k.set_defaults(func=cmd_f1k)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PathDisagreementError, CacheCorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, CacheAccessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # All computing precedes the first chunk, so stdout is empty unless the rendering ran out.
        degree = f"k={args.k}" if args.command == "f1k" else f"K={args.max_degree}"
        print(f"error: out of memory in {args.command} at n={args.n}, {degree}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
