"""Command line front end: cache, render, and verify the W_m the engine computes.

Three subcommands:

    terms   print W_2..W_K (associative or commutator form; text, LaTeX,
            or JSON), optionally backed by an on-disk cache
    verify  run the exact / oracle / numeric checks and print a JSON report
    f1k     print the base-family element f[1, k] from either closed form

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
--out file or cache root that cannot be used, and a request that runs out
of memory), 3 internal invariant breach (path disagreement, corrupted cache
entry), 141 stdout closed by its reader before the output was written (as
in `zassenhaus terms ... | head`), with no traceback.

All output is deterministic for fixed flags (and seed, where one
applies): JSON has sorted keys and fixed separators, byte for byte as
`json.dumps(doc, sort_keys=True, separators=(",", ":"))` writes it, and
term order is canonical everywhere.  `terms` and `verify` hold each W_m
as the engine's reduced dense degree block (den, nums), from
`EngineCtx.series_blocks` or the cache to the output or verdict:
`freealg.render_block` writes text, LaTeX and the JSON "poly" straight
from the block, a cache entry stores its numerators as machine words,
and the exact, oracle and numeric checks compute on blocks, as does the
cross-check of `--path both` (`EngineCtx.w_block_expanded`).  Dicts are
made only where a consumer needs one: `--form comm` renders the `LieExpr`
of W_2..W_4, and `f1k` works on `AssocPoly` values, its `--path both`
comparing the term map of `lieform.expand` with `f1k_direct`'s.  No path
calls the dict product (`freealg.mul`, `bracket`).  `terms` writes its
output in chunks, one W_m each, rendered only when written, so that one
rendering at a time is alive.
The cache layout is

    <root>/<cache-version>/n<n>/W<m>.bin

where <root> comes from --cache, or else the ZASSENHAUS_CACHE_DIR
environment variable.  W_m depends only on (n, m), so an entry serves
every K and --path, and `--path both` still cross-checks a cached value.
The engine does no I/O: `terms` reads the entries W_2..W_K first, hands
the hits to `EngineCtx` as known blocks, and writes each of those W_m
that was missing as soon as `series_blocks` yields it.  An interrupted
run keeps every entry it finished, and a --path both run whose
cross-check fails at W_m writes no W_m.
An entry holds W_m in context (n, m) as the engine's dense degree block
(q, nums) (see `freealg`), where nums holds the numerators of all n^m
words of degree m in canonical order, zeros included, so the word of
nums[i] is implied by i; the coefficient of that word is nums[i]/q.  The
entry is three parts: the hex SHA-256 of the rest of the entry and a
newline; the header line of compact JSON with sorted keys,

    {"den":q,"key":{"format":6,"m":m,"n":n}}

and a newline; then the body, nums as L planes of n^m little-endian
64-bit words, so L = len(body) / (8 n^m).  L is the least L >= 1 with
-2^(64L-1) <= p < 2^(64L-1) for every numerator p (so 1 unless some
numerator needs more than 64 bits); plane t < L-1 holds the unsigned
words (p >> 64t) mod 2^64 and the last plane the signed words
p >> 64(L-1), and a load adds the planes back, top plane first.  q stays
in the header because it is the largest number of a block: stored as a
word, it would double the body of a block whose numerators fit one limb.
`cache_store` and `cache_load` hold (q, nums) to one rule,
`freealg.check_block`: nums is a list of exactly n^m ints (no bool or
float), q is a positive int and gcd(q, nums) == 1, so the zero
polynomial is all zeros over 1.  `cache_store` and `cache_load` import
`hashlib` and `array` on first use, so a run without a cache never loads
them.  A load compares the key first: an entry with another key is
stale and is recomputed.  Then a digest mismatch, a header with keys
other than "den" and "key", a body whose length is not a positive
multiple of 8 n^m, or a block that `check_block` refuses is an integrity
failure, never silently recomputed.  Trees of older cache versions
(<root>/2 to <root>/5) are never read or touched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from operator import add, and_, lshift, rshift
from pathlib import Path
from typing import Iterator, Sequence

from .engine import EngineCtx, PathDisagreementError, f1k_comm, f1k_direct, w_comm
from .freealg import AlgebraCtx, Block, block_length, check_block, render_block
from .lieform import LieExpr, expand, render
from .oracle import (
    MAX_DIM,
    check_numeric_args,
    check_ws,
    exact_identity_check,
    numeric_order_check,
    oracle_equivalence_check,
)

SCHEMA_VERSION = 1
CACHE_VERSION = 6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


class CacheCorruptionError(RuntimeError):
    """A cache entry failed its digest or does not hold a block in canonical form."""


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
    return root / str(CACHE_VERSION) / f"n{n}" / f"W{m}.bin"


def _cache_key(n: int, m: int) -> dict:
    return {"format": CACHE_VERSION, "n": n, "m": m}


# An entry is the hex SHA-256 of the rest of the entry and b"\n", then the header line
# _dumps({"den", "key"}) + "\n", then the body: the numerators as L planes of n^m little-endian
# 64-bit words, least significant plane first, L being the body's length over 8 n^m.
_WORD = (1 << 64) - 1


def _planes(nums: list[int]) -> list:
    """The limb planes of `nums`, least significant first: unsigned words ("Q"), the last plane signed ("q")."""
    from array import array  # see `cache_store`

    try:
        planes = [array("q", nums)]  # one limb, the common case, found without a min/max scan
    except OverflowError:
        limbs = max(max(nums), ~min(nums)).bit_length() // 64 + 1  # the sign bit included
        planes = [array("Q", map(and_, map(rshift, nums, repeat(64 * t)), repeat(_WORD))) for t in range(limbs - 1)]
        planes.append(array("q", map(rshift, nums, repeat(64 * (limbs - 1)))))
    _little_endian(planes)
    return planes


def _numerators(body: bytes, limbs: int, count: int) -> list[int]:
    """`_planes` undone: the `count` numerators from `limbs` planes of `count` words each, top plane first."""
    from array import array  # see `cache_store`

    size = 8 * count
    planes = [array("Q" if t < limbs - 1 else "q", body[size * t : size * (t + 1)]) for t in range(limbs)]
    _little_endian(planes)
    nums = planes.pop().tolist()
    while planes:
        nums = list(map(add, map(lshift, nums, repeat(64)), planes.pop()))
    return nums


def _little_endian(planes: list) -> None:
    """Swap the planes between host and entry byte order in place: nothing to do on a little-endian host."""
    if sys.byteorder == "big":
        for plane in planes:
            plane.byteswap()


def cache_store(root: Path, n: int, m: int, block: Block) -> Path:
    """Write W_m, given as its reduced block (den, nums), atomically: a killed run leaves no partial entry.

    A block that `freealg.check_block` refuses raises ValueError and writes
    nothing: a load would refuse its entry by the same rule.
    """
    # hashlib here and array in `_planes` and `_numerators`, not at the top: hashlib loads OpenSSL
    # and array takes 0.5-1 ms to import, which a run without --cache never needs.
    import hashlib

    den, nums = block
    check_block(n, m, den, nums)
    planes = _planes(nums)
    header = _dumps({"den": den, "key": _cache_key(n, m)}).encode() + b"\n"
    digest = hashlib.sha256(header)
    for plane in planes:
        digest.update(plane)
    target = _cache_file(root, n, m)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as out:
                out.write(digest.hexdigest().encode() + b"\n" + header)
                out.writelines(planes)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)  # only a failed write or rename leaves it: a replace moves it
            raise
    except OSError as exc:
        raise CacheAccessError(f"cannot write cache entry {target}: {exc.strerror or exc}") from exc
    return target


def cache_load(root: Path, n: int, m: int) -> Block | None:
    """The cached reduced block (den, nums) of W_m at n, or None on a clean miss; a bad entry raises."""
    import hashlib  # see `cache_store`

    target = _cache_file(root, n, m)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheAccessError(f"cannot read cache entry {target}: {exc.strerror or exc}") from exc
    try:
        digest, line, body = data.split(b"\n", 2)  # a ValueError if the digest or header line is missing
        header = json.loads(line)
    except (RecursionError, ValueError) as exc:
        raise CacheCorruptionError(f"unreadable cache entry {target}: {exc}") from exc
    if not isinstance(header, dict):
        raise CacheCorruptionError(f"cache entry {target} has no JSON object for its header line")
    if header.get("key") != _cache_key(n, m):
        return None  # stale key (e.g. older format version): recompute
    if hashlib.sha256(memoryview(data)[len(digest) + 1 :]).hexdigest().encode() != digest:
        raise CacheCorruptionError(f"digest mismatch in cache entry {target}")
    try:
        if set(header) != {"den", "key"}:
            raise ValueError("the header keys are not ['den', 'key']")
        den, count = header["den"], n**m
        limbs, extra = divmod(len(body), 8 * count)
        if extra or not limbs:
            raise ValueError(f"the body has {len(body)} bytes, not a positive multiple of 8 * {count} numerators")
        nums = _numerators(body, limbs, count)
        check_block(n, m, den, nums, ints=True)  # words decode to ints alone
    except (TypeError, ValueError) as exc:
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
    block_length(n, K)  # and a K whose block cannot exist, before W_2..W_K are looked up
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
    if args.mode in ("numeric", "all"):  # the other modes take no numeric arguments, so they do not judge them
        try:
            t_values = [float(part) for part in args.t.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"--t must be comma-separated numbers, got {args.t!r}") from None
        check_numeric_args(args.dim, args.seed, t_values)  # a usage error costs no work
    # K = 1 verifies the bare splitting; the checks share one validation of W_2..W_K.
    ws = check_ws(n, K, list(EngineCtx(AlgebraCtx(n, K)).series_blocks()) if K >= 2 else [])
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


_PARSER: argparse.ArgumentParser | None = None  # `main`'s parser, built on its first call


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        # Once per process, and not at import: building it takes about a millisecond, which a
        # process that calls main many times would pay on every call, and the import on every run.
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so that a closed stdout is caught below
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, which no check failed for.  Stdout is pointed at the
        # null device, so that the interpreter's final flush of what is left cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (PathDisagreementError, CacheCorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, CacheAccessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        pass  # reported below, once the traceback has let go of the failed call's frames and memory
    # All computing precedes the first chunk, so stdout is empty unless the rendering ran out.
    degree = f"k={args.k}" if args.command == "f1k" else f"K={args.max_degree}"
    print(f"error: out of memory in {args.command} at n={args.n}, {degree}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
