"""In-memory spans around calls into the zassenhaus modules, from outside the package.

`installed(tracer)` wraps the public functions and methods of each
module for the duration of a `with` block.  Modules import kernel
functions by name (`engine` binds `bracket`, `ad_pow` and `poly_sum`;
`lieform` binds `bracket`; `oracle` binds `exp_trunc`, `log_trunc` and
`poly_sum`; `cli` binds the oracle checks, `f1k_direct`, `expand` and
`render`), so every module
binding that refers to a wrapped function is replaced, not only the
defining module's attribute.  Methods are wrapped on their class.

A span is (name, start, end, parent, root).  A layer's self time is the
sum over its spans of the span's duration minus the part of it that
child spans cover.  Counters computed from call arguments and results
(word pairs, memo keys, cache bytes) run after the call; their time is
recorded as a `trace.probe` child of the caller, so it is charged to
neither the callee nor the caller.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

PACKAGE = "zassenhaus"
PROBE = "trace.probe"
ROOT = "cli.main"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    root: int  # index of the root span of the same command


class Tracer:
    """Spans and counters of the calls made while the tracer is installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.max_coeff_bits = 0
        self.keys: dict[str, set] = defaultdict(set)
        self.store_sizes: dict[tuple, int] = {}
        self._stack: list[int] = []

    @property
    def root(self) -> int:
        return self._stack[0] if self._stack else -1

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, probe: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span; then run the probe, if any."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        root = stack[0] if stack else idx
        self.spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[idx] = Span(name, start, end, parent, root)
        if probe is not None:
            probe(self, args, result)
            self.spans.append(Span(PROBE, end, perf_counter(), parent, root))
        return result

    def wrap(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, probe)

        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time the span's children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


# -- probes -----------------------------------------------------------------


def _term_map(poly) -> dict:
    # The word -> coefficient map itself when the representation has one;
    # sorting `terms()` in every probe would cost as much as the kernel calls.
    terms = getattr(poly, "_terms", None)
    return terms if isinstance(terms, dict) else dict(poly.terms())


def _bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _kernel_probe(layer: str) -> Callable:
    """Word pairs formed (degree sum <= K), words out and coefficient size."""

    def probe(tracer: Tracer, args: tuple, result) -> None:
        a, b = args[0], args[1]
        cap = a.ctx.max_degree
        hb = Counter(map(len, _term_map(b)))
        pairs = sum(
            ca * cb
            for da, ca in Counter(map(len, _term_map(a))).items()
            for db, cb in hb.items()
            if da + db <= cap
        )
        tracer.counts[f"{layer}.pairs"] += pairs
        tracer.counts[f"{layer}.words_out"] += len(result)
        bits = max(map(_bits, _term_map(result).values()), default=0)
        tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)

    return probe


def _memo_probe(layer: str) -> Callable:
    def probe(tracer: Tracer, args: tuple, result) -> None:
        ctx, *key = args
        tracer.keys[layer].add((tracer.root, id(ctx), *key))

    return probe


def _cache_store_probe(tracer: Tracer, args: tuple, result) -> None:
    # cache_store(root, n, K, m, path, poly) writes what cache_load(root, n, K, m, path) reads.
    if isinstance(result, (str, os.PathLike)):
        size = os.path.getsize(result)
        tracer.store_sizes[args[:-1]] = size
        tracer.counts["cli.cache_store.bytes"] += size


def _cache_load_probe(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:
        tracer.counts["cli.cache_load.hits"] += 1
        tracer.counts["cli.cache_load.bytes"] += tracer.store_sizes.get(args, 0)


# Traced layers: metric name -> (module, attribute or Class.method, probe).
LAYERS: dict[str, tuple[str, str, Callable | None]] = {
    "freealg.mul": ("freealg", "mul", _kernel_probe("freealg.mul")),
    "freealg.bracket": ("freealg", "bracket", _kernel_probe("freealg.bracket")),
    "freealg.ad_pow": ("freealg", "ad_pow", None),
    "freealg.exp_trunc": ("freealg", "exp_trunc", None),
    "freealg.log_trunc": ("freealg", "log_trunc", None),
    "freealg.poly_sum": ("freealg", "poly_sum", None),
    "freealg.from_json_dict": ("freealg", "AssocPoly.from_json_dict", None),
    "freealg.to_json_dict": ("freealg", "AssocPoly.to_json_dict", None),
    "freealg.text": ("freealg", "AssocPoly.text", None),
    "freealg.latex": ("freealg", "AssocPoly.latex", None),
    "lieform.expand": ("lieform", "expand", None),
    "lieform.render": ("lieform", "render", None),
    "engine.f1k_direct": ("engine", "f1k_direct", None),
    "engine.fmk": ("engine", "EngineCtx.fmk", _memo_probe("engine.fmk")),
    "engine.w_term": ("engine", "EngineCtx.w_term", _memo_probe("engine.w_term")),
    "engine.w_term_expanded": ("engine", "EngineCtx.w_term_expanded", None),
    "oracle.peel_oracle": ("oracle", "peel_oracle", None),
    "oracle.exact_identity_check": ("oracle", "exact_identity_check", None),
    "oracle.oracle_equivalence_check": ("oracle", "oracle_equivalence_check", None),
    "oracle.numeric_order_check": ("oracle", "numeric_order_check", None),
    "oracle.substitute": ("oracle", "substitute", None),
    "oracle.splitting_residual": ("oracle", "splitting_residual", None),
    "cli.cache_load": ("cli", "cache_load", _cache_load_probe),
    "cli.cache_store": ("cli", "cache_store", _cache_store_probe),
}


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route every traced function and method through `tracer`; restore on exit."""
    modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, (mod_name, attr, probe) in LAYERS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped: object = classmethod(tracer.wrap(name, raw.__func__, probe))
                else:
                    wrapped = tracer.wrap(name, raw, probe)
                undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = tracer.wrap(name, original, probe)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, binding, original))
                        setattr(m, binding, wrapped)
        yield tracer
    finally:
        for owner, binding, value in reversed(undo):
            setattr(owner, binding, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, named `<module>.<function>.<metric>`."""
    spans = [s for s in tracer.spans if s is not None]
    st = self_times(spans)
    calls = Counter(s.name for s in spans)
    out: dict[str, float] = {}
    for name in (ROOT, *LAYERS):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = st.get(name, 0.0)
    for layer in ("freealg.mul", "freealg.bracket"):
        out[f"{layer}.pairs"] = tracer.counts[f"{layer}.pairs"]
        out[f"{layer}.words_out"] = tracer.counts[f"{layer}.words_out"]
    # A bracket forms two words per pair; the share of them that cancel or merge.
    pairs = out["freealg.bracket.pairs"]
    out["freealg.bracket.cancel_ratio"] = 1 - out["freealg.bracket.words_out"] / (2 * pairs) if pairs else 0.0
    out["freealg.max_coeff_bits"] = tracer.max_coeff_bits
    for layer in ("engine.fmk", "engine.w_term"):
        n_calls = calls[layer]
        out[f"{layer}.memo_hit_ratio"] = (n_calls - len(tracer.keys[layer])) / n_calls if n_calls else 0.0
    loads = calls["cli.cache_load"]
    out["cli.cache_hit_ratio"] = tracer.counts["cli.cache_load.hits"] / loads if loads else 0.0
    out["cli.cache_load.bytes"] = tracer.counts["cli.cache_load.bytes"]
    out["cli.cache_store.bytes"] = tracer.counts["cli.cache_store.bytes"]
    out[f"{PROBE}.self_s"] = st.get(PROBE, 0.0)
    return out
