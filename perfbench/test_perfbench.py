"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json

import pytest

from run import CHECKOUT, HERE, Result, check_output, class_seconds, counts, load_cli, run_pass, unit_of, wall_ref
from spans import PROBE, ROOT, Span, Tracer, installed, layer_metrics, self_times
from workloads import CACHED, CROSSCHECK, TERMS, WORKLOADS, Command, commands, pass_orders

cli = load_cli()
DIGESTS = json.loads((HERE / "digests.json").read_text())["digests"]
SMALL = Command(TERMS, ("terms", "--n", "3", "--max-degree", "4", "--form", "comm", "--format", "latex"), 3, 4)


def test_self_times_on_recursive_chain():
    # cli.main -> fmk -> w_term -> fmk -> (bracket, probe): the recursion
    # must not count the inner fmk twice.
    spans = [
        Span(ROOT, 0.0, 10.0, -1, 0),
        Span("engine.fmk", 1.0, 9.0, 0, 0),
        Span("engine.w_term", 2.0, 8.0, 1, 0),
        Span("engine.fmk", 3.0, 7.0, 2, 0),
        Span("freealg.bracket", 4.0, 5.0, 3, 0),
        Span(PROBE, 5.0, 5.5, 3, 0),
    ]
    st = self_times(spans)
    assert st == pytest.approx(
        {ROOT: 2.0, "engine.fmk": 2.0 + 2.5, "engine.w_term": 2.0, "freealg.bracket": 1.0, PROBE: 0.5}
    )
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_times_clip_overlapping_children():
    spans = [Span("a", 0.0, 4.0, -1, 0), Span("b", 1.0, 3.0, 0, 0), Span("c", 2.0, 5.0, 0, 0)]
    assert self_times(spans)["a"] == pytest.approx(1.0)


def test_installed_patches_importing_modules_and_restores_them():
    from zassenhaus import engine, freealg, oracle

    original = freealg.bracket
    tracer = Tracer()
    with installed(tracer):
        assert engine.bracket is not original and engine.bracket is freealg.bracket
        assert oracle.exp_trunc is freealg.exp_trunc
        tracer.call(ROOT, engine.EngineCtx(freealg.AlgebraCtx(2, 7)).w_term, (7,), {})
    assert engine.bracket is original and freealg.bracket is original

    spans = [s for s in tracer.spans if s is not None]
    m = layer_metrics(tracer)
    assert m["freealg.bracket.calls"] > 0 and m["freealg.bracket.pairs"] > 0
    assert m["engine.fmk.memo_hit_ratio"] > 0
    # fmk -> w_term -> fmk chains exist, and self times add up to the root span.
    name = {i: s.name for i, s in enumerate(spans)}
    assert any(
        s.name == "engine.fmk" and name[s.parent] == "engine.w_term" and name[spans[s.parent].parent] == "engine.fmk"
        for s in spans
    )
    assert sum(self_times(spans).values()) == pytest.approx(spans[0].end - spans[0].start)


def test_corrupted_output_raises_fail_share():
    def corrupted(argv):
        rc = cli.main(argv)
        print("%")
        return rc

    good = run_pass([SMALL], cli.main, DIGESTS, HERE)
    bad = run_pass([SMALL], corrupted, DIGESTS, HERE)
    assert counts([good])["fail_share"] == 0
    assert counts([bad])["fail_share"] == 1
    assert counts([good, bad])["fail_share"] == 0.5


def test_check_output_rules():
    verify = Command("verify", ("verify",), 2, 10)
    report = {"pass": True, "checks": [{"mode": "exact"}, {"mode": "numeric", "inconclusive": True}]}
    assert check_output(verify, 0, json.dumps(report), DIGESTS) == (True, 1, 1)
    assert check_output(verify, 1, json.dumps(report), DIGESTS)[0] is False
    assert check_output(verify, 0, json.dumps({**report, "pass": False}), DIGESTS)[0] is False
    assert check_output(SMALL, 2, "", DIGESTS)[0] is False


def test_cold_and_warm_classes():
    def res(n, k, seconds):
        return Result(Command(CACHED, ("terms", str(n), str(k)), n, k), seconds, True, ref=0.5)

    passes = [
        (0, [res(2, 10, 5.0), res(2, 10, 1.0), res(3, 8, 7.0), res(2, 10, 2.0)]),
        (0, [res(3, 8, 9.0), res(2, 10, 4.0), res(2, 10, 1.0), res(2, 10, 3.0)]),
    ]
    out = class_seconds(passes)
    assert out["terms_cold_s"] == pytest.approx(4.5 + 8.0)
    assert out["terms_warm_s"] == pytest.approx(2 * 1.5)
    assert wall_ref(passes) == pytest.approx(2 * (4.5 + 8.0 + 2 * 1.5))


def test_seed_orders_are_reproducible_shuffles():
    for workload in WORKLOADS:
        a, b = pass_orders(workload, 7), pass_orders(workload, 7)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert all(sorted(o, key=str) == sorted(commands(workload, 7), key=str) for o in first)


def test_every_checked_output_has_a_digest():
    for workload in WORKLOADS:
        for c in commands(workload, 0):
            if c.kind in (TERMS, CROSSCHECK, CACHED):
                assert c.label in DIGESTS


def test_benchmark_spec_matches_reported_metrics():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    per_layer = set(layer_metrics(Tracer())) | {"trace_overhead_share"}
    for m in spec["per_layer"]:
        assert m["name"] in per_layer and m["unit"] == unit_of(m["name"])
    for m in spec["end_to_end"]:
        assert m["name"] in {"setup_s", "wall_ref", "peak_rss_mb"} and m["unit"] == unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
