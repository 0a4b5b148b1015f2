"""Benchmark of the zassenhaus command line, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 40 --trace 0
    python3 -m pytest perfbench          # tests of the harness itself
    python3 perfbench/record_digests.py  # re-record the reference outputs

One single-threaded process imports `zassenhaus.cli` from `src/` and calls
`zassenhaus.cli.main(argv)` in-process as a closed loop with one client:
each command starts when the previous one has returned.  A pass runs the
workload's commands once, in an order drawn from the seed (see
`workloads.py`); passes repeat until `--seconds` would be exceeded.
Every output is checked (`check_output`): `terms` output against the
SHA-256 digests in `digests.json`, `verify` for exit 0 and "pass": true,
`f1k --path both` for exit 0.

--trace 0 reports the end-to-end metrics:

    setup_s        median time to import `zassenhaus.cli` in a fresh interpreter
    wall_s         median time of one pass
    wall_ref       one pass as the sum of per-command medians of command time
                   over the time of a fixed reference computation run around
                   it (`reference_seconds`); host speed drift cancels out
    terms_s, crosscheck_s, verify_s, terms_cold_s, terms_warm_s
                   sum of per-command medians of one class of commands
    peak_rss_mb    peak resident set size of the process
    fail_share, numeric_inconclusive_share

--trace 1 alternates untraced and traced passes (spans from `spans.py`)
and reports every per-layer metric plus `trace_overhead_share`.

The last line of stdout is the JSON result `{"correct", "attempted",
"failed", "metrics"}` with the metrics `BENCHMARK.json` lists for the
mode; the lines before it print every metric of the run with its unit,
and the run environment.  Only metrics that every workload has and that
are never zero are listed there (setup_s, wall_ref, peak_rss_mb; per
layer, times only for layers all workloads use).  A full record
(environment, all metrics, spans of the last traced pass) is written to
`perfbench/out/`.

`ZASSENHAUS_CACHE_DIR` is removed from the environment, so only the
`cached` workload touches a cache, in a fresh directory per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from spans import ROOT, Tracer, installed, layer_metrics
from workloads import CACHED, CROSSCHECK, F1K, TERMS, VERIFY, WORKLOADS, Command, pass_orders

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # at least this many set-up samples per run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import zassenhaus.cli; print(time.perf_counter() - t)"
)

REFERENCE_STEPS = 6000

# End-to-end timing classes: the sum of per-command medians over these kinds.
CLASS_OF = {TERMS: "terms_s", CROSSCHECK: "crosscheck_s", VERIFY: "verify_s"}
COLD, WARM = "terms_cold_s", "terms_warm_s"


@dataclass(frozen=True)
class Result:
    cmd: Command
    seconds: float
    ok: bool
    numeric: int = 0  # numeric checks run
    inconclusive: int = 0  # numeric checks reporting "inconclusive": true
    ref: float = 0.0  # mean of reference_seconds() right before and right after the command


def load_cli():
    """Import `zassenhaus.cli` from this checkout's `src/`, and from nowhere else."""
    if not (SRC / "zassenhaus" / "cli.py").is_file():
        raise SystemExit(f"error: no zassenhaus sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import zassenhaus.cli

    if not Path(zassenhaus.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported zassenhaus from {zassenhaus.cli.__file__}, not {SRC}")
    return zassenhaus.cli


def check_output(cmd: Command, rc: object, out: str, digests: dict[str, str]) -> tuple[bool, int, int]:
    """(output correct, numeric checks run, numeric checks inconclusive)."""
    if rc != 0:
        return False, 0, 0
    if cmd.kind == VERIFY:
        try:
            doc = json.loads(out)
        except ValueError:
            return False, 0, 0
        numeric = [c for c in doc.get("checks", ()) if c.get("mode") == "numeric"]
        inconclusive = sum(c.get("inconclusive") is True for c in numeric)
        return doc.get("pass") is True, len(numeric), inconclusive
    if cmd.kind == F1K:
        return bool(out.strip()), 0, 0
    return hashlib.sha256(out.encode()).hexdigest() == digests.get(cmd.label), 0, 0


def reference_seconds() -> float:
    """Time of a fixed exact computation that does not use the package.

    Host speed on a shared machine drifts by tens of percent over seconds
    to minutes.  A command's time divided by the mean of this reference
    taken right before and right after it cancels most of that drift; the
    program cannot change the reference's work, and the collector is off
    so its settings cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, REFERENCE_STEPS):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
            table[(i % 50, i % 7)] = acc
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_command(call: Callable[[list[str]], object], cmd: Command, cache_dir: str | None, digests: dict[str, str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    argv = cmd.argv_with_cache(cache_dir)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a crash is a failed command; keep measuring the others
        rc = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    ok, numeric, inconclusive = check_output(cmd, rc, out.getvalue(), digests)
    if not ok:
        print(f"FAILED (exit {rc}): {' '.join(argv)}\n{err.getvalue()[-2000:]}", file=sys.stderr)
    return Result(cmd, seconds, ok, numeric, inconclusive)


def run_pass(order: Sequence[Command], call, digests, scratch: Path) -> tuple[float, list[Result]]:
    """One pass over the commands; a `cached` pass gets a fresh cache directory."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch) if any(c.kind == CACHED for c in order) else None
    try:
        refs = [reference_seconds()]
        results = []
        for cmd in order:
            results.append(run_command(call, cmd, cache_dir, digests))
            refs.append(reference_seconds())
        results = [replace(r, ref=(refs[i] + refs[i + 1]) / 2) for i, r in enumerate(results)]
        return sum(r.seconds for r in results), results
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir)


def measure(run_one: Callable[[int], tuple[float, list[Result]]], seconds: float, min_passes: int) -> list:
    """Run passes until the next one, at the median pass time so far, would end after `seconds`."""
    passes: list = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start + statistics.median(p[0] for p in passes) <= seconds:
        passes.append(run_one(len(passes)))
        gc.collect()
    return passes


def slot_samples(passes: list[tuple[float, list[Result]]], value: Callable[[Result], float]) -> dict[tuple, list[float]]:
    """value(result) per (timing class, slot): a slot is a command of the pass.

    In a `cached` pass the first request per (n, K) is cold and the others
    warm; its slots are (cold, (n, K)) and (warm, (n, K)), since which
    format comes first changes from pass to pass.
    """
    samples: dict[tuple, list[float]] = defaultdict(list)
    for _, results in passes:
        seen = set()
        for r in results:
            c = r.cmd
            if c.kind == CACHED:
                nk = (c.n, c.max_degree)
                samples[(WARM if nk in seen else COLD, nk)].append(value(r))
                seen.add(nk)
            else:
                samples[(CLASS_OF.get(c.kind, c.kind), c.label)].append(value(r))
    return samples


def sum_of_medians(samples: dict[tuple, list[float]], n_passes: int) -> dict[str, float]:
    """Per class, the sum of per-slot medians; a slot filled r times a pass counts r times."""
    out: dict[str, float] = defaultdict(float)
    for (cls, _), values in samples.items():
        out[cls] += statistics.median(values) * len(values) / n_passes
    return dict(out)


def class_seconds(passes) -> dict[str, float]:
    sums = sum_of_medians(slot_samples(passes, lambda r: r.seconds), len(passes))
    return {cls: v for cls, v in sums.items() if cls in (*CLASS_OF.values(), COLD, WARM)}


def wall_ref(passes) -> float:
    """One pass, as the sum of per-command medians of command time / reference time."""
    return sum(sum_of_medians(slot_samples(passes, lambda r: r.seconds / r.ref), len(passes)).values())


def counts(passes) -> dict[str, float]:
    results = [r for _, rs in passes for r in rs]
    failed = sum(not r.ok for r in results)
    out = {"attempted": len(results), "failed": failed, "fail_share": failed / len(results)}
    numeric = sum(r.numeric for r in results)
    if numeric:
        out["numeric_inconclusive_share"] = sum(r.inconclusive for r in results) / numeric
    return out


def import_seconds() -> float:
    """Time to import `zassenhaus.cli` in a fresh interpreter: what every CLI call pays first."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without leaving the checkout."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def environment(args, n_passes: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_passes,
    }


def unit_of(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def untraced_metrics(passes) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p[0] for p in passes),
        "wall_ref": wall_ref(passes),
        **class_seconds(passes),
        "reference_s": statistics.median(r.ref for _, rs in passes for r in rs),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(passes, tracers: list[Tracer]) -> dict[str, float]:
    """Medians over traced passes of every per-layer metric, plus the tracing overhead."""
    per_pass = [layer_metrics(t) for t in tracers]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # Passes alternate untraced (even) and traced (odd); compare them drift-corrected.
    out["trace_overhead_share"] = wall_ref(passes[1::2]) / wall_ref(passes[0::2]) - 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    digests = json.loads((HERE / "digests.json").read_text())["digests"]
    os.environ.pop("ZASSENHAUS_CACHE_DIR", None)
    # One thread: BLAS worker threads would compete with the Python thread for the CPUs.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    cli = load_cli()

    metrics: dict[str, float] = {}
    setup_times: list[float] = []
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    orders = pass_orders(args.workload, args.seed)
    tracers: list[Tracer] = []

    def run_one(i: int):
        order = next(orders)
        if not args.trace:
            # Set-up is sampled between passes, so its median spans the run as the passes do.
            setup_times.append(import_seconds())
        if not args.trace or i % 2 == 0:
            return run_pass(order, cli.main, digests, scratch)
        tracer = Tracer()
        tracers.append(tracer)
        with installed(tracer):
            return run_pass(order, lambda a: tracer.call(ROOT, cli.main, (a,), {}), digests, scratch)

    try:
        passes = measure(run_one, args.seconds, min_passes=2 if args.trace else 1)
    finally:
        shutil.rmtree(scratch)
    if not args.trace:
        setup_times += [import_seconds() for _ in range(SETUP_REPEATS - len(setup_times))]
        metrics["setup_s"] = statistics.median(setup_times)

    tally = counts(passes)
    if args.trace:
        metrics.update(traced_metrics(passes, tracers))
    else:
        metrics.update(untraced_metrics(passes))
    metrics.update({k: v for k, v in tally.items() if k.endswith("_share")})

    env = environment(args, len(passes))
    record = {"environment": env, "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    if tracers:
        record["spans"] = [list(s) for s in tracers[-1].spans if s is not None]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in metrics.items():
        print(f"{key:40s} {value:16.6f} {unit_of(key)}")
    selected = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in selected},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
