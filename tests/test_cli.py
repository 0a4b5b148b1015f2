import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus import cli as cli_module
from zassenhaus import engine
from zassenhaus.cli import (
    CACHE_VERSION,
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    CacheAccessError,
    build_parser,
    cache_load,
    cache_store,
    main,
)
from zassenhaus.engine import EngineCtx
from zassenhaus.freealg import AlgebraCtx, AssocPoly, from_block, reduce_block, to_block
from zassenhaus.lieform import expand, parse

from golden import two_variable_ws


class TestTerms:
    def test_module_entry_point(self, cli, cli_process):
        # A fresh `python -m zassenhaus` prints what the in-process runs print
        # and passes main's exit code through.
        r = cli_process("terms", "--max-degree", 4)
        assert r.returncode == EXIT_OK and r.stdout == cli("terms", "--max-degree", 4).stdout
        assert cli_process("f1k", "--k", 0).returncode == EXIT_USAGE

    def test_default_flags(self, cli):
        r = cli("terms")
        assert r.returncode == EXIT_OK
        lines = r.stdout.splitlines()
        assert len(lines) == 5  # W2..W6 at the default n=2, K=6
        assert lines[0].startswith("W2 = ")

    def test_two_variable_comm_latex(self, cli):
        r = cli("terms", "--n", 2, "--max-degree", 4, "--form", "comm", "--format", "latex")
        assert r.returncode == EXIT_OK
        assert r.stdout.splitlines() == [
            "W_{2} = \\frac{1}{2}[X_{2}, X_{1}]",
            "W_{3} = \\frac{1}{3}[[X_{2}, X_{1}], X_{2}] + \\frac{1}{6}[[X_{2}, X_{1}], X_{1}]",
            "W_{4} = \\frac{1}{8}[[[X_{2}, X_{1}], X_{2}], X_{2}]"
            " + \\frac{1}{8}[[[X_{2}, X_{1}], X_{1}], X_{2}]"
            " + \\frac{1}{24}[[[X_{2}, X_{1}], X_{1}], X_{1}]",
        ]

    def test_two_variable_comm_equals_classic_displays(self, cli):
        # The commutator lines expand to the classic two-variable values
        # (the display convention differs, the polynomials do not).
        r = cli("terms", "--n", 2, "--max-degree", 4, "--form", "comm")
        ctx = AlgebraCtx(2, 4)
        expected = dict(zip((2, 3, 4), two_variable_ws(ctx)))
        for line in r.stdout.splitlines():
            label, _, body = line.partition(" = ")
            m = int(label[1:])
            assert expand(parse(body), ctx) == expected[m]

    def test_single_generator_all_zero(self, cli):
        r = cli("terms", "--n", 1, "--max-degree", 6)
        assert r.returncode == EXIT_OK
        assert all(line.endswith(" = 0") for line in r.stdout.splitlines())

    def test_single_generator_needs_no_recursion(self, cli, monkeypatch):
        # At n = 1 every f[m, k] is 0, answered with no bracket and no recursion as deep as K,
        # which at K = 3000 passed Python's recursion limit.
        def no_bracket(*args):
            pytest.fail("a bracket was formed at n = 1")

        monkeypatch.setattr(engine, "bracket_add", no_bracket)
        for K, path in ((5000, "generic"), (200, "both")):
            r = cli("terms", "--n", 1, "--max-degree", K, "--path", path)
            assert r.returncode == EXIT_OK and r.stderr == ""
            lines = r.stdout.splitlines()
            assert lines == [f"W{m} = 0" for m in range(2, K + 1)]

    def test_single_generator_cross_check_at_large_k(self, cli):
        # At n = 1 every W_m is 0 and --path both has nothing to compare; building the expanded
        # formulas' term lists anyway took seconds at K = 1000, far past this bound.
        runs = {}
        for path in ("generic", "both"):
            start = time.perf_counter()
            runs[path] = cli("terms", "--n", 1, "--max-degree", 1000, "--path", path)
            assert time.perf_counter() - start < 2
        assert runs["both"].returncode == EXIT_OK and runs["both"].stderr == ""
        assert runs["both"].stdout == runs["generic"].stdout

    @pytest.mark.parametrize(
        "argv, read",
        [
            (("terms", "--n", 3, "--max-degree", 9, "--format", "text"), 10),
            # verify writes its one short report at once, so its reader closes before reading.
            (("verify", "--n", 2, "--max-degree", 6, "--mode", "exact"), 0),
        ],
        ids=["terms", "verify"],
    )
    def test_closed_stdout_is_no_failure(self, argv, read):
        # As in `zassenhaus terms ... | head -c 10`: exit 141 (128 + SIGPIPE), not 1, and no traceback.
        env = {k: v for k, v in os.environ.items() if k != "ZASSENHAUS_CACHE_DIR"}
        cmd = [sys.executable, "-m", "zassenhaus", *map(str, argv)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""

    def test_json_document(self, cli):
        r = cli("terms", "--n", 2, "--max-degree", 3, "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["version"] == 1
        assert doc["n"] == 2 and doc["maxDegree"] == 3
        assert [t["m"] for t in doc["terms"]] == [2, 3]
        w2 = AssocPoly.from_json_dict(doc["terms"][0]["poly"])
        assert w2.coeff((1, 2)) == Fraction(-1, 2)

    def test_expanded_and_both_paths(self, cli):
        base = cli("terms", "--n", 2, "--max-degree", 6, "--format", "json")
        r = cli("terms", "--n", 2, "--max-degree", 6, "--format", "json", "--path", "both")
        assert r.returncode == EXIT_OK
        assert json.loads(r.stdout)["terms"] == json.loads(base.stdout)["terms"]

    def test_path_expanded_is_not_a_choice(self, cli):
        # The expanded formulas are only the cross-check of --path both.
        r = cli("terms", "--n", 2, "--max-degree", 6, "--path", "expanded")
        assert r.returncode == EXIT_USAGE and r.stdout == ""
        assert "argument --path: invalid choice: 'expanded'" in r.stderr

    def test_out_file(self, cli, tmp_path):
        target = tmp_path / "terms.txt"
        r = cli("terms", "--n", 2, "--max-degree", 3, "--out", target)
        assert r.returncode == EXIT_OK and r.stdout == ""
        direct = cli("terms", "--n", 2, "--max-degree", 3)
        assert target.read_text() == direct.stdout

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (("--format", "json"), "aa86a3b9c7be0f37041ba90c84a7e46020082f908d732d7636874f76693c48b4"),
            (("--format", "text"), "f6aecda747be1d58ab4de9fdbf8656ab57fd0a494fd92f3681c7c9a73898a5e5"),
            (("--format", "latex"), "8f0dac142a76f6953d71c85b541c8a3267e38b28d9b9b1aab10e9753d24c8791"),
            (("--form", "comm", "--format", "text"), "bda9eaf98beb8dcf3cc973514d9cb731a57535d8075588bea0154230de6a3890"),
        ],
    )
    def test_stdout_bytes_are_pinned(self, cli, flags, digest):
        r = cli("terms", "--n", 3, "--max-degree", 6, *flags)
        assert r.returncode == EXIT_OK
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest

    def test_usage_errors(self, cli, tmp_path):
        assert cli("terms", "--n", 0).returncode == EXIT_USAGE
        assert cli("terms", "--max-degree", 1).returncode == EXIT_USAGE
        assert cli("terms", "--format", "yaml").returncode == EXIT_USAGE
        assert cli("nonsense").returncode == EXIT_USAGE
        for out in (tmp_path / "missing" / "x", tmp_path):  # no parent directory; a directory
            r = cli("terms", "--max-degree", 3, "--out", out)
            assert r.returncode == EXIT_USAGE and r.stderr.startswith("error: ")

    def test_out_of_memory_is_a_usage_error(self, cli, tmp_path, monkeypatch):
        # Not exit 1 with a traceback; all computing precedes the first chunk, so nothing is written.
        monkeypatch.setattr("zassenhaus.engine.EngineCtx.series_blocks", _out_of_memory)
        target = tmp_path / "terms.txt"
        for flags in ((), ("--out", target)):
            r = cli("terms", "--n", 2, "--max-degree", 40, *flags)
            assert r.returncode == EXIT_USAGE and r.stdout == ""
            assert r.stderr == "error: out of memory in terms at n=2, K=40\n"
        assert not target.exists()

    def test_out_of_memory_releases_the_failed_call_before_reporting(self, monkeypatch):
        # The error line is written after the except clause, once the traceback and with it the
        # frames of the failed call are gone: with nothing left, a print inside it would fail again.
        finalizers = []

        class Held:  # stands for the memory the failed call holds
            pass

        def series_blocks(self, path):
            held = Held()
            finalizers.append(weakref.finalize(held, lambda: None))
            raise MemoryError

        class Stderr(io.StringIO):
            def write(self, text):
                alive.append(finalizers[0].alive)
                return super().write(text)

        alive, stderr = [], Stderr()
        monkeypatch.setattr("zassenhaus.engine.EngineCtx.series_blocks", series_blocks)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["terms", "--n", "2", "--max-degree", "40"]) == EXIT_USAGE
        assert stderr.getvalue() == "error: out of memory in terms at n=2, K=40\n"
        assert alive and not any(alive)

    @pytest.mark.parametrize(
        "argv, degree",
        [
            pytest.param(("terms", "--n", 2, "--max-degree", 40), "K=40", id="terms"),
            pytest.param(("verify", "--n", 2, "--max-degree", 40, "--mode", "exact"), "K=40", id="verify"),
            pytest.param(("terms", "--n", 2, "--max-degree", 64), "K=64", id="terms-n2-K64"),
            pytest.param(("terms", "--n", 5, "--max-degree", 20), "K=20", id="terms-n5-K20"),
            pytest.param(("terms", "--n", 2, "--max-degree", 100000), "K=100000", id="terms-n2-K100000"),
            pytest.param(("verify", "--n", 2, "--max-degree", 64, "--mode", "exact"), "K=64", id="verify-n2-K64"),
            pytest.param(("f1k", "--k", 200, "--n", 2), "k=200", id="f1k-k200"),
            pytest.param(("f1k", "--k", 200, "--n", 2, "--path", "direct"), "k=200", id="f1k-k200-direct"),
            pytest.param(("terms", "--n", 2, "--max-degree", 2000000000), "K=2000000000", id="terms-n2-K2e9"),
            pytest.param(("f1k", "--k", 2000000000, "--n", 2, "--path", "direct"), "k=2000000000", id="f1k-k2e9-direct"),
            pytest.param(
                ("terms", "--n", 2, "--max-degree", 1000000, "--cache", "CACHE"), "K=1000000", id="terms-n2-K1e6-cache"
            ),
        ],
    )
    def test_out_of_memory_is_refused_at_once(self, cli_process, tmp_path, argv, degree):
        # The real request under a 2 GB address-space cap.  The largest list of the request
        # (the block of degree K, or the 2^199 compositions of 200) is made before the work
        # that fills it, so the run ends within seconds rather than fill the memory it has.
        # At (2,64), (2,100000) and k = 200 no list could even index that length: still out of memory,
        # decided without computing 2^K (seconds at K = 2e9) and, under --cache, before W_2..W_K are looked up.
        resource = pytest.importorskip("resource")
        argv = [tmp_path / "c" if a == "CACHE" else a for a in argv]

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        r = cli_process(*argv, preexec_fn=cap, timeout=10)
        n = argv[argv.index("--n") + 1]
        assert r.returncode == EXIT_USAGE and r.stdout == ""
        assert r.stderr == f"error: out of memory in {argv[0]} at n={n}, {degree}\n"


class TestStartup:
    def test_import_loads_only_what_every_request_needs(self):
        # Every CLI call pays for its imports first.  dataclasses (with inspect, ast and dis),
        # hashlib (OpenSSL) and array (the cache imports both on first use), and numpy/scipy (the numeric
        # check imports them) stay out, while the five package modules, which the benchmark's
        # tracer looks up in sys.modules, all come in.  The difference of sys.modules before
        # and after leaves out whatever the interpreter's site start-up loaded.
        code = "import sys; before = set(sys.modules); import zassenhaus.cli; print(*set(sys.modules) - before)"
        new = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split())
        assert not {name.partition(".")[0] for name in new} & {"dataclasses", "inspect", "hashlib", "array", "numpy", "scipy"}
        assert {f"zassenhaus.{m}" for m in ("freealg", "lieform", "engine", "oracle", "cli")} <= new

    def test_parser_is_built_once_per_process(self, cli, monkeypatch):
        # In-process calls share one parser, built on the first call, and print and exit
        # exactly as calls that each build their own: a success, a usage error, a verify, an f1k.
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counted)
        monkeypatch.setattr(cli_module, "_PARSER", None)
        calls = [
            ("terms", "--n", 3, "--max-degree", 4, "--format", "json"),
            ("terms", "--format", "pdf"),
            ("verify", "--n", 2, "--max-degree", 5, "--mode", "all"),
            ("f1k", "--k", 3, "--n", 2, "--path", "both"),
        ]
        shared = [cli(*argv) for argv in calls]
        assert len(built) == 1
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli_module, "_PARSER", None)
            fresh.append(cli(*argv))
        assert len(built) == 1 + len(calls)
        assert [(r.returncode, r.stdout, r.stderr) for r in shared] == [(r.returncode, r.stdout, r.stderr) for r in fresh]
        assert [r.returncode for r in shared] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
        assert "invalid choice: 'pdf'" in shared[1].stderr

    def test_import_builds_no_parser(self):
        code = "import zassenhaus.cli as cli; print(cli._PARSER)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert r.stdout == "None\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@st.composite
def _homogeneous_polys(draw):
    """Zero or homogeneous of degree m in context (n, m), with numerators and denominators of many digits."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    words = st.lists(st.integers(1, n), min_size=m, max_size=m).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25))
    return AssocPoly(AlgebraCtx(n, m), draw(st.dictionaries(words, coeffs, max_size=12)))


_LIMB_EDGES = (2**63 - 1, -(2**63), 2**63, 2**64, -(2**64) - 1, 2**128, 2**200)


@st.composite
def _wide_blocks(draw):
    """(n, m, block): a reduced block over n = 1..3 letters of degree m = 1..4, numerators near the limb edges or past them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    near_edge = st.builds(
        lambda v, d, sign: sign * (v + d), st.sampled_from(_LIMB_EDGES), st.integers(-2, 2), st.sampled_from([1, -1])
    )
    nums = st.one_of(st.just(0), st.integers(-(2**300), 2**300), near_edge)
    return n, m, reduce_block(draw(st.integers(1, 2**70)), draw(st.lists(nums, min_size=n**m, max_size=n**m)))


def _least_limbs(nums):
    """The least L >= 1 with -2^(64L-1) <= v < 2^(64L-1) for every v, by the definition."""
    limbs = 1
    while not all(-(2 ** (64 * limbs - 1)) <= v < 2 ** (64 * limbs - 1) for v in nums):
        limbs += 1
    return limbs


class TestTermsCache:
    def test_round_trip_is_bit_exact(self, cli, tmp_path):
        cache = tmp_path / "c"
        cold = cli("terms", "--n", 2, "--max-degree", 4, "--format", "json", "--cache", cache)
        files = sorted(p.relative_to(cache).as_posix() for p in cache.rglob("*.bin"))
        assert files == [_name(2, 2), _name(2, 3), _name(2, 4)]
        before = [(p.as_posix(), p.read_bytes()) for p in sorted(cache.rglob("*.bin"))]
        warm = cli("terms", "--n", 2, "--max-degree", 4, "--format", "json", "--cache", cache)
        after = [(p.as_posix(), p.read_bytes()) for p in sorted(cache.rglob("*.bin"))]
        assert warm.stdout == cold.stdout
        assert len(before) == 3 and before == after

    def test_entries_carry_valid_digests(self, cli, tmp_path):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        line, newline, body = _entry(cache, 2, 2).read_bytes().partition(b"\n")
        entry = json.loads(line)
        payload = _dumps(entry["payload"]).encode()
        # The digest covers the payload bytes as stored, the end of the header line, and the body after it.
        assert line.endswith(b',"payload":' + payload + b"}") and newline
        assert entry["digest"] == hashlib.sha256(payload + body).hexdigest()
        assert entry["key"] == {"format": 5, "n": 2, "m": 2}
        # W_2 = 1/2 (X2 X1 - X1 X2) as the block of X1X1, X1X2, X2X1, X2X2: one plane of little-endian words.
        assert entry["payload"] == {"den": 2, "limbs": 1, "maxDegree": 2, "n": 2}
        assert body == struct.pack("<4q", 0, -1, 1, 0)

    def test_corrupted_digest_is_rejected(self, cli, tmp_path):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        target = _entry(cache, 2, 3)
        header, nums = _read_entry(target)
        nums[0] = 7 * header["payload"]["den"]
        _write_entry(target, header, nums, redigest=False)
        r = cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        assert r.returncode == EXIT_INTERNAL
        assert "digest mismatch" in r.stderr

    def test_stale_key_is_recomputed(self, cli, tmp_path):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        target = _entry(cache, 2, 3)
        header, nums = _read_entry(target)
        header["key"]["format"] = 0  # pretend an older schema wrote it
        _write_entry(target, header, nums)
        r = cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        assert r.returncode == EXIT_OK
        assert _read_entry(target)[0]["key"]["format"] == CACHE_VERSION

    def test_version_2_tree_is_ignored(self, cli, tmp_path):
        # A version-2 entry holds per-term "p/q" strings.
        payload = AssocPoly.monomial(AlgebraCtx(2, 3), (1, 1, 2), 7).to_json_dict()
        _assert_old_entry_is_ignored(cli, tmp_path, 2, payload)

    def test_version_3_tree_is_ignored(self, cli, tmp_path):
        # A version-3 entry holds a word list beside its numerators.
        payload = {"den": 1, "maxDegree": 3, "n": 2, "nums": [7], "words": [[1, 1, 2]]}
        _assert_old_entry_is_ignored(cli, tmp_path, 3, payload)

    def test_version_4_tree_is_ignored(self, cli, tmp_path):
        # A version-4 entry holds its block as a JSON list of decimal numerators.
        payload = {"den": 1, "maxDegree": 3, "n": 2, "nums": [0, 7, 0, 0, 0, 0, 0, 0]}
        _assert_old_entry_is_ignored(cli, tmp_path, 4, payload)

    @settings(max_examples=60, deadline=None)
    @given(_homogeneous_polys())
    @example(AssocPoly.zero(AlgebraCtx(1, 4)))  # at n = 1 every W_m is the block [0] over 1
    @example(AssocPoly.monomial(AlgebraCtx(1, 3), (1, 1, 1), Fraction(-5, 3)))
    def test_store_load_round_trip(self, poly):
        n, m = poly.ctx.n, poly.ctx.max_degree
        with tempfile.TemporaryDirectory() as root:
            cache_store(Path(root), n, m, to_block(poly, m))
            loaded = cache_load(Path(root), n, m)
            assert loaded == to_block(poly, m)
            assert from_block(poly.ctx, m, *loaded) == poly

    @settings(max_examples=60, deadline=None)
    @given(_wide_blocks())
    @example((2, 1, (1, [2**63 - 1, -(2**63 - 1)])))  # one limb: the widest numerators it holds
    @example((1, 1, (1, [-(2**63)])))
    @example((2, 1, (1, [2**63, 1])))  # two limbs
    @example((2, 1, (1, [2**64, -(2**64)])))
    @example((2, 1, (1, [2**200, -(2**200)])))  # four limbs
    @example((2, 1, (3, [-(2**200), 2**64])))
    def test_store_load_round_trip_at_every_limb_count(self, case):
        n, m, block = case
        with tempfile.TemporaryDirectory() as root:
            entry = cache_store(Path(root), n, m, block)
            assert cache_load(Path(root), n, m) == block
            line, _, body = entry.read_bytes().partition(b"\n")
            limbs = json.loads(line)["payload"]["limbs"]
            assert limbs == _least_limbs(block[1]) and len(body) == 8 * limbs * n**m

    def test_store_refuses_what_the_block_cannot_hold(self, tmp_path):
        # The payload holds the n^m words of degree m alone, so a block of any other length has no place.
        # A polynomial of mixed degree has no block at all: `to_block` refuses it.
        at = AlgebraCtx(2, 3)
        with pytest.raises(ValueError):
            to_block(AssocPoly(at, {(1, 2): 1, (1, 1, 2): 1}), 3)
        for n, block in [
            (2, to_block(AssocPoly(at, {(2, 1): Fraction(1, 2)}), 2)),  # degree m - 1
            (2, to_block(AssocPoly.monomial(AlgebraCtx(2, 4), (1, 2, 1, 2)), 4)),  # degree m + 1
            (3, to_block(AssocPoly.monomial(at, (1, 1, 2)), 3)),  # n = 2 stored as n = 3
            (2, (2, [0, 2, 0, 0, 0, 0, 0, 4])),  # not reduced: a load would refuse it
            (2, (0, [0] * 8)),
            (2, (-1, [0, 1, 0, 0, 0, 0, 0, 0])),
            (2, (1, [0, True, -1, 0, 0, 0, 0, 0])),  # a bool is no numerator, though gcd takes it as 1
            (2, (1, [0, 1.0, -1, 0, 0, 0, 0, 0])),
            (2, (1, (0, 1, -1, 0, 0, 0, 0, 0))),  # the payload holds a list
        ]:
            with pytest.raises(ValueError):
                cache_store(tmp_path, n, 3, block)
        assert not any(tmp_path.iterdir())
        assert cache_store(tmp_path, 2, 3, to_block(AssocPoly.zero(at), 3)).exists()

    def test_env_var_sets_root(self, cli, tmp_path):
        cache = tmp_path / "from-env"
        r = cli("terms", "--n", 2, "--max-degree", 3, extra_env={"ZASSENHAUS_CACHE_DIR": str(cache)})
        assert r.returncode == EXIT_OK
        assert _entry(cache, 2, 2).exists()

    def test_entries_do_not_depend_on_max_degree(self, cli, tmp_path):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 6, "--format", "json", "--cache", cache)
        before = _files(cache)
        assert sorted(before) == [_name(2, m) for m in range(2, 7)]
        r = cli("terms", "--n", 2, "--max-degree", 8, "--format", "json", "--cache", cache)
        after = _files(cache)
        assert sorted(after) == sorted([*before, _name(2, 7), _name(2, 8)])
        assert {name: after[name] for name in before} == before
        assert r.returncode == EXIT_OK
        assert r.stdout == cli("terms", "--n", 2, "--max-degree", 8, "--format", "json").stdout

    def test_warm_cache_cannot_bypass_path_both(self, cli, tmp_path):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 6, "--cache", cache)
        _rewrite_entry(_entry(cache, 2, 6), lambda p, nums: nums.__setitem__(0, 7 * p["den"]))
        r = cli("terms", "--n", 2, "--max-degree", 6, "--path", "both", "--cache", cache)
        assert r.returncode == EXIT_INTERNAL
        assert "disagree" in r.stderr and r.stdout == ""

    def test_path_both_writes_only_checked_terms(self, cli, tmp_path, monkeypatch):
        # Each W_m is written once it has passed the cross-check, so an expanded
        # value that is wrong at W_6 leaves W_2..W_5 in a cold cache and no W_6.
        expanded = EngineCtx.w_term_expanded
        monkeypatch.setattr(
            EngineCtx, "w_term_expanded", lambda self, m: expanded(self, m).scaled(2 if m == 6 else 1)
        )
        cache = tmp_path / "c"
        r = cli("terms", "--n", 2, "--max-degree", 7, "--path", "both", "--cache", cache)
        assert r.returncode == EXIT_INTERNAL and "W_6" in r.stderr and r.stdout == ""
        assert sorted(_files(cache)) == [_name(2, m) for m in range(2, 6)]

    # The entry is W_3 at n = 2: den 6 over the block of the 8 words of degree 3, one limb.
    # Each case but the first and the last two is written under a valid digest, so the load must
    # refuse the payload or the body itself.  A case named after a word-list payload (version 3)
    # or a numerator list (version 4) takes the closest form of it in a version-5 entry.
    @pytest.mark.parametrize(
        "mutate",
        [
            "not-an-object",
            lambda p, nums: nums.clear(),
            lambda p, nums: p.pop("n"),
            lambda p, nums: p.update(n=3),
            # The body of the 27 words of degree 3 over three letters.
            lambda p, nums: nums.extend([0] * 19),
            # The body of the 4 words of degree 2.
            lambda p, nums: nums.__delitem__(slice(4, None)),
            # The header line alone, without its newline and body.
            "header-only",
            lambda p, nums: p.pop("den"),
            lambda p, nums: p.update(n=2.0),
            # maxDegree fixes the length of the words.
            lambda p, nums: p.update(maxDegree=3.0),
            lambda p, nums: p.update(maxDegree=True),
            # Zeros fill a block, but an all-zero block has den 1.
            lambda p, nums: nums.__setitem__(slice(None), [0] * 8),
            lambda p, nums: p.update(den=0),
            lambda p, nums: (p.update(den=-p["den"]), nums.__setitem__(slice(None), [-c for c in nums])),
            lambda p, nums: (p.update(den=2 * p["den"]), nums.__setitem__(slice(None), [2 * c for c in nums])),
            # A body one number short and one number long.
            lambda p, nums: nums.pop(),
            lambda p, nums: nums.append(1),
            # A version-3 payload under a version-5 key.
            lambda p, nums: p.update(words=[[1, 1, 2]]),
            # The body as version 4's decimal numerators, comma-joined text instead of words.
            "decimal-body",
            lambda p, nums: p.update(den=float(p["den"])),
            lambda p, nums: p.update(den=True),
            lambda p, nums: p.pop("limbs"),
            lambda p, nums: p.update(limbs=0),
            lambda p, nums: p.update(limbs=True),
            lambda p, nums: p.update(limbs=1.0),
            # Two planes of 8 words announced over the body of one.
            lambda p, nums: p.update(limbs=2),
            # A version-4 payload under a version-5 key: the numerators in the header, no body.
            lambda p, nums: (p.pop("limbs"), p.update(nums=nums[:]), nums.clear()),
            # A flipped bit of the body, under the old digest.
            "flipped-body-byte",
        ],
        ids=["not-an-object", "missing-terms", "missing-n", "n-differs-from-key", "letter-out-of-range",
             "not-homogeneous", "missing-nums", "missing-den", "float-n", "float-letter", "bool-letter",
             "zero-numerator", "zero-denominator", "negative-denominator", "common-factor", "fewer-numerators",
             "more-numerators", "leftover-words", "nums-not-a-list", "float-denominator", "bool-denominator",
             "missing-limbs", "zero-limbs", "bool-limbs", "float-limbs", "limbs-past-the-body",
             "version-4-payload", "flipped-body-byte"],
    )
    def test_malformed_entry_is_corruption(self, cli, tmp_path, mutate):
        cache = tmp_path / "c"
        cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        target = _entry(cache, 2, 3)
        header, nums = _read_entry(target)
        if mutate == "not-an-object":
            target.write_text("[1,2]")
        elif mutate == "header-only":
            target.write_bytes(target.read_bytes().partition(b"\n")[0])
        elif mutate == "decimal-body":
            _write_entry(target, header, [], body=",".join(map(str, nums)).encode())
        elif mutate == "flipped-body-byte":
            raw = bytearray(target.read_bytes())
            raw[-3] ^= 1
            target.write_bytes(raw)
        else:
            mutate(header["payload"], nums)
            _write_entry(target, header, nums)
        r = cli("terms", "--n", 2, "--max-degree", 3, "--cache", cache)
        assert r.returncode == EXIT_INTERNAL
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    def test_unusable_root_is_a_usage_error(self, cli, tmp_path):
        root = tmp_path / "a-file"
        root.write_text("")
        for flags, env in ((("--cache", root), None), ((), {"ZASSENHAUS_CACHE_DIR": str(root)})):
            r = cli("terms", "--max-degree", 3, *flags, extra_env=env)
            assert r.returncode == EXIT_USAGE and r.stdout == ""
            assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        with pytest.raises(CacheAccessError):
            cache_store(root, 2, 2, to_block(AssocPoly.monomial(AlgebraCtx(2, 2), (1, 2)), 2))

    def test_store_replaces_entries_atomically(self, tmp_path, monkeypatch):
        ctx = AlgebraCtx(2, 2)
        first = to_block(AssocPoly.monomial(ctx, (1, 2)), 2)
        second = to_block(AssocPoly.monomial(ctx, (2, 1), Fraction(1, 3)), 2)
        target = cache_store(tmp_path, 2, 2, first)
        assert cache_store(tmp_path, 2, 2, second) == target
        assert list(target.parent.iterdir()) == [target]
        assert cache_load(tmp_path, 2, 2) == second
        fresh = cache_store(tmp_path / "fresh", 2, 2, second)
        assert target.read_bytes() == fresh.read_bytes()

        def failed_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        # A rename that fails keeps the old entry and removes the temporary file.
        monkeypatch.setattr("zassenhaus.cli.os.replace", failed_replace)
        with pytest.raises(CacheAccessError):
            cache_store(tmp_path, 2, 2, first)
        assert list(target.parent.iterdir()) == [target]
        assert cache_load(tmp_path, 2, 2) == second

    def test_big_endian_hosts_swap_the_words(self, tmp_path, monkeypatch):
        # An entry's words are little-endian whatever the host: on a big-endian host
        # (here pretended) the planes are swapped on store and swapped back on load.
        block = (1, [1, -2, 2**64 + 3, 0])
        monkeypatch.setattr(sys, "byteorder", "big")
        entry = cache_store(tmp_path, 2, 2, block)
        assert cache_load(tmp_path, 2, 2) == block
        # Swapped in place of a host that needs none, the words read big-endian here.
        body = entry.read_bytes().partition(b"\n")[2]
        assert body == struct.pack(">4Q4q", 1, 2**64 - 2, 3, 0, 0, -1, 1, 0)


def _entry(root, n, m):
    return root / _name(n, m)


def _name(n, m):
    """The path of the entry W_m at n under the cache root, as `_files` names it."""
    return f"{CACHE_VERSION}/n{n}/W{m}.bin"


def _assert_old_entry_is_ignored(cli, tmp_path, version, payload):
    """An entry of an older cache version, with a valid digest but a wrong W_3, is never read or touched."""
    cache = tmp_path / "c"
    old = cache / str(version) / "n2" / "W3.json"
    old.parent.mkdir(parents=True)
    dumped = _dumps(payload)
    entry = {"digest": hashlib.sha256(dumped.encode()).hexdigest(), "key": {"format": version, "n": 2, "m": 3},
             "payload": payload}
    old.write_text(_dumps(entry) + "\n")
    before = old.read_bytes()
    r = cli("terms", "--n", 2, "--max-degree", 3, "--format", "json", "--cache", cache)
    assert r.returncode == EXIT_OK
    assert r.stdout == cli("terms", "--n", 2, "--max-degree", 3, "--format", "json").stdout
    assert old.read_bytes() == before
    assert sorted(_files(cache)) == [f"{version}/n2/W3.json", _name(2, 2), _name(2, 3)]


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_entry(target):
    """An entry as its JSON header and its numerators, read as one plane of little-endian words."""
    line, _, body = target.read_bytes().partition(b"\n")
    header = json.loads(line)
    assert header["payload"]["limbs"] == 1
    return header, list(struct.unpack(f"<{len(body) // 8}q", body))


def _write_entry(target, header, nums, *, body=None, redigest=True):
    """Store `header` over the body of `nums` (one plane), under a recomputed, valid digest unless `redigest` is false."""
    payload = _dumps(header["payload"]).encode()
    if body is None:
        body = struct.pack(f"<{len(nums)}q", *nums)
    if redigest:
        header["digest"] = hashlib.sha256(payload + body).hexdigest()
    target.write_bytes(_dumps(header).encode() + b"\n" + body)


def _rewrite_entry(target, mutate):
    """Apply `mutate` to an entry's payload and numerators and store it under a recomputed, valid digest."""
    header, nums = _read_entry(target)
    mutate(header["payload"], nums)
    _write_entry(target, header, nums)


class TestVerify:
    def test_exact_mode(self, cli):
        r = cli("verify", "--n", 2, "--max-degree", 6, "--mode", "exact")
        assert r.returncode == EXIT_OK
        doc = json.loads(r.stdout)
        assert doc["mode"] == "exact" and doc["pass"] is True

    def test_numeric_mode_observed_order(self, cli):
        r = cli("verify", "--n", 3, "--max-degree", 4, "--mode", "numeric",
                "--dim", 4, "--seed", 42, "--t", "0.2,0.1")
        doc = json.loads(r.stdout)
        assert r.returncode == EXIT_OK
        assert abs(doc["observedOrder"] - 5) <= 0.5

    def test_oracle_mode(self, cli):
        r = cli("verify", "--n", 3, "--max-degree", 4, "--mode", "oracle")
        assert r.returncode == EXIT_OK
        assert json.loads(r.stdout)["pass"] is True

    def test_oracle_mode_below_degree_two_compares_nothing(self, cli):
        r = cli("verify", "--n", 2, "--max-degree", 1, "--mode", "oracle")
        assert r.returncode == EXIT_OK
        doc = json.loads(r.stdout)
        assert doc["pass"] is True
        assert doc["detail"] == "no W_m exists below K = 2, so nothing was compared (n=2, K=1)"

    def test_all_mode_single_generator(self, cli):
        r = cli("verify", "--n", 1, "--max-degree", 8, "--mode", "all")
        assert r.returncode == EXIT_OK
        doc = json.loads(r.stdout)
        assert doc["pass"] is True
        assert [c["mode"] for c in doc["checks"]] == ["exact", "oracle", "numeric"]
        assert doc["checks"][2]["inconclusive"] is True

    def test_usage_errors(self, cli, monkeypatch):
        assert cli("verify", "--mode", "fancy").returncode == EXIT_USAGE
        assert cli("verify", "--t", "0.1").returncode == EXIT_USAGE
        for mode in ("exact", "oracle", "numeric", "all"):  # no truncation degree below 1, in every mode
            assert cli("verify", "--mode", mode, "--max-degree", 0).returncode == EXIT_USAGE
        for dim in (0, -1):
            r = cli("verify", "--mode", "numeric", "--dim", dim)
            assert r.returncode == EXIT_USAGE and r.stdout == ""

        def no_matrices(*args):
            raise AssertionError("a matrix was allocated")

        # A huge --dim is refused before numpy is asked for any matrix.
        monkeypatch.setattr("zassenhaus.oracle.random_matrices", no_matrices)
        r = cli("verify", "--dim", 100000, "--mode", "numeric", "--max-degree", 2)
        assert r.returncode == EXIT_USAGE and r.stdout == ""
        assert r.stderr == "error: matrix dimension must lie in 1..256, got 100000\n"
        for t in ("nan,0.1", "inf,0.1", "1e300,0.1"):
            r = cli("verify", "--mode", "numeric", "--t", t)
            assert r.returncode == EXIT_USAGE and r.stdout == "" and r.stderr.startswith("error: ")

        def no_series(*args, **kwargs):
            pytest.fail("the engine ran before --seed was checked")

        # numpy refuses a negative seed too, but only after the engine and the exact checks.
        monkeypatch.setattr("zassenhaus.engine.EngineCtx.series_blocks", no_series)
        for mode in ("numeric", "all"):
            r = cli("verify", "--mode", mode, "--n", 3, "--max-degree", 8, "--seed", -1)
            assert r.returncode == EXIT_USAGE and r.stdout == ""
            assert r.stderr == "error: --seed must be a non-negative integer, got -1\n"

    def test_out_of_memory_is_a_usage_error(self, cli, monkeypatch):
        # Exit 1 would read as a failed verification.
        monkeypatch.setattr("zassenhaus.engine.EngineCtx.series_blocks", _out_of_memory)
        r = cli("verify", "--n", 2, "--max-degree", 40, "--mode", "exact")
        assert r.returncode == EXIT_USAGE and r.stdout == ""
        assert r.stderr == "error: out of memory in verify at n=2, K=40\n"

    def test_numeric_usage_errors_come_before_any_work(self, cli, monkeypatch):
        def no_series(*args, **kwargs):
            pytest.fail("the engine ran before the numeric arguments were checked")

        monkeypatch.setattr("zassenhaus.engine.EngineCtx.series_blocks", no_series)
        for mode in ("numeric", "all"):
            for flags in (("--dim", 0), ("--dim", 257), ("--t", "0.1"), ("--t", "nan,0.1"), ("--t", "0.1,0.1")):
                r = cli("verify", "--mode", mode, "--n", 3, "--max-degree", 9, *flags)
                assert r.returncode == EXIT_USAGE and r.stdout == "" and r.stderr.startswith("error: ")
            r = cli("verify", "--mode", mode, "--n", 3, "--max-degree", 9, "--t", "abc")
            assert r.returncode == EXIT_USAGE and r.stdout == ""
            assert r.stderr == "error: --t must be comma-separated numbers, got 'abc'\n"
        monkeypatch.undo()
        # The exact and oracle modes take no numeric arguments, so they do not judge them.
        for mode in ("exact", "oracle"):
            for flags in (("--dim", 0), ("--t", "inf,0.1"), ("--t", "abc")):
                assert cli("verify", "--mode", mode, "--max-degree", 3, *flags).returncode == EXIT_OK

    @pytest.mark.parametrize("mode", ["exact", "oracle", "numeric", "all"])
    def test_checks_make_no_polynomial_of_any_w(self, cli, monkeypatch, mode):
        # The W_m go from the engine to every check as reduced blocks, and no check,
        # nor the peel, makes a polynomial of one, or any other.
        argv = ("verify", "--n", 3, "--max-degree", 6, "--mode", mode)
        expected = cli(*argv)
        assert expected.returncode == EXIT_OK

        def no_polynomial(*args, **kwargs):
            pytest.fail("a polynomial was made")

        monkeypatch.setattr(EngineCtx, "w_term", no_polynomial)
        monkeypatch.setattr(AssocPoly, "_make", no_polynomial)
        monkeypatch.setattr(AssocPoly, "__init__", no_polynomial)
        r = cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (EXIT_OK, expected.stdout, "")

    @pytest.mark.parametrize("mode", ["oracle", "all"])
    def test_single_generator_at_degree_1000(self, cli, mode):
        # The peel walks prefixes as long as the degree: no recursion limit may end the run.
        r = cli("verify", "--n", 1, "--max-degree", 1000, "--mode", mode)
        assert r.returncode == EXIT_OK and r.stderr == ""
        assert json.loads(r.stdout)["pass"] is True


class TestF1k:
    def test_comm_text(self, cli):
        r = cli("f1k", "--k", 4, "--n", 2)
        assert r.returncode == EXIT_OK
        assert r.stdout.startswith("f[1,4] = ")
        assert "1/24*[X2 X1^4]" in r.stdout

    def test_three_bracket_sum(self, cli):
        r = cli("f1k", "--k", 1, "--n", 3)
        assert r.stdout == "f[1,1] = [X2 X1] + [X3 X1] + [X3 X2]\n"

    def test_trivial_zero(self, cli):
        r = cli("f1k", "--k", 2, "--n", 1)
        assert r.returncode == EXIT_OK
        assert r.stdout == "f[1,2] = 0\n"

    def test_direct_and_both(self, cli):
        direct = cli("f1k", "--k", 3, "--n", 2, "--path", "direct")
        assert direct.returncode == EXIT_OK
        assert direct.stdout.startswith("f[1,3] = ")
        both = cli("f1k", "--k", 3, "--n", 3, "--path", "both", "--format", "json")
        assert both.returncode == EXIT_OK
        doc = json.loads(both.stdout)
        assert "comm" in doc and "poly" in doc

    def test_latex(self, cli):
        r = cli("f1k", "--k", 1, "--n", 2, "--format", "latex")
        assert r.stdout == "f_{1,1} = [X_{2}, X_{1}]\n"

    def test_usage_errors(self, cli):
        assert cli("f1k", "--k", 0, "--n", 2).returncode == EXIT_USAGE
        assert cli("f1k").returncode == EXIT_USAGE
        r = cli("f1k", "--k", -3)
        assert r.returncode == EXIT_USAGE and r.stderr == "error: k must be >= 1, got -3\n"
