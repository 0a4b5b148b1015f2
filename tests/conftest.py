import contextlib
import io
import os
import subprocess
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from zassenhaus.cli import main
from zassenhaus.engine import EngineCtx
from zassenhaus.freealg import AlgebraCtx, AssocPoly

# One engine per (n, K) for the whole session: values are immutable and
# exact, and the expensive high-degree computations should happen once.
_ENGINES = {}


def shared_engine(n, max_degree):
    key = (n, max_degree)
    if key not in _ENGINES:
        _ENGINES[key] = EngineCtx(AlgebraCtx(n, max_degree))
    return _ENGINES[key]


def restricted(p, max_degree):
    """p in the context (n, max_degree), deeper or shallower: its terms of degree <= max_degree, word by word."""
    return AssocPoly(AlgebraCtx(p.ctx.n, max_degree), [(w, c) for w, c in p.terms() if len(w) <= max_degree])


@pytest.fixture
def engine():
    return shared_engine


def run_cli(*args, extra_env=None):
    """Run `zassenhaus.cli.main` in this process and capture it like a subprocess.

    `SystemExit` gives its code and an uncaught exception gives 1 with the
    traceback on stderr, as `python -m zassenhaus` would.  The environment
    is restored afterwards.
    """
    argv = [str(a) for a in args]
    saved_env = dict(os.environ)
    os.environ.pop("ZASSENHAUS_CACHE_DIR", None)
    os.environ.update(extra_env or {})
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code
            except Exception:
                traceback.print_exc()
                rc = 1
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
    return subprocess.CompletedProcess(["zassenhaus", *argv], rc, out.getvalue(), err.getvalue())


def run_cli_process(*args, extra_env=None, **run_kwargs):
    """Run `python -m zassenhaus` in a fresh interpreter and capture its output; `run_kwargs` go to `subprocess.run`."""
    env = dict(os.environ)
    env.pop("ZASSENHAUS_CACHE_DIR", None)
    if extra_env:
        env.update(extra_env)
    cmd = [sys.executable, "-m", "zassenhaus", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, **run_kwargs)


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture
def cli_process():
    return run_cli_process
