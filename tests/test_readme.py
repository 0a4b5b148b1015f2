"""The examples in README.md print what the README shows.

Every `sh` block that starts with `$ zassenhaus ...` and shows output lines
is run through the CLI, and the Python API block is executed; both must
print exactly the lines below them in the README.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from zassenhaus.cli import EXIT_OK

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)  # (language, body)

PROMPT = "$ zassenhaus "


def shell_examples():
    """{command: output lines} of the `sh` blocks that show their output."""
    out = {}
    for lang, body in BLOCKS:
        lines = body.splitlines()
        if lang == "sh" and lines[0].startswith(PROMPT) and len(lines) > 1:
            out[lines[0][len(PROMPT):]] = lines[1:]
    return out


SHELL_EXAMPLES = shell_examples()


def test_readme_shows_the_examples():
    assert "terms --n 2 --max-degree 4 --form comm" in SHELL_EXAMPLES
    assert "f1k --k 2 --n 3" in SHELL_EXAMPLES


@pytest.mark.parametrize("command", sorted(SHELL_EXAMPLES))
def test_shell_example(cli, command):
    r = cli(*command.split())
    assert r.returncode == EXIT_OK
    assert r.stdout.splitlines() == SHELL_EXAMPLES[command]


def test_python_api_example():
    langs = [lang for lang, _ in BLOCKS]
    i = langs.index("python")
    assert langs[i + 1] == "text", "the Python example must be followed by its output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(BLOCKS[i][1], {})
    assert out.getvalue() == BLOCKS[i + 1][1]
