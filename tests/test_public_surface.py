"""What users and the benchmark reach from outside the package: the README
examples run as documented, and every function the benchmark tracer wraps
still resolves in its module."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from abelianity.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang fenced block under the README heading `## heading`."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _readme_commands() -> list[list[str]]:
    """Every `abelianity ...` line of the README command-line block, without
    its shell redirect."""
    commands = []
    for line in _readme_block("Command line", "sh").splitlines():
        if line.startswith("abelianity "):
            argv = shlex.split(line)[1:]
            if ">" in argv:
                argv = argv[:argv.index(">")]
            commands.append(argv)
    return commands


def test_readme_library_snippet():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_readme_block("Library", "python"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "1/3 -1/3 2/3"
    assert lines[1] == "IntegerLambda NotAbelian"
    assert float(lines[2]) < 1e-12  # |y - 1|


def test_readme_lists_every_subcommand():
    assert sorted({argv[0] for argv in _readme_commands()}) == sorted(
        ["intersect", "classify", "enumerate-lines", "surfaces-through",
         "verify-y", "verify-super", "poisson", "scan"])


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def _spanned() -> tuple:
    """SPANNED as written in perfbench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no SPANNED")


@pytest.mark.parametrize("module,name", _spanned(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_spanned_function_resolves(module, name):
    mod = importlib.import_module(f"abelianity.{module}")
    assert callable(getattr(mod, name))


def test_exponent_multiset_build_is_a_classmethod():
    # the tracer wraps ExponentMultiset.build through the class __dict__
    from abelianity.oracle import ExponentMultiset
    assert isinstance(ExponentMultiset.__dict__["build"], classmethod)


def test_no_assert_guards_the_package():
    """`python -O` strips `assert`, so no check in the package may be one."""
    paths = sorted((ROOT / "src" / "abelianity").rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.relative_to(ROOT)}: assert at lines {lines}"
