"""Every name a module of the package imports is used in that module, and
only `caps.py` reads the environment or words a refused count.

CI runs no linter, so this reads each module of `src/symba` (the package's
`__init__.py`, which imports names to export them, aside) with the standard
`ast` module: an imported name must occur in the module as a name, or in a
string annotation. SYMBA_CAP is read once per process, in `caps.py`; a
module that read `os.environ` (or `os.getenv`) itself would step round that.
A refusal's count ("would have N entries", "at least 2^k") is written by
`caps` alone, so one count has one wording whichever module refuses it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symba"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _used(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _used(ast.parse(note.value, mode="eval"))
    return names


def test_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(_imported(tree) - _used(tree)) == []


def _environment_reads(tree) -> list:
    """The lines that name the process environment: `os.environ`, `os.getenv`
    and the like, or those names imported from `os`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENVIRONMENT]
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_caps_reads_the_environment(path):
    reads = _environment_reads(ast.parse(path.read_text()))
    assert bool(reads) is (path.name == "caps.py"), f"{path.name} reads the environment at lines {reads}"


def _strings_outside_docstrings(tree) -> list:
    """(line, text) of every string literal, f-string parts included, but docstrings."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = {id(n.body[0].value) for n in ast.walk(tree) if isinstance(n, kinds) and ast.get_docstring(n)}
    return [
        (n.lineno, n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docs
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_caps_words_a_count(path):
    strings = _strings_outside_docstrings(ast.parse(path.read_text()))
    lines = [line for line, text in strings if "at least 2^" in text or "would have" in text]
    assert bool(lines) is (path.name == "caps.py"), f"{path.name} words a count at lines {lines}"
