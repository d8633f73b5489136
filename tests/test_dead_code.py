"""No top-level name in the package without a production caller.

Every top-level function, class and module constant of ``src/raypatch`` must
be named outside its own definition, in the package or in the benchmark
(``perfbench/*.py``), not only in tests. A name counts where it appears as an
identifier, or as a string literal that is exactly the name (attribute names
the benchmark patches, ``__all__``); comments and docstrings do not count.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]


def definitions(source):
    """(name, first line, last line) of each top-level def, class and constant;
    dunder names such as ``__all__`` are the interpreter's and are left out."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def mentions(source):
    """(name, line) of each identifier, and of each string literal that is one."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):  # f-strings
                continue
            if isinstance(value, str) and value.isidentifier():
                yield value, tok.start[0]


def unused_names(sources, defining):
    """'file: name' for each top-level name of the ``defining`` files that no
    file of ``sources`` (file -> text) names outside the name's definition."""
    places = defaultdict(list)
    for path, text in sources.items():
        for name, line in mentions(text):
            places[name].append((path, line))
    return [f"{path}: {name}" for path in defining
            for name, first, last in definitions(sources[path])
            if all(where == path and first <= line <= last for where, line in places[name])]


def test_every_top_level_name_has_a_production_caller():
    package = sorted((ROOT / "src" / "raypatch").glob("*.py"))
    production = package + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in production}
    assert unused_names(sources, [str(p.relative_to(ROOT)) for p in package]) == []


def test_reports_a_name_only_its_definition_a_comment_or_a_docstring_names():
    sources = {
        "a.py": ('"""Holds DOCUMENTED."""\n'
                 "def lonely(n):\n    return lonely(n - 1)\n\n"
                 "DOCUMENTED = 1  # lonely\nPATCHED = 2\nIMPORTED = 3\n"),
        "b.py": "from a import IMPORTED\nsetattr(a, 'PATCHED', 0)\n",
    }
    assert unused_names(sources, ["a.py"]) == ["a.py: lonely", "a.py: DOCUMENTED"]
