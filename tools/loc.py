"""Line counts of Python modules: total, code, docstring, comment and blank.

    python tools/loc.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py``; the default is
``src``.  Prints one row per module and one for all of them.  Every line
falls in exactly one class: the lines of a module, class or function
docstring are docstring lines; a line that holds only a comment is a comment
line; an empty or blank line outside any string is blank; every other line
is code.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import namedtuple
from pathlib import Path

Counts = namedtuple("Counts", "total code docstring comment blank")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path) -> Counts:
    """The line counts of one module."""
    source = Path(path).read_text(encoding="utf-8")
    text = source.splitlines()
    doc = _docstring_lines(ast.parse(source, filename=str(path)))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    blank = {i for i, line in enumerate(text, 1)
             if not line.strip() and i not in doc and i not in code}
    total = len(text)
    return Counts(total, total - len(doc) - len(comment) - len(blank),
                  len(doc), len(comment), len(blank))


def modules(paths) -> list:
    """The ``*.py`` files named by paths, directories searched recursively."""
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def main(argv) -> int:
    rows = [(str(f), count(f)) for f in modules(argv or ["src"])]
    rows.append(("all", Counts(*(sum(c[i] for _, c in rows) for i in range(len(Counts._fields))))))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{f:>11}" for f in Counts._fields))
    for name, c in rows:
        print(f"{name:<{width}}" + "".join(f"{v:>11}" for v in c))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
