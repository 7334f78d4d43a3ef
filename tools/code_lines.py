#!/usr/bin/env python
"""Count code lines: non-blank, non-comment, non-docstring.

The measure the simplicity PRs quote in CHANGES.md.  A line counts when
it carries at least one token that is not a comment, not whitespace and
not part of a docstring (``tokenize`` finds the tokens, ``ast`` finds
the docstrings of modules, classes and functions), so reformatting a
comment or growing a docstring never moves the number.

Usage::

    python tools/code_lines.py PATH [PATH ...]

Each ``PATH`` is a ``.py`` file or a directory scanned recursively.
Prints one ``<lines>  <file>`` row per file and a total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:7d}  {path}")
    print(f"{total:7d}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
