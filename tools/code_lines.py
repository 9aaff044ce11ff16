#!/usr/bin/env python3
"""Count the code lines of a package's modules, as its size is quoted.

    python3 tools/code_lines.py SRC_DIR

SRC_DIR is a directory of Python modules (a checkout's `src/epszeta`).
A code line is a line that holds a token of the module's code, other
than one of a docstring: the count leaves out docstrings, comments and
blank lines, and counts a statement written over several lines once per
line.  The script prints one line per module with its code lines and its
file lines, the totals, and the number of names in the `__all__` of the
directory's `__init__.py`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# the tokens that are no code: comments, line breaks and indentation
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def _docstrings(tree):
    """The docstring statements of a module, class or function, its own included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first


def code_lines(text):
    """The number of code lines of one module's source (module docstring)."""
    docstrings = set()
    for node in _docstrings(ast.parse(text)):
        docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def exported(init):
    """The number of names in the `__all__` of an `__init__.py`, or None."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return None


def main(argv):
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0])
    total_code = total_file = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        code, file_lines = code_lines(text), len(text.splitlines())
        total_code += code
        total_file += file_lines
        print(f"{path.name:20} {code:5} code {file_lines:5} file lines")
    print(f"{'total':20} {total_code:5} code {total_file:5} file lines")
    init = src / "__init__.py"
    print(f"__all__: {exported(init) if init.is_file() else None} names")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
