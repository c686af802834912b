"""Count the lines of a Python package four ways, per module and in total.

    python3 tools/code_lines.py [PACKAGE_DIR]      (default: src/omtc)

The columns are:

- ``wc``: physical lines, as ``wc -l`` counts them;
- ``tokens``: lines outside docstrings that hold a code token (tokenize:
  any token but comments, newlines, indentation and the end marker; a
  token over several lines counts on each of them);
- ``ast``: lines outside docstrings on which an AST node starts;
- ``docs``: lines of docstrings (module, class and function), first to
  last.

Trimming docstrings or comments moves only ``wc`` and ``docs``, so the
``tokens`` and ``ast`` columns show a change of design.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: token types that carry no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every docstring of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{"wc", "tokens", "ast", "docs"} of one module's source."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    starts = {node.lineno for node in ast.walk(tree) if hasattr(node, "lineno")}
    return {"wc": source.count("\n"), "tokens": len(tokens - docs), "ast": len(starts - docs),
            "docs": len(docs)}


def main(argv=None) -> None:
    root = Path((argv or sys.argv[1:] or ["src/omtc"])[0])
    total = dict.fromkeys(("wc", "tokens", "ast", "docs"), 0)
    print(f"{'module':<20}{'wc':>7}{'tokens':>8}{'ast':>7}{'docs':>7}")
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for key in total:
            total[key] += counts[key]
        print(f"{path.name:<20}" + "".join(f"{counts[k]:>{w}}" for k, w in zip(total, (7, 8, 7, 7))))
    print(f"{'total':<20}" + "".join(f"{total[k]:>{w}}" for k, w in zip(total, (7, 8, 7, 7))))


if __name__ == "__main__":
    main()
