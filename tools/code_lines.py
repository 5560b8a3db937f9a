"""Count code lines of Python modules, per module and in total.

A code line is a line holding a token other than a comment, a NL, NEWLINE,
INDENT or DEDENT token, or a docstring (a string expression statement
heading a module, class or function).  A token spanning several lines, such
as a multi-line string that is not a docstring, counts on each of them.

    python tools/code_lines.py                 # src/pmcgraph/*.py
    python tools/code_lines.py perfbench/*.py  # any files
    python tools/code_lines.py --defs src/pmcgraph/solver.py

With `--defs`, each module's count is followed by that of each of its
top-level functions and classes, from the first line of its decorators to
its last line, by the same rule.
"""

import argparse
import ast
import glob
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
HEADED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """Line numbers of the module's, classes' and functions' docstrings."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HEADED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_line_numbers(path):
    """The numbers of the code lines of one file."""
    source = Path(path).read_text(encoding="utf-8")
    docs = docstring_lines(source)
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docs


def code_lines(path):
    return len(code_line_numbers(path))


def definitions(path):
    """(name, code lines) of each top-level function and class, in order."""
    lines = code_line_numbers(path)
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if isinstance(node, HEADED[1:]):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, len(lines & set(range(first, node.end_lineno + 1)))))
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files (default: src/pmcgraph/*.py)")
    parser.add_argument("--defs", action="store_true",
                        help="also count each top-level function and class")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths or sorted(glob.glob("src/pmcgraph/*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
        for name, k in definitions(path) if args.defs else ():
            print(f"{k:6d}    {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
