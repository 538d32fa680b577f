"""Size of the library: source lines, class count and option count.

Usage: python3 tools/size_report.py [SRC_DIR]   (default: src/recykl)

Prints the total line count of ``SRC_DIR/*.py`` (what ``wc -l`` reports);
``classes``, the number of class definitions in those files, nested ones
included, so that merged types show beside lines and options; and the
option count, the number of independently settable values, read from the
syntax tree under one fixed rule:

- ``defaulted_params``: parameters with a default value, positional or
  keyword-only, of every function or method whose name does not start with
  an underscore (nested functions included);
- ``dataclass_fields``: annotated fields of every class decorated with
  ``dataclass``;
- ``cli_flags``: ``--`` option strings passed to any ``add_argument`` call.

The three parts add up to ``options``.  ``long_functions`` counts the
functions and methods, nested and private ones included, whose body runs
past 60 lines: from its first statement after any docstring to the end of
its last, blank and comment lines between them included.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

LONG_FUNCTION_LINES = 60


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _body_lines(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    body = fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body
    return body[-1].end_lineno - body[0].lineno + 1 if body else 0


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _flags(call: ast.Call) -> int:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
        return 0
    return sum(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and a.value.startswith("--") for a in call.args)


def size_report(src_dir: str) -> dict:
    lines = classes = params = fields = flags = long_functions = 0
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path, "rb") as fh:
            source = fh.read()
        lines += source.count(b"\n")
        for node in ast.walk(ast.parse(source, filename=path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    params += _defaulted(node)
                long_functions += _body_lines(node) > LONG_FUNCTION_LINES
            elif isinstance(node, ast.ClassDef):
                classes += 1
                if _is_dataclass(node):
                    fields += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                                  for s in node.body)
            elif isinstance(node, ast.Call):
                flags += _flags(node)
    return {
        "lines": lines,
        "classes": classes,
        "options": params + fields + flags,
        "defaulted_params": params,
        "dataclass_fields": fields,
        "cli_flags": flags,
        "long_functions": long_functions,
    }


def main(argv: list[str]) -> int:
    src_dir = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..", "src", "recykl")
    for key, value in size_report(src_dir).items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
