"""Statement lines of the library that no ordinary run executes.

Usage: python3 tools/traffic.py

Traces, with the standard library's ``sys.settrace``, the lines of
``src/recykl`` that run during:

- one pass of each workload of ``perfbench/workloads.py`` at its
  smoke-test size, through the calls ``perfbench/passes.py`` makes
  (manifest read, roster, roster call, report files);
- the replay of every case in ``tests/fixtures``;
- the five CLI subcommands (``generate``, ``run``, ``output-error``,
  ``weight-study`` and ``verify-bounds``) on a 12x12 sequence in a
  temporary directory.

Tracing starts before the library is imported, so module-level code
counts.  It then prints, per module of ``src/recykl``, the number of
statements and the lines of those that none of these executed, as
ranges of consecutive statements; docstrings and statements that compile
to no bytecode are not counted.  A statement counts as executed when any
line of its header ran: the whole statement for a simple one, the lines
before its body for a compound one.  Exits 1 when a run fails (a fixture
that does not reproduce, a pass with an error, a subcommand that exits
nonzero), else 0.  Nothing under ``perfbench/`` or ``tests/`` is written.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "recykl")


def start_tracing() -> dict[str, set[int]]:
    """Record every line the library runs from now on: {file: lines}."""
    lines: dict[str, set[int]] = defaultdict(set)
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    return lines


def run_all(tmp: str) -> list[str]:
    """Run the passes, fixture replays and subcommands; their failures."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import passes
    from workloads import WORKLOADS, tiny

    from recykl import cli, problems
    from recykl.fixtures import verify_fixture

    failures = []
    for name, wl in WORKLOADS.items():
        wl = tiny(wl)
        seq = problems.gen_diffusion_sequence(wl.grid, wl.systems, wl.delta, seed=1,
                                              tol=wl.tol, load_scale=wl.load_scale)
        if wl.outputs:
            seq.C = problems.gen_output_matrix(wl.outputs, seq.n, 2)
        manifest = problems.write_sequence(seq, os.path.join(tmp, name))
        out = passes.run_pass(wl, manifest, os.path.join(tmp, name + "-out"))
        if out["error"] is not None:
            failures.append(f"workload {name}: {out['error']}")

    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.json"))):
        if os.path.basename(path) != "acceptance_calibration.json" and verify_fixture(path):
            failures.append(f"fixture {os.path.basename(path)} does not reproduce")

    seq_dir, manifest = os.path.join(tmp, "seq"), os.path.join(tmp, "seq", "manifest.json")
    for argv in (
        ["generate", "--grid", "12", "12", "--systems", "4", "--seed", "3", "--tol", "1e-8",
         "--outputs", "5", "--out-dir", seq_dir],
        ["run", "--manifest", manifest, "--storage-cap", "12", "--out-dir", tmp],
        ["output-error", "--manifest", manifest, "--storage-cap", "12", "--out-dir", tmp],
        ["weight-study", "--manifest", manifest, "--warmup", "3", "--dims", "2", "4",
         "--out-dir", tmp],
        ["verify-bounds", "--instances", "3", "--out-dir", tmp],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            failures.append(f"recykl {argv[0]} exited {code}")
    return failures


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and the code objects nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def statements(path: str) -> dict[int, range]:
    """{first line: header lines} of each statement of a module that compiles to code."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    compiled = _code_lines(compile(source, path, "exec"))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        header = range(first, last + 1)
        if compiled.intersection(header):
            out[node.lineno] = header
    return out


def _ranges(missed: list[int], order: list[int]) -> str:
    """``missed`` as runs of consecutive entries of ``order``, e.g. "12-19, 40"."""
    runs: list[list[int]] = []
    position = {line: i for i, line in enumerate(order)}
    for line in missed:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main() -> int:
    lines = start_tracing()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            failures = run_all(tmp)
    finally:
        sys.settrace(None)
    total = missed_total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        stmts = statements(path)
        ran = lines.get(path, set())
        order = sorted(stmts)
        missed = [line for line in order if not ran.intersection(stmts[line])]
        total, missed_total = total + len(order), missed_total + len(missed)
        text = f": {_ranges(missed, order)}" if missed else ""
        print(f"{os.path.basename(path)} {len(order)} statements, {len(missed)} not run{text}")
    print(f"total {total} statements, {missed_total} not run")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
