"""tools/size_report.py: line count and option count of the library."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "size_report.py")


def report(*args) -> dict:
    proc = subprocess.run([sys.executable, SCRIPT, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {key: int(value) for key, value in (line.split() for line in proc.stdout.splitlines())}


def test_library_parts_add_up():
    got = report()
    assert got["options"] == got["defaulted_params"] + got["dataclass_fields"] + got["cli_flags"]
    src = os.path.join(ROOT, "src", "recykl")
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    assert got["lines"] == lines


def test_counting_rule(tmp_path):
    # a body of 61 lines is long, one of 60 is not, and a docstring does
    # not count toward a body
    long_body = "\n".join(f"    x{i} = {i}" for i in range(61))
    edge_body = "\n".join(f"    y{i} = {i}" for i in range(60))
    docstring = '    """A docstring.\n\n' + "    More.\n" * 10 + '    """\n'
    source = textwrap.dedent('''\
        import argparse
        from dataclasses import dataclass, field


        def public(a, b=1, *, c=2, d):
            def nested(x=0):
                return x
            return nested


        def _private(a=1):
            return a


        class Thing:
            def method(self, x=None):
                return x

            def _helper(self, y=3):
                return y


        @dataclass(frozen=True)
        class Config:
            size: int
            names: list = field(default_factory=list)
            LIMIT = 4


        class Plain:
            value: int = 0


        def parser():
            p = argparse.ArgumentParser()
            p.add_argument("--alpha", "-a", type=int, default=1)
            p.add_argument("beta")
            p.add_argument("-g", "--gamma")
            return p
        ''') + f"""

def _long():
{long_body}


def edge():
{docstring}{edge_body}
"""
    (tmp_path / "mod.py").write_text(source)
    (tmp_path / "notes.txt").write_text("def ignored(a=1): pass\n")
    assert report(str(tmp_path)) == {
        "lines": source.count("\n"),
        "classes": 3,  # Thing, Config, Plain
        "options": 8,
        "defaulted_params": 4,  # b, c, nested's x, method's x
        "dataclass_fields": 2,  # size, names
        "cli_flags": 2,  # --alpha, --gamma
        "long_functions": 1,  # _long
    }
