"""The library names the benchmark's tracer wraps.

``perfbench/ledger.py`` patches recykl functions and methods by name for its
traced pass.  Installing and removing its tracer here makes a rename or
deletion of any of those names fail the test suite, not a benchmark run.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ledger():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ledger", os.path.join(ROOT, "perfbench", "ledger.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = load_ledger().Tracer("t")
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.remove()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
