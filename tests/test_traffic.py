"""tools/traffic.py: the library's statements that no ordinary run executes."""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "traffic.py")


def test_lists_every_module():
    proc = subprocess.run([sys.executable, SCRIPT], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    want = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "src", "recykl",
                                                                      "*.py")))
    assert [line.split()[0] for line in modules] == want
    assert total.startswith("total ")
