"""Every `mas` module imports on its own, whatever was imported before."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "mas").glob("*.py")
                 if p.stem != "__init__")

# drops every mas module before each import, so no module leans on one that
# an earlier import happened to load
SCRIPT = """
import importlib, sys
import mas
assert not [m for m in sys.modules if m.startswith("mas.")], "mas pre-imports"
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "mas"]:
        del sys.modules[loaded]
    importlib.import_module("mas." + name)
    print(name)
"""


def test_every_module_imports_in_a_fresh_interpreter():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *MODULES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == MODULES
