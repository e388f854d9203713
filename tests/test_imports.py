import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import treecascade

SLOW_MODULES = ("scipy.stats", "scipy.optimize", "scipy.sparse")


def test_package_import_leaves_slow_scipy_modules_unloaded():
    # each module is imported by the function that uses it, on first use
    script = (
        "import sys, treecascade\n"
        f"print(' '.join(m for m in {SLOW_MODULES!r} if m in sys.modules))\n"
    )
    src = str(Path(treecascade.__file__).resolve().parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_every_exported_name_resolves():
    # a deletion cannot leave a name in __all__ behind
    names = ["treecascade"] + [
        f"treecascade.{m.name}" for m in pkgutil.iter_modules(treecascade.__path__)
    ]
    dangling = {}
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if missing:
            dangling[name] = missing
    assert len(names) > 10 and dangling == {}
