"""The package exports nothing that only its own tests use.

Every name in a layer module's `__all__` must be read somewhere in `src/`,
`demos/`, `bench/` or `tools/` (a name or an attribute, in any file but the
package's `__init__.py`, which only re-exports). A name read from `tests/`
alone is test-only API: move it into the tests or delete it. The package
depends on numpy alone: importing the command line loads no scipy module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("fourier", "privacy", "estimator", "adaptive", "densities", "experiments", "cli")
# The second route to the noise scale, gaussian_sigma(coefficient_sensitivity(...)),
# is kept apart from sigma_for_cutoff so that acceptance criterion 1 can
# cross-check the two; only tests call it, by design.
ALLOWED = {"coefficient_sensitivity", "gaussian_sigma"}


def _exports(module: Path) -> list[str]:
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_no_public_name_is_test_only():
    read = set()
    for top in ("src", "demos", "bench", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    test_only = {
        layer: [name for name in _exports(ROOT / "src" / "privdens" / f"{layer}.py")
                if name not in read and name not in ALLOWED]
        for layer in LAYERS
    }
    assert not any(test_only.values()), f"exported but read only by tests: {test_only}"


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    script = ("import sys, privdens.cli\n"
              "print([k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')])")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
