"""README's "Public API" section names exactly what `import whitefem` exports,
and `import whitefem` leaves the SciPy modules it rarely needs unloaded."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import whitefem

README = Path(__file__).resolve().parents[1] / "README.md"
# "- `whitefem.<module>`: `name`, `name`, ..." lines of the section
_MODULE_LINE = re.compile(r"^- `(whitefem\.\w+)`: (.+)$")


def _readme_api() -> dict[str, list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        match = _MODULE_LINE.match(line)
        if match:
            listed[match[1]] = re.findall(r"`(\w+)`", match[2])
    return listed


def _exports() -> set[str]:
    return {
        name for name, value in vars(whitefem).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_readme_lists_every_export_once():
    names = [name for module_names in _readme_api().values() for name in module_names]
    assert len(names) == len(set(names))
    assert set(names) == _exports()


def test_each_listed_name_lives_in_its_module():
    for module, names in _readme_api().items():
        defined = vars(importlib.import_module(module))
        for name in names:
            assert defined.get(name) is getattr(whitefem, name), (module, name)


# Run in a fresh interpreter: this process may already hold the modules.  Each
# call is the first use of one deferred module; the order makes each call load
# exactly one (scipy.optimize and scipy.integrate import scipy.special).
_FIRST_USES = """
import sys
import whitefem
from whitefem.spectral import spectral_tail_bound

DEFERRED = ("scipy.special", "scipy.optimize", "scipy.integrate")
calls = [
    lambda: whitefem.GaussianStream(0).normals(4),
    lambda: whitefem.eigenpairs(whitefem.Interval(0.0, 1.0), whitefem.robin(1.0), 3),
    lambda: spectral_tail_bound(whitefem.Interval(0.0, 1.0), whitefem.neumann(), 10.0, 1.0, 1.0, 2),
]
for k, call in enumerate(calls):
    loaded = [m for m in DEFERRED if m in sys.modules]
    assert loaded == list(DEFERRED[:k]), (k, loaded)
    call()
    assert DEFERRED[k] in sys.modules, DEFERRED[k]
"""


def test_scipy_integrate_optimize_and_special_load_on_first_use():
    src = str(Path(whitefem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FIRST_USES], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
