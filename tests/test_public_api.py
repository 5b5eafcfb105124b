"""README's "Public API" section names exactly what `import whitefem` exports."""

import importlib
import inspect
import re
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
