import ast
import importlib
import re
from pathlib import Path

import invkloos

ROOT = Path(invkloos.__file__).parent


def _readme_caps() -> dict[str, int]:
    """`module.NAME` -> value, from the rows of README's caps table."""
    text = (ROOT.parent.parent / "README.md").read_text()
    section = text.split("## Budgets and caps", 1)[1].split("\n## ", 1)[0]
    caps = {}
    for name, value in re.findall(r"^\| `(\w+\.\w+)` \| ([^|]+) \|", section, re.M):
        base, _, exp = value.strip().partition("^")
        caps[name] = int(base) ** int(exp or 1)
    return caps


def _module_caps() -> dict[str, int]:
    """`module.NAME` -> value, for every module-level *_CAP assignment."""
    caps = {}
    for path in sorted(ROOT.glob("*.py")):
        module = importlib.import_module(f"invkloos.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                        caps[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    return caps


def test_readme_caps_table_names_every_cap_with_its_value():
    module_caps = _module_caps()
    assert len(module_caps) >= 7
    assert _readme_caps() == module_caps
