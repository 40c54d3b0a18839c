"""The README's spec table lists exactly the registered kinds and their keys."""

import re
from pathlib import Path

from normlab import DomainSpec, SpaceSpec, TestFunctionSpec

README = Path(__file__).resolve().parent.parent / "README.md"
FAMILIES = {"function": TestFunctionSpec, "domain": DomainSpec, "space": SpaceSpec}


def _readme_table() -> dict[str, dict[str, dict[str, str | None]]]:
    """family -> kind -> key -> default text (None for a key without one)."""
    table: dict = {}
    family = None
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 3 or not cells[1].startswith("`"):
            continue
        family = cells[0] or family
        if family in FAMILIES:
            keys = dict(item.partition("=")[::2] for item in re.findall(r"`([^`]+)`", cells[2]))
            table.setdefault(family, {})[cells[1].strip("`")] = {k: v or None for k, v in keys.items()}
    return table


def test_readme_spec_table_matches_the_registries():
    table = _readme_table()
    assert set(table) == set(FAMILIES)
    for family, base in FAMILIES.items():
        assert set(table[family]) == set(base.kinds), family
        for tag, cls in base.kinds.items():
            listed = table[family][tag]
            assert set(listed) == set(cls.keys + cls.optional), (family, tag)
            for key, default in cls.defaults.items():
                assert float(listed[key]) == default, (family, tag, key)
