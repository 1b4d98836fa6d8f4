"""Each qglab module keeps its `_`-prefixed names to itself.

A private name is a decision its module may change alone.  The one
exception is the transform pair and the two helpers that the flux and
norm code of `diagnostics` shares with `spectral`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qglab"
MODULES = {path.stem for path in SRC.glob("*.py")}
ALLOWED = {("diagnostics", "spectral", name) for name in ("_rfft2", "_irfft2", "_check_negative_power", "_shared_grid")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_uses(path: Path) -> list[tuple[str, str, str]]:
    """(module, owner, name) for every use in `path` of another qglab module's private name."""
    module = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # local name -> the qglab module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "qglab":
                continue
            owner = parts[-1] if parts[-1] not in ("", "qglab") else None
            for alias in node.names:
                if owner is None:  # from . import spectral
                    if alias.name in MODULES:
                        aliases[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name) and owner != module:
                    uses.append((module, owner, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
            and aliases[node.value.id] != module
        ):
            uses.append((module, aliases[node.value.id], node.attr))
    return uses


def test_no_module_uses_another_modules_private_names():
    uses = [use for path in sorted(SRC.glob("*.py")) for use in _foreign_private_uses(path)]
    assert sorted(set(uses) - ALLOWED) == []


def test_the_scan_sees_private_uses(tmp_path):
    # a scan that finds nothing would pass the rule above on any code
    path = tmp_path / "cli.py"
    path.write_text(
        "from . import diagnostics\n"
        "from .spectral import Grid, _irfft2\n"
        "from qglab import models as m\n"
        "norms = diagnostics._norms_and_ladder\n"
        "kernel = m._kernel\n"
        "public = diagnostics.state_norms\n"
    )
    assert sorted(_foreign_private_uses(path)) == [
        ("cli", "diagnostics", "_norms_and_ladder"),
        ("cli", "models", "_kernel"),
        ("cli", "spectral", "_irfft2"),
    ]
