"""No public surface that only tests reach.

Every module-level function and class in `src/` must be referenced by name
somewhere in `src/` or `perfbench/`, unless it is a click command or is on
the allowlist below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "ring_add": "reference oracle: tests check share arithmetic against it",
    "ring_sub": "reference oracle: tests check share arithmetic against it",
    "ring_mul": "reference oracle: tests check Beaver and fixed-point products",
    "mult_split": "acceptance criterion 9 reads the conv share of linear mults",
}


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _definitions() -> dict:
    """Module-level function and class names in src/, minus click commands."""
    defs = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not _is_click_command(node)):
                defs.setdefault(node.name, path.relative_to(ROOT))
    return defs


def _references() -> set:
    """Every name read or attribute taken in src/ and perfbench/."""
    names = set()
    for top in ("src", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_has_a_caller_outside_tests():
    refs = _references()
    unused = {name: str(path) for name, path in _definitions().items()
              if name not in refs and name not in ALLOWED}
    assert not unused, f"only tests reach these; delete or allowlist them: {unused}"


def test_allowlist_names_only_defined_unreferenced_names():
    defs, refs = _definitions(), _references()
    stale = [name for name in ALLOWED if name not in defs or name in refs]
    assert not stale, f"allowlist entries no longer needed: {stale}"
