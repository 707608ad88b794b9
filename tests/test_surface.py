"""The public surface of src/covdev is what the program itself uses.

Every public top-level function and class of each module, and every public
method and property of a public class, must be reached by code in src/ from
outside its own body: from module-level code, or from the body of another
definition that is itself reached, repeated until nothing changes.  Names
are matched as bare identifiers: a function or class by a `Name` or the
attribute of an `Attribute` (`bounds.chz_bound`), a method or property by
the attribute only.  So a mention in a docstring or a re-export from
`__init__.py` does not count.  A definition only tests reach belongs with those tests.
"""

import ast
from pathlib import Path

import covdev

SRC = Path(__file__).resolve().parents[1] / "src" / "covdev"


def _used(nodes) -> set[tuple[str, str]]:
    """("name", id) and ("attr", attr) of every reference anywhere under nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(("name", sub.id))
            elif isinstance(sub, ast.Attribute):
                out.add(("attr", sub.attr))
    return out


def _units() -> tuple[set[tuple[str, str]], dict[str, tuple[str, str | None, list]]]:
    """(references made by module-level code, {qualified name: (bare name, owning
    class or None, body nodes)}) over every module but `__init__.py`.  A
    class's own unit holds its body without its methods."""
    roots: set[tuple[str, str]] = set()
    units: dict[str, tuple[str, str | None, list]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units[f"{mod}.{stmt.name}"] = (stmt.name, None, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [s for s in stmt.body if s not in methods]
                units[f"{mod}.{stmt.name}"] = (stmt.name, None, rest + stmt.bases + stmt.decorator_list)
                for m in methods:
                    units[f"{mod}.{stmt.name}.{m.name}"] = (m.name, f"{mod}.{stmt.name}", [m])
            else:
                roots |= _used([stmt])
    return roots, units


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached() -> list[str]:
    """Public definitions that no reached code in src/ references."""
    used, units = _units()
    live: set[str] = set()
    while True:
        grown = {
            key for key, (name, owner, _) in units.items()
            if key not in live
            and (owner is None and (("name", name) in used or ("attr", name) in used)
                 or owner in live and (("attr", name) in used or _is_dunder(name)))
        }
        if not grown:
            break
        live |= grown
        used |= _used(node for key in grown for node in units[key][2])

    def public(key):
        name, owner, _ = units[key]
        return not name.startswith("_") and (owner is None or public(owner))

    return sorted(key for key in units if key not in live and public(key))


def test_every_public_definition_is_reached_from_src():
    assert unreached() == []


def test_all_names_resolve():
    missing = [name for name in covdev.__all__ if not hasattr(covdev, name)]
    assert missing == []
