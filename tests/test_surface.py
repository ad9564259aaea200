"""No surface that only tests reach.

Every setting in `src/` must have a user in `src/` or `perfbench/`, unless
it is on the allowlist below with the reason it stays:

* each module-level function, class and assigned name must be referenced;
* each parameter with a default, on a function or method, must be passed,
  by keyword or by position, by some call (a call to a class counts for its
  ``__init__``; click commands are exempt, since click fills them);
* each dataclass field and each ``self.`` attribute written must be read.

Everything is matched by name alone, not by what the name resolves to: a
call to any function called ``f`` counts for every ``f``, and a field
counts as read only when an attribute of its name is read, on any object
(a ``getattr`` with a string does not count; such a field needs an
allowlist entry).  So the scan can miss a setting that hides behind a
same-named function, and flags no field read as an attribute.
A call that spreads ``*args`` or ``**kwargs`` counts as passing every
parameter, and so does a function taken as a value rather than called,
since it may be called under any name; a bare name that its module binds
itself is taken for a local variable, not for a function.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "ring_add": "reference oracle: tests check share arithmetic against it",
    "ring_sub": "reference oracle: tests check share arithmetic against it",
    "ring_mul": "reference oracle: tests check Beaver and fixed-point products",
    "mult_split": "acceptance criterion 9 reads the conv share of linear mults",
    "__version__": "package metadata",
    "listen_once(timeout)": "deployment setting: how long party 0 waits for its peer",
    "connect_with_retry(timeout)": "deployment setting: how long party 1 keeps dialling",
    "TranscriptRecorder": "perfbench/spans.py wraps its methods by name; goes with "
                          "the next change to the benchmark",
}


def _trees(*tops) -> list:
    return [ast.parse(path.read_text()) for top in tops
            for path in sorted((ROOT / top).rglob("*.py"))]


def _decorators(node) -> set:
    funcs = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {_name(f) for f in funcs}


def _is_click_command(node) -> bool:
    return "command" in _decorators(node)


def _name(node) -> str:
    """The name a call or reference matches on: `f` in both `f` and `x.f`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _functions(tree):
    """(callee name, def) for every function in a tree; `__init__` goes by its class."""
    inits = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    inits[id(item)] = node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield inits.get(id(node), node.name), node


def _params(fn) -> list:
    """Parameter names a caller can pass, `self` and `cls` left out."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    return names[1:] if names and names[0] in ("self", "cls") else names


def _definitions() -> set:
    """Module-level function, class and assigned names in src/."""
    names = set()
    for tree in _trees("src"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not _is_click_command(node):
                    names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def _references() -> set:
    """Every name read or attribute taken in src/ and perfbench/."""
    names = set()
    for tree in _trees("src", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _parameters() -> set:
    """`f(p)` for each parameter with a default on a src/ function or method."""
    params = set()
    for tree in _trees("src"):
        for name, fn in _functions(tree):
            if _is_click_command(fn):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            params.update(f"{name}({a.arg})" for a in defaulted)
    return params


def _passed() -> set:
    """`f(p)` for each parameter that some call in src/ or perfbench/ passes."""
    signatures = {}
    for tree in _trees("src"):
        for name, fn in _functions(tree):
            signatures.setdefault(name, []).append(_params(fn))
    passed = set()
    for tree in _trees("src", "perfbench"):
        callees, bound = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = _name(node.func)
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                for params in signatures.get(name, ()):
                    if spread or any(kw.arg is None for kw in node.keywords):
                        passed.update(f"{name}({p})" for p in params)
                    passed.update(f"{name}({p})" for p in params[:len(node.args)])
                    passed.update(f"{name}({kw.arg})" for kw in node.keywords)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load) and id(node) not in callees
                    and not (isinstance(node, ast.Name) and node.id in bound)):
                name = _name(node)
                for params in signatures.get(name, ()):
                    passed.update(f"{name}({p})" for p in params)
    return passed


def _fields() -> set:
    """Dataclass fields and `self.` attributes written in src/."""
    fields = set()
    for tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node):
                fields.update(item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                fields.add(node.attr)
    return fields


def _reads() -> set:
    """Every attribute read in src/ and perfbench/."""
    return {node.attr for tree in _trees("src", "perfbench") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@lru_cache(maxsize=None)
def _unused() -> dict:
    """What each test flags; computed once, read by every test, never written."""
    return {
        "names": _definitions() - _references(),
        "parameters": _parameters() - _passed(),
        "fields": _fields() - _reads(),
    }


def test_every_definition_has_a_caller_outside_tests():
    unused = sorted(_unused()["names"] - set(ALLOWED))
    assert not unused, f"only tests reach these; delete or allowlist them: {unused}"


def test_every_defaulted_parameter_is_passed_outside_tests():
    unused = sorted(_unused()["parameters"] - set(ALLOWED))
    assert not unused, f"only tests set these; delete or allowlist them: {unused}"


def test_every_field_is_read_outside_tests():
    unused = sorted(_unused()["fields"] - set(ALLOWED))
    assert not unused, f"nothing reads these; delete or allowlist them: {unused}"


def test_allowlist_names_only_defined_unreferenced_names():
    flagged = set().union(*_unused().values())
    stale = [name for name in ALLOWED if name not in flagged]
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_src_imports_only_the_standard_library_numpy_and_click():
    import sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "xconv2pc"}
    foreign = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign.update(f"{path.relative_to(ROOT)}: {top}" for top in tops
                           if top not in allowed)
    assert not foreign, f"imports outside numpy, click and the standard library: {sorted(foreign)}"
