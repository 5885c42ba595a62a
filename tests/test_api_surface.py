"""Every defaulted parameter of a navgeo function is set by some call in the
repository: a default that no call overrides is a constant, and is written
as one. A call sets a parameter when it passes it by keyword, reaches its
position, or passes * or ** arguments. Calls are matched by name: a method's
positions count after self, and an __init__ is called by the name of its
class or of a class in the same module that subclasses it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _nodes(*patterns):
    return [n for pat in patterns for p in sorted(ROOT.glob(pat))
            for n in ast.walk(ast.parse(p.read_text()))]


def _unset_defaults():
    kws, npos = {}, {}  # name -> keywords passed ("*": * or **), most positions
    for c in _nodes("src/**/*.py", "tests/**/*.py", "tools/**/*.py", "bench/**/*.py"):
        if isinstance(c, ast.Call):
            name = getattr(c.func, "attr", getattr(c.func, "id", None))
            passed = {k.arg for k in c.keywords}  # None for **
            if None in passed or any(isinstance(a, ast.Starred) for a in c.args):
                passed.add("*")
            kws.setdefault(name, set()).update(passed)
            npos[name] = max(npos.get(name, 0), len(c.args))
    nodes = _nodes("src/navgeo/*.py")
    classes = [c for c in nodes if isinstance(c, ast.ClassDef)]
    owner = {id(f): c for c in classes for f in c.body}
    found = []
    for f in (f for f in nodes if isinstance(f, ast.FunctionDef)):
        names = [f.name]
        if f.name == "__init__":
            names = [c.name for c in classes if c is owner[id(f)]
                     or owner[id(f)].name in [getattr(b, "id", None) for b in c.bases]]
        skip = id(f) in owner and "staticmethod" not in [
            getattr(d, "id", None) for d in f.decorator_list]
        pos, a = f.args.posonlyargs + f.args.args, f.args
        defaulted = [(p, i - skip) for i, p in enumerate(pos)
                     if i >= len(pos) - len(a.defaults)]
        defaulted += [(p, float("inf")) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        found += [f"{f.name}({p.arg})" for p, i in defaulted if not any(
            {p.arg, "*"} & kws.get(n, set()) or i < npos.get(n, 0) for n in names)]
    return found


def test_every_defaulted_parameter_is_set_by_some_call():
    assert _unset_defaults() == []
