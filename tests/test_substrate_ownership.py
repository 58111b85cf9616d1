"""The Jini/net substrate's shared decisions have one owner each: no package
reads another's private state, and one function pushes events.

Beside ``test_ownership.py``; the behaviour of the owners themselves is
tested where they live (``tests/jini/test_lease.py``, ``test_events.py``,
``tests/net/test_network.py``).
"""

import ast
from collections import defaultdict

from tests.test_planes import SRC

REPRO = SRC / "repro"

#: The documented seams: hot paths that read a kernel or context field
#: directly because a call per event or per span is what they exist to avoid
#: (each is commented where it is used).
SEAMS = {
    "_now": "the kernel clock, read per span without the property call",
    "_profiler": "the kernel's observer slot the flight recorder installs",
    "_tie_rng": "the kernel's tie-break stream position, for snapshots",
    "_data": "ServiceContext's path dict, for trace-parent propagation",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _package(path):
    parts = path.relative_to(REPRO).parts
    return parts[0] if len(parts) > 1 else path.stem


def _own(node):
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _scan():
    """``(defined, touched)``: private names each package defines (assigned
    on ``self``/``cls``, in a class or module body, or in ``__slots__``) and
    every private attribute touched on some other object, by attribute
    syntax or by ``getattr``/``setattr``/``hasattr``/``delattr`` string."""
    defined = defaultdict(set)
    touched = []
    for path in sorted(REPRO.rglob("*.py")):
        package = _package(path)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef)):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                        names = [stmt.name]
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                                   else [stmt.target])
                        names = [n.id for t in targets for n in ast.walk(t)
                                 if isinstance(n, ast.Name)]
                        if "__slots__" in names:
                            names = [c.value for c in ast.walk(stmt.value)
                                     if isinstance(c, ast.Constant)]
                    else:
                        continue
                    for name in names:
                        if isinstance(name, str) and _private(name):
                            defined[name].add(package)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                if not _own(node.value):
                    planted = isinstance(node.ctx, ast.Store)
                    touched.append((path, node.lineno, package, node.attr,
                                    planted))
                elif isinstance(node.ctx, ast.Store):
                    defined[node.attr].add(package)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "setattr", "hasattr",
                                       "delattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)
                  and _private(node.args[1].value)
                  and not _own(node.args[0])):
                touched.append((path, node.lineno, package,
                                node.args[1].value, True))
    return defined, touched


def test_no_package_touches_anothers_private_state():
    """A private attribute on anything but ``self``/``cls`` must be one the
    touching package defines itself. Another package's is a foreign read;
    one nobody defines, reached by string or assignment, is a component
    planted on a foreign object (``network._tracer = ...``) — those live in
    the public ``Network.shared`` / ``Host.shared`` dicts."""
    defined, touched = _scan()
    offenders, seams_used = [], set()
    for path, lineno, package, name, by_string_or_store in touched:
        owners = defined.get(name, set())
        if package in owners or not (owners or by_string_or_store):
            continue  # its own, or a stdlib name like os._exit
        if name in SEAMS:
            seams_used.add(name)
            continue
        offenders.append(
            f"{path.relative_to(SRC)}:{lineno} touches {name} "
            f"(defined in {sorted(owners) or 'no package'})")
    assert not offenders, "\n".join(offenders)
    assert seams_used == set(SEAMS), "a listed seam is no longer used"


def test_one_function_pushes_events():
    """``<endpoint>.cast(<ref>, "notify", ...)`` is spelled in
    ``jini/events.py`` (the one-way best-effort push) and
    ``<endpoint>.call(<ref>, "notify", ...)`` in ``jini/mailbox.py`` (the
    store-and-forward relay, which needs the answer to requeue on failure),
    and neither anywhere else — except one *registration* site: the lookup
    cache in ``sorcer/accessor.py`` calls a registrar's ``notify`` (the
    LUS's remote method of that name, which registers interest in a
    template) and pushes nothing."""
    sites = set()
    for path in sorted(REPRO.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("call", "cast")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "notify"):
                sites.add((str(path.relative_to(REPRO)), node.func.attr))
    assert sites == {("jini/events.py", "cast"), ("jini/mailbox.py", "call"),
                     ("sorcer/accessor.py", "call")}
