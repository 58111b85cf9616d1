"""Planes are leaves: the paper's layers never import them, and each can be
deleted — its package(s) plus its one line in ``cli.VERB_MODULES`` — with
the paper lab still running byte-for-byte (ROADMAP item 3).
"""

import argparse
import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import VERB_MODULES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: The paper's stack (Fig 1) plus what serves it below the CLI.
LAYERS = ("sim", "net", "jini", "rio", "sorcer", "expr", "sensors",
          "resilience", "observability", "core", "baselines", "scenarios")
#: What sits on top. No layer may know any of these exists.
ABOVE = {"snapshot", "chaos", "load", "overload", "analysis", "cli"}

#: Each deletable plane: the packages to remove; the cli line to drop is
#: the one naming the first package's ``verbs`` module.
PLANES = {
    "analysis": ("analysis",),
    "snapshot": ("snapshot",),
    "chaos": ("chaos",),
    "load+overload": ("load", "overload"),
}


def _imported_subpackages(path: Path):
    """Every ``repro.<x>`` a module imports, absolute or relative, at any
    nesting depth (lazy function-level imports count)."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            # ``from .. import chaos`` names the subpackage in the alias.
            targets = [module + [alias.name] for alias in node.names]
        else:
            continue
        for target in targets:
            if len(target) > 1 and target[0] == "repro":
                yield target[1], node.lineno


def test_no_layer_imports_a_plane():
    offenders = {
        f"{path.relative_to(SRC)}:{lineno} imports repro.{name}"
        for layer in LAYERS
        for path in (SRC / "repro" / layer).rglob("*.py")
        for name, lineno in _imported_subpackages(path)
        if name in ABOVE}
    assert not offenders, "\n".join(sorted(offenders))


#: Runs inside the pruned copy: import everything that is left, then the
#: two paper-lab outputs the goldens pin.
_PROBE = """
import importlib, io, json, pkgutil, repro
from repro.cli import main
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
outputs = {}
for name, argv in (("experiment", ["experiment"]),
                   ("status", ["status", "--json"])):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    outputs[name] = out.getvalue()
print(json.dumps(outputs))
"""


def _probe_env(src: Path) -> dict:
    """The ambient environment pointed at ``src``. The experiment golden
    pins one event order, so an ambient shuffle seed is dropped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REPRO_SHUFFLE_SEED", None)
    return env


def _prune(copy: Path, packages) -> None:
    for package in packages:
        shutil.rmtree(copy / "repro" / package)
    cli = copy / "repro" / "cli.py"
    marker = f'"repro.{packages[0]}.verbs"'
    lines = cli.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if marker not in line]
    assert len(kept) == len(lines) - 1, f"{marker} is not exactly one line"
    cli.write_text("".join(kept), encoding="utf-8")


def test_each_plane_deletes_cleanly(tmp_path):
    probes = {}
    for plane, packages in PLANES.items():
        copy = tmp_path / plane / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        _prune(copy, packages)
        # All four at once: each is a fresh interpreter running two labs.
        probes[plane] = subprocess.Popen(
            [sys.executable, "-c", _PROBE], cwd=tmp_path,
            env=_probe_env(copy),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    expected = {
        "experiment": (GOLDEN / "experiment_seed2009.txt").read_text(),
        "status": (GOLDEN / "status_seed2009.json").read_text(),
    }
    for plane, probe in probes.items():
        stdout, stderr = probe.communicate(timeout=120)
        assert probe.returncode == 0, f"without {plane}:\n{stderr}"
        assert json.loads(stdout) == expected, f"without {plane}"


def test_lint_runs_without_numpy():
    """``repro lint`` is a static pass: it must not need what the
    simulation needs."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None\n"
         "from repro.cli import main\n"
         "raise SystemExit(main(['lint', sys.argv[1]]))",
         str(SRC / "repro" / "analysis")],
        env=_probe_env(SRC),
        capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stdout + probe.stderr
    assert "clean" in probe.stdout


@pytest.mark.parametrize("module,verbs",
                         [(module, verbs) for module, *verbs in VERB_MODULES])
def test_verb_table_lists_what_each_module_registers(module, verbs):
    """The names in a ``VERB_MODULES`` line are what routes a verb to its
    module without importing the others, so they must be exactly what
    that module's ``add_verbs`` registers."""
    sub = argparse.ArgumentParser().add_subparsers()
    importlib.import_module(module).add_verbs(sub)
    assert list(sub.choices) == verbs
