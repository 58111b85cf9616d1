"""Reach: the ``src/repro`` function lines that no shipped entry point calls.

    python benchmarks/reach.py [--out FILE.json]

Drives every entry point the project ships — each ``repro`` verb, the
``examples/``, every ``bench_*.py`` in smoke mode (on a copy, so the
committed result tables are not rewritten) and the four E-E2E workloads
traced — with a ``sys.setprofile`` hook installed in every interpreter
through a generated ``sitecustomize``. A function counts as reached when
any of them calls it; its lines are its own span minus nested functions.
Prints unreached/total function lines per module, worst first.
Exits 1 when a module outside ``ALLOWED`` is wholly unreached, or when a
module's unreached lines exceed its count in ``reach_baseline.json``
(a ratchet: a module missing there has a baseline of 0). A path stays
only if a verb, a workload or an experiment reaches it. After deleting
unreached code, lower the baseline to the counts this prints.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = Path(__file__).resolve().with_name("reach_baseline.json")

#: Modules that may be wholly unreached by the shipped entry points.
ALLOWED = {
    "sim/sanitizer.py": "a test oracle: the suites run it over their own labs",
    "chaos/testing.py": "a pytest helper for chaos-plane tests",
}

HOOK = '''import atexit, os, sys, threading
_codes = set()
def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    sys.setprofile(None)
    src = os.environ["REACH_SRC"]
    hits = sorted({(os.path.realpath(c.co_filename), c.co_firstlineno)
                   for c in _codes if os.path.realpath(c.co_filename).startswith(src)})
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json"), "w") as fh:
        fh.write(repr(hits))
'''

HISTORY_KEY = "esp.buffer_depth{provider=Neem-Sensor}"
VERBS = [
    ["inventory"], ["experiment"], ["value", "Neem-Sensor"], ["farm"],
    ["topology"], ["traffic"], ["watch", "--rounds", "2", "Neem-Sensor"],
    ["admin"], ["trace", "--all", "--metrics", "--out", "trace.jsonl"],
    ["status"], ["status", "--json"], ["health"], ["health", "--json"],
    ["load", "--smoke", "--json"],
    ["profile", "--spill", "history.db", "--run-id", "reach"],
    ["history", "--db", "history.db", "list"],
    ["history", "--db", "history.db", "keys", "--run", "reach"],
    ["history", "--db", "history.db", "series", "--run", "reach", HISTORY_KEY],
    ["history", "--db", "history.db", "stats", "--run", "reach", HISTORY_KEY],
    ["history", "--db", "history.db", "profile", "--run", "reach"],
    ["chaos", "run", "--seeds", "2", "--json"],
    ["chaos", "shrink", "--chaos-seed", "1", "--max-runs", "2"],
    ["chaos", "replay", "--plan", "plan.json"],
    ["snapshot", "--at", "12", "--out", "snap.json"], ["restore", "snap.json"],
    ["lint", str(SRC / "repro")], ["lint", "--json", str(SRC / "repro")],
    ["lint", "--list-rules"],
]


def entry_points(work: Path) -> list:
    """(argv, stdout file or None) for every entry point, in run order."""
    # `chaos run`'s verdicts carry the plan `chaos replay` re-runs.
    runs = [([sys.executable, "-m", "repro", *verb],
             work / "verdicts.json" if verb[:2] == ["chaos", "run"] else None)
            for verb in VERBS]
    runs += [([sys.executable, str(path)], None)
             for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "-o", "python_files=bench_*.py", str(work / "benchmarks")], None))
    runs.append(([sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke",
                  "--trace", "1", "--out", str(work / "e2e")], None))
    return runs


def reached_functions() -> set:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "hook").mkdir()
        (work / "hits").mkdir()
        (work / "hook/sitecustomize.py").write_text(HOOK)
        shutil.copytree(ROOT / "benchmarks", work / "benchmarks",
                        ignore=shutil.ignore_patterns("e2e", "__pycache__"))
        env = dict(os.environ, REACH_SRC=str(SRC.resolve()),
                   REACH_OUT=str(work / "hits"), REPRO_BENCH_SMOKE="1",
                   PYTHONPATH=os.pathsep.join([str(work / "hook"), str(SRC)]))
        for argv, stdout in entry_points(work):
            if argv[-2:] == ["--plan", "plan.json"]:
                plan = json.loads((work / "verdicts.json").read_text())["runs"][0]["plan"]
                (work / "plan.json").write_text(json.dumps(plan))
            with open(stdout or os.devnull, "w") as sink:
                done = subprocess.run(argv, cwd=work, env=env, stdout=sink,
                                      stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise SystemExit(f"entry point failed: {' '.join(argv)}\n"
                                 f"{done.stderr[-2000:]}")
        hits = set()
        for dump in (work / "hits").iterdir():
            hits.update(ast.literal_eval(dump.read_text()))
    return hits


def function_lines(path: Path) -> dict:
    """First line (decorators included) -> (qualname, own line count)."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                spans.append((first, child.end_lineno, name[:-1]))
            visit(child, name)

    visit(ast.parse(path.read_text(), str(path)), "")
    owner = {}
    for first, last, name in sorted(spans, key=lambda s: (s[0], -s[1])):
        owner.update(dict.fromkeys(range(first, last + 1), (first, name)))
    return dict(Counter(owner.values()))


def report(hits: set) -> dict:
    modules = defaultdict(lambda: {"function_lines": 0, "unreached_lines": 0,
                                   "unreached": []})
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for (first, name), lines in function_lines(path).items():
            row = modules[rel]
            row["function_lines"] += lines
            if (str(path.resolve()), first) not in hits:
                row["unreached_lines"] += lines
                row["unreached"].append(f"{name}:{first}")
    return dict(modules)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the per-module report as JSON")
    args = parser.parse_args(argv)
    modules = report(reached_functions())
    rows = sorted(modules.items(), key=lambda kv: -kv[1]["unreached_lines"])
    total = sum(row["function_lines"] for _, row in rows)
    unreached = sum(row["unreached_lines"] for _, row in rows)
    print(f"{unreached} of {total} function lines in src/repro unreached")
    for rel, row in rows:
        if row["unreached_lines"]:
            print(f"{row['unreached_lines']:6d} / {row['function_lines']:5d}  {rel}")
    if args.out:
        Path(args.out).write_text(json.dumps(modules, indent=1, sort_keys=True) + "\n")
    dead = [rel for rel, row in rows if row["function_lines"]
            and row["unreached_lines"] == row["function_lines"] and rel not in ALLOWED]
    for rel in dead:
        print(f"wholly unreached: {rel}", file=sys.stderr)
    baseline = json.loads(BASELINE.read_text())
    grown = [(rel, row["unreached_lines"], baseline.get(rel, 0))
             for rel, row in rows if row["unreached_lines"] > baseline.get(rel, 0)]
    for rel, now, before in grown:
        print(f"unreached lines grew: {rel} {now} > baseline {before}",
              file=sys.stderr)
    return 1 if dead or grown else 0


if __name__ == "__main__":
    raise SystemExit(main())
