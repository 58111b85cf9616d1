"""Reach: the ``src/repro`` function lines that no shipped entry point calls.

    python benchmarks/reach.py [--out FILE.json]

Drives every entry point the project ships — each ``repro`` subcommand,
``choices`` value and flag, as ``repro.cli.build_parser()`` lists them, the
``examples/``, every ``bench_*.py`` in smoke mode (on a copy, so the
committed result tables are not rewritten) and the four E-E2E workloads
traced — with a ``sys.setprofile`` hook installed in every interpreter
through a generated ``sitecustomize``. A function counts as reached when
any of them calls it; its lines are its own span minus nested functions.
Prints unreached/total function lines per module, worst first, beside
the module's options: its defaulted parameters and defaulted dataclass
fields, each a value a caller may set.
Exits 1 when a module outside ``ALLOWED`` is wholly unreached, or when a
module's unreached lines or options exceed its count in
``reach_baseline.json`` (two ratchets: a module missing there has a
baseline of 0). A path stays only if a verb, a workload or an experiment
reaches it; an option stays only if two shipped callers set it
differently, it is a deployment setting or an ablation toggles it.
After deleting code or options, lower the baseline to the counts this
prints.
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
#: Arguments each subcommand cannot run without — required positionals and
#: options, the files one verb leaves for the next (``profile`` spills the
#: history the ``history`` verbs read, ``snapshot`` writes what ``restore``
#: replays, ``chaos run --json`` prints the plan ``chaos replay`` re-runs)
#: and a cheap bound where a default would run long. Keyed by the
#: subcommand path; each level's fill follows its own token.
FILL = {
    ("value",): ["Neem-Sensor"],
    ("watch",): ["--rounds", "2", "Neem-Sensor"],
    ("trace",): ["--out", "trace.jsonl"],
    ("profile",): ["--until", "30", "--spill", "history.db", "--run-id", "reach"],
    ("history",): ["--db", "history.db"],
    ("history", "keys"): ["--run", "reach"],
    ("history", "series"): ["--run", "reach", HISTORY_KEY],
    ("history", "stats"): ["--run", "reach", HISTORY_KEY],
    ("history", "profile"): ["--run", "reach"],
    ("chaos", "run"): ["--seeds", "2", "--json"],
    ("chaos", "shrink"): ["--chaos-seed", "1", "--max-runs", "2"],
    ("chaos", "replay"): ["--plan", "plan.json"],
    ("snapshot",): ["--at", "12", "--out", "snap.json"],
    ("restore",): ["snap.json"],
    ("lint",): [str(SRC / "repro")],
}


def _subcommands(parser, path=(), argv=()) -> list:
    """(argv, parser) for every leaf subcommand, in ``--help`` order."""
    argv = [*argv, *path[-1:], *FILL.get(path, [])]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for name, child in action.choices.items()
                    for leaf in _subcommands(child, (*path, name), argv)]
    return [(argv, parser)]


def _values(action, argv) -> list:
    """The argv tails that give ``action`` each value it does not have in
    ``argv``: every non-default ``choices`` entry, or the flag itself."""
    if isinstance(action, argparse._StoreTrueAction):
        flag = action.option_strings[0]
        return [] if flag in argv else [[flag]]
    return [[*action.option_strings[:1], value] for value in action.choices or ()
            if value != action.default]


def derive_verbs() -> list:
    """One row per subcommand of ``repro.cli``'s parser, plus one per
    non-default value of each of its ``choices`` arguments and flags; fails
    on a subcommand ``FILL`` does not give what it requires."""
    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser
    parser = build_parser()
    verbs = []
    for argv, command in _subcommands(parser):
        verbs.append(argv)
        verbs += [argv + tail for action in command._actions
                  for tail in _values(action, argv)]
    for verb in verbs:
        try:
            parser.parse_args(verb)
        except SystemExit:
            raise SystemExit(f"reach: cannot fill `repro {' '.join(verb)}`; "
                             "give its required arguments in FILL") from None
    return verbs


def _verdicts(work: Path, verb: list) -> Path:
    """Where a ``chaos`` row's scenario keeps its ``run`` verdicts."""
    scenario = (verb[verb.index("--scenario") + 1] if "--scenario" in verb
                else "paper-lab")
    return work / f"verdicts-{scenario}.json"


def entry_points(work: Path) -> list:
    """(argv, stdout file or None) for every entry point, in run order."""
    # `chaos run`'s verdicts carry the plan `chaos replay` re-runs.
    runs = [([sys.executable, "-m", "repro", *verb],
             _verdicts(work, verb) if verb[:2] == ["chaos", "run"] else None)
            for verb in derive_verbs()]
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
            if "plan.json" in argv:
                verdicts = json.loads(_verdicts(work, argv).read_text())
                (work / "plan.json").write_text(
                    json.dumps(verdicts["runs"][0]["plan"]))
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def option_count(path: Path) -> int:
    """Defaulted parameters plus defaulted dataclass fields (``ClassVar``
    constants excluded) in one module."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         and "ClassVar" not in ast.unparse(st.annotation)
                         for st in node.body)
    return count


def report(hits: set) -> dict:
    modules = defaultdict(lambda: {"function_lines": 0, "unreached_lines": 0,
                                   "unreached": [], "options": 0})
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        modules[rel]["options"] = option_count(path)
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
    options = sum(row["options"] for _, row in rows)
    print(f"{unreached} of {total} function lines in src/repro unreached; "
          f"{options} options")
    print("unreached / lines  options  module")
    for rel, row in rows:
        if row["unreached_lines"] or row["options"]:
            print(f"{row['unreached_lines']:9d} / {row['function_lines']:5d}"
                  f"  {row['options']:7d}  {rel}")
    if args.out:
        Path(args.out).write_text(json.dumps(modules, indent=1, sort_keys=True) + "\n")
    dead = [rel for rel, row in rows if row["function_lines"]
            and row["unreached_lines"] == row["function_lines"] and rel not in ALLOWED]
    for rel in dead:
        print(f"wholly unreached: {rel}", file=sys.stderr)
    baseline = json.loads(BASELINE.read_text())
    grown = [(what, rel, row[key], baseline[key].get(rel, 0))
             for key, what in (("unreached_lines", "unreached lines"),
                               ("options", "options"))
             for rel, row in rows if row[key] > baseline[key].get(rel, 0)]
    for what, rel, now, before in grown:
        print(f"{what} grew: {rel} {now} > baseline {before}", file=sys.stderr)
    return 1 if dead or grown else 0


if __name__ == "__main__":
    raise SystemExit(main())
