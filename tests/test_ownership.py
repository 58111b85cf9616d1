"""Four decisions, each behind one module: what the package depends on,
who speaks the requestor-side exertion protocol, how a rendezvous peer runs
a job, and what a deadline looks like inside a service context.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.jini import LookupService, Name
from repro.net import FixedLatency, Host, Network
from repro.observability import TRACE_PARENT_PATH
from repro.resilience import DEADLINE_PATH, Deadline
from repro.sim import Environment
from repro.sorcer import (
    Access,
    Exerter,
    ExertionSpace,
    Job,
    Jobber,
    ServiceContext,
    SpaceWorker,
    Spacer,
    Strategy,
    join_service,
)
from tests.sorcer.test_jobber import MathProvider, task as _task
from tests.test_planes import SRC, _probe_env

# -- the dependency set ---------------------------------------------------------

#: Runs in a fresh interpreter: whatever importing all of ``repro`` loads
#: beyond what the bare interpreter (site, .pth hooks) already had.
_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
bare = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(*sorted(loaded - bare - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_numpy_is_the_only_third_party_import():
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        env=_probe_env(SRC),
        capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["numpy"]


# -- who speaks the exertion protocol ---------------------------------------------

#: Requestor-side protocol pieces: how a shed is recognised, how a trace
#: parent is linked, where a deadline travels. ``sorcer`` turns them into
#: ``Exerter.call``; nothing above it may spell them out again.
PROTOCOL_NAMES = {"DEADLINE_PATH", "rejection_marker", "propagate_trace"}
REQUESTORS = ("core", "load", "chaos", "baselines", "scenarios")


def _referenced_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def _modules(*packages):
    """Every module of the named packages but their ``__init__`` (a
    re-export is not a use)."""
    for package in packages:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_requestors_do_not_spell_out_the_exertion_protocol():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} references {name}"
        for path, tree in _modules(*REQUESTORS)
        for name, lineno in _referenced_names(tree)
        if name in PROTOCOL_NAMES]
    assert not offenders, "\n".join(offenders)


def test_only_the_codec_and_sorcer_touch_the_deadline_path():
    packages = sorted(path.name for path in (SRC / "repro").iterdir()
                      if path.is_dir() and path.name not in ("sorcer",
                                                             "__pycache__"))
    offenders = []
    for path, tree in _modules(*packages):
        if path.relative_to(SRC / "repro") == Path("resilience/deadline.py"):
            continue
        offenders += [f"{path.relative_to(SRC)}:{lineno} names DEADLINE_PATH"
                      for name, lineno in _referenced_names(tree)
                      if name == "DEADLINE_PATH"]
        offenders += [f"{path.relative_to(SRC)}:{node.lineno} spells the path"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and node.value == DEADLINE_PATH]
    assert not offenders, "\n".join(offenders)


# -- one rendezvous loop -----------------------------------------------------------


def _sequential(access):
    return Job("seq", [_task("first", "add", a=3, b=4),
                       _task("second", "add", a=0, b=100)], access=access)


def _fan_out(access):
    return Job("fan", [_task(f"t{i}", "add", a=i, b=i) for i in range(3)],
               strategy=Strategy.PARALLEL, access=access)


def _fail_fast(access):
    return Job("seq-bad", [_task("ok", "add", a=1, b=1), _task("bad", "fail"),
                           _task("never", "add", a=9, b=9)], access=access)


def _fail_one(access):
    return Job("par-bad", [_task("ok", "add", a=1, b=1), _task("bad", "fail")],
               strategy=Strategy.PARALLEL, access=access)


def _outcome(build, access):
    """Run ``build(access)`` on a fresh grid that has both rendezvous peers
    and one provider reachable either way; what the requestor gets back."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(11),
                  latency=FixedLatency(0.001))
    LookupService(Host(net, "lus-host")).start()
    Jobber(Host(net, "jobber-host")).start()
    Spacer(Host(net, "spacer-host")).start()
    space = ExertionSpace(Host(net, "space-host"))
    join_service(space.host, space.ref, net.ids.uuid(),
                 (Name("Exertion Space"),))
    provider = MathProvider(Host(net, "math-host"), delay=0.2).start()
    SpaceWorker(provider, space.ref).start()
    exerter = Exerter(Host(net, "requestor"))
    job = build(access)
    job.control.invocation_timeout = 120.0

    def proc():
        yield env.timeout(2.0)
        result = yield env.process(exerter.exert(job))
        return result

    result = env.run(until=env.process(proc()))
    context = result.context.as_dict()
    context.pop(TRACE_PARENT_PATH, None)  # span ids differ by route
    return (result.status, context, result.exceptions,
            [(c.name, c.status, c.exceptions) for c in result.exertions])


@pytest.mark.parametrize("build", [_sequential, _fan_out, _fail_fast,
                                   _fail_one])
def test_jobber_and_spacer_run_a_job_the_same_way(build):
    pushed = _outcome(build, Access.PUSH)
    assert pushed == _outcome(build, Access.PULL)
    status, context, exceptions, components = pushed
    if build is _sequential:
        assert context == {"first/result/value": 7, "second/result/value": 100}
    elif build is _fan_out:
        assert context == {f"t{i}/result/value": 2 * i for i in range(3)}
    elif build is _fail_fast:
        assert exceptions == ["2 component exertion(s) failed: bad, never"]
        assert components[2][2] == ["skipped: upstream 'bad' failed"]
    else:
        assert exceptions == ["1 component exertion(s) failed: bad"]
        assert context["ok/result/value"] == 2


# -- one deadline codec ------------------------------------------------------------


def test_deadline_from_context_absent_numeric_malformed():
    ctx = ServiceContext()
    assert Deadline.from_context(ctx) is None
    Deadline(12.5).to_context(ctx)
    assert ctx.get_value(DEADLINE_PATH) == 12.5
    assert Deadline.from_context(ctx) == Deadline(12.5)
    ctx.put_value(DEADLINE_PATH, 7)
    assert Deadline.from_context(ctx) == Deadline(7.0)
    for garbled in ("soon", None, [12.5], {"expires_at": 12.5}):
        ctx.put_value(DEADLINE_PATH, garbled)
        assert Deadline.from_context(ctx) is None
