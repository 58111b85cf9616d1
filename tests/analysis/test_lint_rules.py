"""Per-rule lint tests: one good and one bad snippet each, asserting the
rule id *and* the flagged line, plus pragma and CLI behaviour."""

import io
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import RULES, lint_source
from repro.cli import main as cli_main


def findings_for(code, rule=None):
    found = lint_source(textwrap.dedent(code))
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def assert_clean(code, rule):
    assert findings_for(code, rule) == []


# -- DET001: wall clock -----------------------------------------------------------


def test_det001_flags_time_time():
    found = findings_for("""\
        import time

        def stamp():
            return time.time()
        """, "DET001")
    assert [f.line for f in found] == [4]
    assert "wall clock" in found[0].message


def test_det001_flags_datetime_now_and_from_import():
    found = findings_for("""\
        from datetime import datetime
        from time import monotonic

        def stamp():
            return datetime.now(), monotonic()
        """, "DET001")
    assert [f.line for f in found] == [5, 5]


def test_det001_clean_on_simulated_time():
    assert_clean("""\
        def stamp(env):
            return env.now
        """, "DET001")


# -- DET002: module-level random --------------------------------------------------


def test_det002_flags_module_random():
    found = findings_for("""\
        import random

        def jitter():
            return random.random()
        """, "DET002")
    assert [f.line for f in found] == [4]
    assert "global" in found[0].message


def test_det002_flags_from_import():
    found = findings_for("""\
        from random import shuffle

        def mix(items):
            shuffle(items)
        """, "DET002")
    assert found and found[0].line == 1


def test_det002_clean_on_seeded_random():
    assert_clean("""\
        import random

        def make_rng(seed):
            return random.Random(seed)
        """, "DET002")


# -- DET003: unordered fan-out ----------------------------------------------------


def test_det003_flags_set_driving_process():
    found = findings_for("""\
        def fan_out(env, procs):
            waiting = set(procs)
            for proc in waiting:
                env.process(proc)
        """, "DET003")
    assert [f.line for f in found] == [3]


def test_det003_flags_dict_view_comprehension():
    found = findings_for("""\
        def fan_out(env, table):
            return [env.process(p) for p in table.values()]
        """, "DET003")
    assert [f.line for f in found] == [2]


def test_det003_clean_with_sorted():
    assert_clean("""\
        def fan_out(env, procs):
            waiting = set(procs)
            for proc in sorted(waiting):
                env.process(proc)
        """, "DET003")


# -- DET004: unordered accumulation -----------------------------------------------


def test_det004_flags_sum_over_set():
    found = findings_for("""\
        def total(values):
            bag = set(values)
            return sum(bag)
        """, "DET004")
    assert [f.line for f in found] == [3]


def test_det004_flags_augmented_accumulation():
    found = findings_for("""\
        def total(values):
            bag = frozenset(values)
            acc = 0.0
            for value in bag:
                acc += value
            return acc
        """, "DET004")
    assert [f.line for f in found] == [4]


def test_det004_clean_with_sorted():
    assert_clean("""\
        def total(values):
            bag = set(values)
            return sum(sorted(bag))
        """, "DET004")


# -- DET005: ad-hoc random.Random construction -------------------------------------


def test_det005_flags_direct_random_random():
    found = findings_for("""\
        import random

        def make_rng(seed):
            return random.Random(seed)
        """, "DET005")
    assert [f.line for f in found] == [4]
    assert "substream" in found[0].message


def test_det005_flags_from_import_random():
    found = findings_for("""\
        from random import Random

        def make_rng(seed):
            return Random(seed + 7)
        """, "DET005")
    assert [f.line for f in found] == [4]


def test_det005_clean_on_substream():
    assert_clean("""\
        from repro.util.rng import substream

        def make_rng(seed):
            return substream(seed, "sensors.faults", "probe")
        """, "DET005")


def test_det005_pragma_suppresses():
    found = findings_for("""\
        import random

        def tie_break(seed):
            return random.Random(seed)  # repro: allow[DET005]
        """, "DET005")
    assert found == []


# -- SIM001: broad except around a yield ------------------------------------------


def test_sim001_flags_broad_except():
    found = findings_for("""\
        def worker(env, endpoint, ref):
            try:
                yield endpoint.call(ref, "poke")
            except Exception:
                pass
        """, "SIM001")
    assert [f.line for f in found] == [4]


def test_sim001_flags_broad_except_after_a_narrower_one():
    found = findings_for("""\
        def worker(env, endpoint, ref):
            try:
                yield endpoint.call(ref, "poke")
            except RemoteError:
                raise
            except Exception:
                pass
        """, "SIM001")
    assert [f.line for f in found] == [6]


def test_sim001_pragma_suppresses():
    assert_clean("""\
        def worker(env, endpoint, ref):
            try:
                yield endpoint.call(ref, "poke")
            except Exception:  # repro: allow[SIM001] - fault isolation
                pass
        """, "SIM001")


def test_sim001_clean_when_handler_reraises():
    assert_clean("""\
        def worker(env, endpoint, ref):
            try:
                yield endpoint.call(ref, "poke")
            except Exception:
                log("boom")
                raise
        """, "SIM001")


def test_sim001_ignores_try_without_yield():
    assert_clean("""\
        def worker(env):
            try:
                risky()
            except Exception:
                pass
            yield env.timeout(1)
        """, "SIM001")


# -- SIM002: yielding non-events --------------------------------------------------


def test_sim002_flags_literal_yield_in_process():
    found = findings_for("""\
        def proc(env):
            yield env.timeout(1)
            yield 42
        """, "SIM002")
    assert [f.line for f in found] == [3]


def test_sim002_flags_bare_yield():
    found = findings_for("""\
        def proc(env):
            yield env.timeout(1)
            yield
        """, "SIM002")
    assert [f.line for f in found] == [3]
    assert "bare yield" in found[0].message


def test_sim002_ignores_plain_data_generators():
    assert_clean("""\
        def numbers():
            yield 1
            yield 2
        """, "SIM002")


# -- pragmas ---------------------------------------------------------------------


def test_line_pragma_suppresses():
    assert_clean("""\
        import time

        def stamp():
            return time.time()  # repro: allow[DET001]
        """, "DET001")


def test_file_pragma_suppresses():
    assert_clean("""\
        # repro: allow-file[DET001]
        import time

        def stamp():
            return time.time()
        """, "DET001")


def test_pragma_only_covers_named_rule():
    found = findings_for("""\
        import time

        def stamp():
            return time.time()  # repro: allow[DET002]
        """, "DET001")
    assert [f.line for f in found] == [4]


def test_unknown_pragma_rule_reported():
    found = findings_for("""\
        x = 1  # repro: allow[NOPE123]
        """, "PRAGMA")
    assert found and found[0].line == 1
    assert "NOPE123" in found[0].message


def test_syntax_error_reported_not_raised():
    found = findings_for("def broken(:\n")
    assert [f.rule for f in found] == ["E999"]


# -- CLI --------------------------------------------------------------------------


def test_cli_lint_exits_nonzero_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    out = io.StringIO()
    assert cli_main(["lint", str(bad)], out=out) == 1
    text = out.getvalue()
    assert "DET001" in text and "bad.py:4" in text


def test_cli_lint_exits_zero_when_clean(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f(env):\n    return env.now\n")
    out = io.StringIO()
    assert cli_main(["lint", str(good)], out=out) == 0
    assert "clean" in out.getvalue()


def test_cli_lint_rule_filter_and_listing(capsys):
    # Listing needs no PATH; linting without one is a usage error.
    out = io.StringIO()
    assert cli_main(["lint", "--list-rules"], out=out) == 0
    listed = out.getvalue().splitlines()
    assert [line.split()[0] for line in listed] == sorted(RULES)
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint"], out=io.StringIO())
    assert exc.value.code == 2
    assert "PATH" in capsys.readouterr().err


def test_shipped_tree_lints_clean():
    """The lint baseline: src/repro ships with zero findings."""
    src = Path(repro.__file__).parent
    out = io.StringIO()
    assert cli_main(["lint", str(src)], out=out) == 0, out.getvalue()
