"""Per-rule snippet tests for the RES0xx resource-lifecycle family.

Same shape as the DET/SIM suite in test_lint_rules.py: every rule gets a
caught-bad snippet, an allowed-good snippet, and a pragma-suppressed
variant. The snippets are written in the repo's own idiom (spans and
HistoryStore handles) because the rules match those protocols by name.

Both are context managers, so the rules are syntactic: an acquire is a
``with`` item or handed off, and anything else — a hand-written
try/finally included — is a finding whose hint says to open it in a
``with``.
"""

import textwrap

from repro.analysis import lint_source

UNMANAGED = "is opened outside a `with` and never handed off"


def findings_for(code, rule=None):
    found = lint_source(textwrap.dedent(code))
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def assert_clean(code, rule):
    assert findings_for(code, rule) == []


# ---------------------------------------------------------------------------
# RES001 — span lifecycle


def test_res001_exception_leak_at_yield():
    found = findings_for("""
        def run(tracer, env):
            span = tracer.start_span("op")
            yield env.timeout(1.0)
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert found[0].message == f"span 'span' {UNMANAGED}"
    assert "open it in a `with`" in found[0].hint


def test_res001_exception_leak_between_start_and_end():
    found = findings_for("""
        def run(tracer, work):
            span = tracer.start_span("op")
            work()
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert UNMANAGED in found[0].message


def test_res001_dropped_span_flagged():
    found = findings_for("""
        def run(tracer):
            tracer.start_span("op")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert "immediately dropped" in found[0].message


def test_res001_with_item_is_clean():
    assert_clean("""
        def run(tracer, env):
            with tracer.start_span("op") as span:
                yield env.timeout(1.0)
                span.end("ok")
    """, rule="RES001")


def test_res001_try_finally_is_flagged():
    # Correct today, but only a `with` closes by construction: the next
    # edit between the acquire and the `try` reopens the leak.
    found = findings_for("""
        def run(tracer, env):
            span = tracer.start_span("op")
            try:
                yield env.timeout(1.0)
            finally:
                span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert UNMANAGED in found[0].message


def test_res001_reraise_handler_is_flagged():
    found = findings_for("""
        def run(tracer, env):
            span = tracer.start_span("op")
            try:
                yield env.timeout(1.0)
            except BaseException:
                span.end("error")
                raise
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert UNMANAGED in found[0].message


def test_res001_escaping_span_is_not_flagged():
    # Returned / handed-off spans are someone else's responsibility.
    assert_clean("""
        def open_span(tracer):
            span = tracer.start_span("op")
            return span
    """, rule="RES001")
    assert_clean("""
        def open_span(tracer, registry):
            span = tracer.start_span("op")
            registry.adopt(span)
    """, rule="RES001")


def test_res001_derived_value_is_not_an_escape():
    # Passing span.span_id (a derived value) must not count as handing the
    # span off — the leak is still real.
    found = findings_for("""
        def run(tracer, env, endpoint, ref):
            span = tracer.start_span("op")
            yield endpoint.call(ref, "work", trace_parent=span.span_id)
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]


def test_res001_pragma_suppresses():
    assert_clean("""
        def run(tracer, env):
            span = tracer.start_span("op")  # repro: allow[RES001] - handed off
            yield env.timeout(1.0)
            span.end("ok")
    """, rule="RES001")


# ---------------------------------------------------------------------------
# RES004 — sqlite / HistoryStore handles


def test_res004_exception_leak_before_close():
    found = findings_for("""
        def spill(path, report):
            store = HistoryStore(path)
            store.spill_profile("run", report)
            store.close()
    """, rule="RES004")
    assert [f.line for f in found] == [3]
    assert found[0].message == f"history-store handle 'store' {UNMANAGED}"
    assert "open it in a `with`" in found[0].hint


def test_res004_sqlite_connect_spelling_matches():
    found = findings_for("""
        def spill(path, work):
            conn = sqlite3.connect(path)
            work(conn.cursor())
            conn.close()
    """, rule="RES004")
    assert [f.line for f in found] == [3]


def test_res004_dropped_handle_flagged():
    found = findings_for("""
        def touch(path):
            HistoryStore(path)
    """, rule="RES004")
    assert [f.line for f in found] == [3]
    assert "immediately dropped" in found[0].message


def test_res004_with_block_is_clean():
    assert_clean("""
        def spill(path, report):
            with HistoryStore(path) as store:
                store.spill_profile("run", report)
    """, rule="RES004")


def test_res004_optional_with_item_is_clean():
    assert_clean("""
        def spill(path, report):
            with (HistoryStore(path) if path else nullcontext()) as store:
                if store is not None:
                    store.spill_profile("run", report)
    """, rule="RES004")


def test_res004_handle_stored_in_an_attribute_is_handed_off():
    assert_clean("""
        class Store:
            def __init__(self, path):
                self._conn = sqlite3.connect(path)
    """, rule="RES004")


def test_res004_try_finally_is_flagged():
    found = findings_for("""
        def spill(path, report):
            store = HistoryStore(path)
            try:
                store.spill_profile("run", report)
            finally:
                store.close()
    """, rule="RES004")
    assert [f.line for f in found] == [3]
    assert UNMANAGED in found[0].message


def test_res004_pragma_suppresses():
    assert_clean("""
        def spill(path, report):
            store = HistoryStore(path)  # repro: allow[RES004] - atexit closes
            store.spill_profile("run", report)
            store.close()
    """, rule="RES004")
