"""Per-rule snippet tests for the RES0xx resource-lifecycle family.

Same shape as the DET/SIM suite in test_lint_rules.py: every rule gets a
caught-bad snippet, an allowed-good snippet, and a pragma-suppressed
variant. The snippets are written in the repo's own idiom (spans,
admission slots, HistoryStore handles, timer callbacks) because the rules
match those protocols by name.
"""

import textwrap

from repro.analysis import lint_source


def findings_for(code, rule=None):
    found = lint_source(textwrap.dedent(code))
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def assert_clean(code, rule):
    assert findings_for(code, rule) == []


# ---------------------------------------------------------------------------
# RES001 — span lifecycle


def test_res001_interrupt_leak_at_yield():
    found = findings_for("""
        def run(tracer, env):
            span = tracer.start_span("op")
            yield env.timeout(1.0)
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert "Interrupt edge of the yield at line 4" in found[0].message


def test_res001_exception_leak_between_start_and_end():
    found = findings_for("""
        def run(tracer, work):
            span = tracer.start_span("op")
            work()
            span.end("ok")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert "exception path escaping at line 4" in found[0].message


def test_res001_dropped_span_flagged():
    found = findings_for("""
        def run(tracer):
            tracer.start_span("op")
    """, rule="RES001")
    assert [f.line for f in found] == [3]
    assert "immediately dropped" in found[0].message


def test_res001_try_finally_is_clean():
    assert_clean("""
        def run(tracer, env):
            span = tracer.start_span("op")
            try:
                yield env.timeout(1.0)
            finally:
                span.end("ok")
    """, rule="RES001")


def test_res001_reraise_handler_is_clean():
    assert_clean("""
        def run(tracer, env):
            span = tracer.start_span("op")
            try:
                yield env.timeout(1.0)
            except BaseException:
                span.end("error")
                raise
            span.end("ok")
    """, rule="RES001")


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
# RES002 — discarded lease grants


def test_res002_discarded_grant_flagged():
    found = findings_for("""
        def pin(landlord):
            landlord.grant("slot-1", 30.0)
    """, rule="RES002")
    assert [f.line for f in found] == [3]
    assert "discards the Lease handle" in found[0].message


def test_res002_kept_handle_is_clean():
    assert_clean("""
        def pin(landlord):
            lease = landlord.grant("slot-1", 30.0)
            return lease
    """, rule="RES002")


def test_res002_non_landlord_receiver_is_clean():
    assert_clean("""
        def pin(registry):
            registry.grant("slot-1", 30.0)
    """, rule="RES002")


def test_res002_pragma_suppresses():
    assert_clean("""
        def pin(landlord):
            landlord.grant("slot-1", 30.0)  # repro: allow[RES002] - fire-and-forget by design
    """, rule="RES002")


# ---------------------------------------------------------------------------
# RES003 — admission slots


def test_res003_interrupt_leak_between_acquire_and_release():
    found = findings_for("""
        def serve(self, request):
            yield from self.admission.acquire(request)
            yield self.dispatch(request)
            self.admission.release(request)
    """, rule="RES003")
    assert [f.line for f in found] == [3]
    assert "admission slot from self.admission.acquire()" in found[0].message
    assert "Interrupt edge of the yield at line 4" in found[0].message


def test_res003_try_finally_is_clean():
    assert_clean("""
        def serve(self, request):
            yield from self.admission.acquire(request)
            try:
                yield self.dispatch(request)
            finally:
                self.admission.release(request)
    """, rule="RES003")


def test_res003_flag_guarded_release_is_trusted():
    # Documented path-insensitivity: a release behind a flag inside the
    # finally counts as a release (DESIGN §13 "cannot prove").
    assert_clean("""
        def serve(self, request, admitted):
            yield from self.admission.acquire(request)
            try:
                yield self.dispatch(request)
            finally:
                if admitted:
                    self.admission.release(request)
    """, rule="RES003")


def test_res003_other_receivers_acquire_is_clean():
    assert_clean("""
        def serve(self, request):
            yield from self.lock.acquire(request)
            yield self.dispatch(request)
    """, rule="RES003")


def test_res003_pragma_suppresses():
    assert_clean("""
        def serve(self, request):
            yield from self.admission.acquire(request)  # repro: allow[RES003] - reaper releases
            yield self.dispatch(request)
            self.admission.release(request)
    """, rule="RES003")


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
    assert "history-store handle 'store'" in found[0].message
    assert "exception path escaping at line 4" in found[0].message


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


def test_res004_try_finally_is_clean():
    assert_clean("""
        def spill(path, report):
            store = HistoryStore(path)
            try:
                store.spill_profile("run", report)
            finally:
                store.close()
    """, rule="RES004")


def test_res004_pragma_suppresses():
    assert_clean("""
        def spill(path, report):
            store = HistoryStore(path)  # repro: allow[RES004] - atexit closes
            store.spill_profile("run", report)
            store.close()
    """, rule="RES004")


# ---------------------------------------------------------------------------
# RES005 — armed timers across yield points


def test_res005_interrupt_between_arm_and_disarm():
    found = findings_for("""
        def wait(self, timer, env):
            timer.callbacks.append(self.on_fire)
            yield env.timeout(5.0)
            timer.callbacks.clear()
    """, rule="RES005")
    assert [f.line for f in found] == [3]
    assert "timer callback armed on timer" in found[0].message
    assert "Interrupt edge of the yield at line 4" in found[0].message


def test_res005_fire_later_pattern_is_clean():
    # A function that never disarms is using the arm-and-forget pattern;
    # the conditional protocol only applies when a clear() exists.
    assert_clean("""
        def arm(self, timer):
            timer.callbacks.append(self.on_fire)
    """, rule="RES005")


def test_res005_try_finally_is_clean():
    assert_clean("""
        def wait(self, timer, env):
            timer.callbacks.append(self.on_fire)
            try:
                yield env.timeout(5.0)
            finally:
                timer.callbacks.clear()
    """, rule="RES005")


def test_res005_normal_path_gap_is_not_flagged():
    # exceptional_only: missing a clear() on a normal branch is the
    # fire-later pattern again, not the interrupt bug.
    assert_clean("""
        def wait(self, timer):
            timer.callbacks.append(self.on_fire)
            if self.flag:
                timer.callbacks.clear()
    """, rule="RES005")


def test_res005_cancel_disarms_like_clear():
    found = findings_for("""
        def wait(self, timer, env):
            timer.callbacks.append(self.on_fire)
            yield env.timeout(5.0)
            timer.cancel()
    """, rule="RES005")
    assert [f.line for f in found] == [3]
    assert_clean("""
        def wait(self, timer, env):
            timer.callbacks.append(self.on_fire)
            try:
                yield env.timeout(5.0)
            finally:
                timer.cancel()
    """, rule="RES005")


def test_res005_pragma_suppresses():
    assert_clean("""
        def wait(self, timer, env):
            timer.callbacks.append(self.on_fire)  # repro: allow[RES005] - timer dies too
            yield env.timeout(5.0)
            timer.callbacks.clear()
    """, rule="RES005")


# ---------------------------------------------------------------------------
# RES006 — AtomicFile publish-or-abort


def test_res006_interrupt_leak_at_yield():
    found = findings_for("""
        def spill(env, path, blob):
            fh = AtomicFile(path)
            yield env.timeout(1.0)
            fh.write(blob)
            fh.close()
    """, rule="RES006")
    assert [f.line for f in found] == [3]
    assert "Interrupt edge of the yield at line 4" in found[0].message


def test_res006_exception_leak_before_close():
    found = findings_for("""
        def spill(path, render):
            fh = AtomicFile(path)
            fh.write(render())
            fh.close()
    """, rule="RES006")
    assert [f.line for f in found] == [3]
    assert "exception path escaping at line 4" in found[0].message


def test_res006_dropped_handle_flagged():
    found = findings_for("""
        def touch(path):
            AtomicFile(path)
    """, rule="RES006")
    assert [f.line for f in found] == [3]
    assert "never be published" in found[0].message


def test_res006_with_block_is_clean():
    assert_clean("""
        def spill(path, blob):
            with AtomicFile(path) as fh:
                fh.write(blob)
    """, rule="RES006")


def test_res006_try_finally_close_is_clean():
    assert_clean("""
        def spill(path, blob):
            fh = AtomicFile(path)
            try:
                fh.write(blob)
            finally:
                fh.close()
    """, rule="RES006")


def test_res006_abort_on_failure_is_clean():
    assert_clean("""
        def spill(path, render):
            fh = AtomicFile(path)
            try:
                fh.write(render())
            except BaseException:
                fh.abort()
                raise
            fh.close()
    """, rule="RES006")


def test_res006_escaping_handle_is_callers_problem():
    assert_clean("""
        def open_sink(path):
            fh = AtomicFile(path)
            return fh
    """, rule="RES006")


def test_res006_pragma_suppresses():
    assert_clean("""
        def spill(path, blob):
            fh = AtomicFile(path)  # repro: allow[RES006] - closed by caller via registry
            fh.write(blob)
    """, rule="RES006")
