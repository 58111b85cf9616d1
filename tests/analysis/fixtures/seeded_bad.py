"""Deliberately-defective snippets for the lint output golden test.

Never imported by anything: ``repro lint --json`` is pointed at this file
to produce a stable, known set of findings (one RES001, one DET001, one
SIM001) for ``tests/golden/lint_seeded.json``.
"""

import time


def leaky_span(tracer, env):
    span = tracer.start_span("op")
    yield env.timeout(1.0)
    span.end("ok")


def stamp():
    return time.time()


def swallow(env, endpoint, ref):
    try:
        yield endpoint.call(ref, "poke")
    except Exception:
        pass
