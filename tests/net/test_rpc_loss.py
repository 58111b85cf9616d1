"""RPC behaviour on a lossy network: timeouts, retries at the caller."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.net import (
    BernoulliLoss,
    FixedLatency,
    Host,
    Network,
    RpcTimeout,
    rpc_endpoint,
)


class Echo:
    def __init__(self):
        self.calls = 0

    def echo(self, x):
        self.calls += 1
        return x


def lossy_setup(probability, seed=3):
    env = Environment()
    net = Network(env, rng=np.random.default_rng(seed),
                  latency=FixedLatency(0.001))
    net.add_link_filter(BernoulliLoss(np.random.default_rng(seed + 1),
                                      probability))
    server_host, client_host = Host(net, "server"), Host(net, "client")
    server, client = rpc_endpoint(server_host), rpc_endpoint(client_host)
    echo = Echo()
    ref = server.export(echo, "echo")
    return env, net, echo, ref, client


def test_lossless_calls_never_time_out():
    env, net, echo, ref, client = lossy_setup(0.0)

    def proc():
        for i in range(50):
            result = yield client.call(ref, "echo", i, timeout=1.0)
            assert result == i
        return echo.calls

    assert env.run(until=env.process(proc())) == 50


def test_lossy_calls_time_out_sometimes():
    env, net, echo, ref, client = lossy_setup(0.3)
    outcomes = {"ok": 0, "timeout": 0}

    def proc():
        for i in range(100):
            try:
                yield client.call(ref, "echo", i, timeout=0.5)
                outcomes["ok"] += 1
            except RpcTimeout:
                outcomes["timeout"] += 1

    env.run(until=env.process(proc()))
    # ~49% of round trips lose at least one leg at p=0.3.
    assert outcomes["timeout"] > 20
    assert outcomes["ok"] > 20


def test_caller_retry_loop_converges():
    env, net, echo, ref, client = lossy_setup(0.3)

    def call_with_retries(value, attempts=10):
        for _ in range(attempts):
            try:
                result = yield client.call(ref, "echo", value, timeout=0.5)
                return result
            except RpcTimeout:
                continue
        raise AssertionError("never got through")

    def proc():
        results = []
        for i in range(20):
            results.append((yield from call_with_retries(i)))
        return results

    assert env.run(until=env.process(proc())) == list(range(20))


def test_lost_request_vs_lost_reply_both_surface_as_timeout():
    """The caller cannot distinguish them — and the server may have
    executed the call (at-most-once is NOT guaranteed by retries)."""
    env, net, echo, ref, client = lossy_setup(0.4, seed=9)

    def proc():
        timeouts = 0
        for i in range(60):
            try:
                yield client.call(ref, "echo", i, timeout=0.5)
            except RpcTimeout:
                timeouts += 1
        return timeouts

    timeouts = env.run(until=env.process(proc()))
    successes = 60 - timeouts
    # Server-side executions >= client-observed successes: lost *replies*
    # executed server-side but timed out client-side.
    assert echo.calls >= successes
    assert echo.calls > successes  # with p=0.4 over 60 calls, certain (seeded)
