"""Tie-break shuffle harness.

Two claims, both load-bearing for the determinism contract:

1. the shuffle *works* — an order-dependent toy model produces different
   results under different ``tie_break_seed``s (so the harness would catch
   accidental same-timestamp coupling);
2. the shipped system is order-*independent* — the paper lab's canonical
   status snapshot is byte-identical under every shuffle seed.
"""

import io

import pytest

from repro.cli import main as cli_main
from repro.sim import Environment
from repro.sim.core import SHUFFLE_SEED_ENV


def _arrival_order(tie_break_seed):
    """Three same-time processes append their tags; return the order."""
    env = Environment(tie_break_seed=tie_break_seed)
    order = []

    def worker(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(worker(tag))
    env.run()
    return tuple(order)


def test_unshuffled_order_is_schedule_order(monkeypatch):
    # tie_break_seed=None falls back to the environment variable, which the
    # shuffle CI job sets.
    monkeypatch.delenv(SHUFFLE_SEED_ENV, raising=False)
    assert _arrival_order(None) == ("a", "b", "c")


def test_shuffle_perturbs_same_time_order():
    """An order-dependent model *must* be caught: across a handful of
    seeds the tie-break shuffle yields more than one ordering."""
    orders = {_arrival_order(seed) for seed in range(1, 9)}
    assert len(orders) > 1
    for order in orders:
        assert sorted(order) == ["a", "b", "c"]  # a permutation, no loss


def test_same_seed_same_order():
    for seed in (1, 2, 3):
        assert _arrival_order(seed) == _arrival_order(seed)


def test_env_var_drives_tie_break_seed(monkeypatch):
    monkeypatch.setenv(SHUFFLE_SEED_ENV, "5")
    assert Environment().tie_break_seed == 5
    monkeypatch.delenv(SHUFFLE_SEED_ENV)
    assert Environment().tie_break_seed is None


def test_explicit_seed_wins_over_env_var(monkeypatch):
    monkeypatch.setenv(SHUFFLE_SEED_ENV, "5")
    assert Environment(tie_break_seed=9).tie_break_seed == 9


def _status_json():
    out = io.StringIO()
    assert cli_main(["status", "--json"], out=out) == 0
    return out.getvalue()


_baseline_cache = {}


@pytest.mark.slow
def test_paper_lab_status_invariant_under_shuffle(shuffle_seed, monkeypatch):
    """The flagship invariant: the whole paper-lab scenario — deploy,
    six-step experiment, health snapshot — produces a byte-identical
    canonical JSON snapshot whatever the tie-break order."""
    shuffled = _status_json()
    if "json" not in _baseline_cache:
        monkeypatch.delenv(SHUFFLE_SEED_ENV)
        _baseline_cache["json"] = _status_json()
    assert shuffled == _baseline_cache["json"]


#: The tree reads' fan-out. Readings are quantised, so the mean of a
#: power-of-two number of them is exact in binary and every fan-in order
#: gives the same bits: such a tree could not show a fan-in race.
#: ``test_tree_check_catches_arrival_order_fan_in`` fails if this goes back
#: to a power of two.
TREE_FANOUT = 7

#: Where the planted fan-in mutant keeps its arrival-ordered values.
_ARRIVALS = "mutant/arrivals"


def _tree_reads(fixed_latency, tie_break_seed):
    """Three root reads of a 64-sensor CSP tree, built under the tie-break
    shuffle seed ``tie_break_seed`` (``None``: unshuffled)."""
    from repro.core import SENSOR_DATA_ACCESSOR
    from repro.net import Host
    from repro.scenarios import build_sensorcer_grid
    from repro.sorcer import Exerter, Signature

    with pytest.MonkeyPatch.context() as patch:
        if tie_break_seed is None:
            patch.delenv(SHUFFLE_SEED_ENV, raising=False)
        else:
            patch.setenv(SHUFFLE_SEED_ENV, str(tie_break_seed))
        grid = build_sensorcer_grid(64, seed=11, tree_fanout=TREE_FANOUT,
                                    fixed_latency=fixed_latency)
    grid.settle(6.0)
    exerter = Exerter(Host(grid.net, "requestor"))
    root = Signature(SENSOR_DATA_ACCESSOR, "getValue",
                     service_id=grid.root.service_id)
    values = []

    def reads():
        for index in range(3):
            values.append((yield from exerter.call(
                root, {}, name=f"read-{index}", context="tree-read")))

    grid.env.run(until=grid.env.process(reads()))
    return tuple(values)


_clean_reads = {}


def _clean_tree_reads(fixed_latency, tie_break_seed):
    """:func:`_tree_reads` of the unmodified code, computed once."""
    key = (fixed_latency, tie_break_seed)
    if key not in _clean_reads:
        _clean_reads[key] = _tree_reads(fixed_latency, tie_break_seed)
    return _clean_reads[key]


@pytest.mark.slow
@pytest.mark.parametrize("fixed_latency", [0.001, None],
                         ids=["fixed-latency", "lan-latency"])
def test_tree_reads_invariant_under_shuffle(shuffle_seed, fixed_latency):
    """A CSP tree's fan-in meets 1,024-wide same-instant bursts: the values
    its root reads must be bit-equal whatever the tie-break order."""
    assert _clean_tree_reads(fixed_latency, shuffle_seed) \
        == _clean_tree_reads(fixed_latency, None)


def _plant_arrival_order_fan_in(monkeypatch):
    """Plant a fan-in race: each child's completion callback appends its
    value to a list in the request context, and the composite's mean is
    summed in arrival order instead of child order."""
    from repro.core.csp import CompositeSensorProvider

    ask = CompositeSensorProvider._ask
    get_value = CompositeSensorProvider._op_get_value

    def racy_ask(self, child, visited, parent_ctx, parallel):
        done = ask(self, child, visited, parent_ctx, parallel)
        arrivals = parent_ctx.get_value(_ARRIVALS, None)
        if arrivals is None:
            arrivals = []
            parent_ctx.put_value(_ARRIVALS, arrivals)
        done.callbacks.append(
            lambda event: arrivals.append(event.value.get_return_value()))
        return done

    def racy_get_value(self, ctx):
        value = yield from get_value(self, ctx)
        arrivals = ctx.get_value(_ARRIVALS, None)
        if arrivals:
            value = sum(arrivals) / len(arrivals)
        return value

    monkeypatch.setattr(CompositeSensorProvider, "_ask", racy_ask)
    monkeypatch.setattr(CompositeSensorProvider, "_op_get_value",
                        racy_get_value)


@pytest.mark.slow
def test_tree_check_catches_arrival_order_fan_in(monkeypatch):
    """The tree check can see a fan-in race: with one planted, a tie seed
    moves the root's reads, and without it they stay bit-equal."""
    assert _clean_tree_reads(0.001, 11) == _clean_tree_reads(0.001, None)
    _plant_arrival_order_fan_in(monkeypatch)
    assert _tree_reads(0.001, 11) != _tree_reads(0.001, None)
