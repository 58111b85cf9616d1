"""The type-dispatched sizers against the recursive estimator they replaced.

``reference_wire.estimate_size`` is the old function, verbatim. Payloads are
drawn from the vocabulary that really crosses the simulated wire; the named
cases pin the precedence of the old ``isinstance`` ladder, which the
per-class classification must reproduce; the last test pins three canonical
messages to the byte counts the parent commit charged for them.
"""

import enum
from collections import OrderedDict, defaultdict
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.core import SensorBrowser, SensorcerFacade
from repro.net import Host
from repro.net.wire import WireSized, estimate_size
from repro.scenarios.grids import build_sensorcer_grid, seed_locator_discovery

from tests.helpers.vocabulary import (contexts, jobs, payloads, remote_refs,
                                      tasks)
from tests.net import reference_wire


@given(payloads)
def test_payloads_size_as_the_reference(payload):
    assert estimate_size(payload) == reference_wire.estimate_size(payload)


@given(contexts())
def test_contexts_size_as_the_reference(ctx):
    assert ctx.wire_size() == reference_wire.context_wire_size(ctx)
    assert estimate_size(ctx) == reference_wire.context_wire_size(ctx)


@given(remote_refs)
def test_remote_ref_remembers_what_it_would_compute(ref):
    assert ref.wire_size() == reference_wire.remote_ref_wire_size(ref)


@given(st.one_of(tasks(), jobs()))
def test_exertions_size_as_the_reference(exertion):
    assert exertion.wire_size() == reference_wire.exertion_wire_size(exertion)
    assert estimate_size(exertion) == reference_wire.exertion_wire_size(exertion)
    # ... and inside an RPC request tuple, as they really travel.
    request = (7, "host", "provider:x", "service", (exertion, None), {})
    assert estimate_size(request) == reference_wire.estimate_size(
        reference_wire.unslotted(request))


# -- precedence of the old isinstance ladder -----------------------------------------

class Level(enum.IntEnum):
    LOW = 1


class Colour(str, enum.Enum):
    RED = "rouge-é"


class Mode(enum.Enum):
    FAST = "fast"
    NUMBER = 12345


@dataclass
class Plain:
    a: int = 1
    b: str = "xy"


@dataclass
class SizedData(WireSized):
    a: int = 1

    def wire_size(self):
        return 99


class Slotted:
    __slots__ = ("x",)

    def __init__(self):
        self.x = "not charged: no __dict__"


class Bag:
    def __init__(self):
        self.x = 1
        self.items = ["a", 2.0]


class Tree(dict):
    """A dict subclass that also has a ``__dict__``: still sized as a dict."""

    def __init__(self):
        super().__init__(k="v")
        self.extra = "ignored"


PRECEDENCE_CASES = {
    "int-enum-is-an-int": (Level.LOW, 8),
    "str-enum-is-a-str": (Colour.RED, 4 + len("rouge-é".encode())),
    "enum-str-value": (Mode.FAST, 4 + 4),
    "enum-int-value": (Mode.NUMBER, 4 + 5),
    "wire-sized-beats-dataclass": (SizedData(), 99),
    "dataclass-fields": (Plain(), 16 + 8 + 6),
    # vars() of a class is a mappingproxy: an opaque object, not a dict.
    "dataclass-class-object": (Plain, 16 + 16),
    "slots-without-dict-is-opaque": (Slotted(), 16),
    "plain-object-is-its-dict": (
        Bag(), 16 + 4 + (5 + 8 + 4) + (9 + (4 + 5 + 4 + 8 + 4) + 4)),
    "defaultdict": (defaultdict(list, a=[1]), 4 + (5 + (4 + 8 + 4) + 4)),
    "ordered-dict": (OrderedDict(a=1), 4 + (5 + 8 + 4)),
    "dict-subclass-with-attributes": (Tree(), 4 + (5 + 5 + 4)),
    "bytearray": (bytearray(b"abc"), 4 + 3),
    "bool-before-int": (True, 1),
    "none": (None, 1),
    "bare-object": (object(), 16),
    "complex-is-opaque": (3 + 4j, 16),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE_CASES))
def test_precedence_cases(case):
    value, expected = PRECEDENCE_CASES[case]
    assert reference_wire.estimate_size(value) == expected
    assert estimate_size(value) == expected


def test_classification_is_per_class_not_per_first_instance():
    # The table is keyed on the class; an instance that gains a __dict__
    # entry later, or a sibling class, is still sized by its own state.
    first, second = Bag(), Bag()
    second.more = "later"
    assert estimate_size(first) == reference_wire.estimate_size(first)
    assert estimate_size(second) == reference_wire.estimate_size(second)
    assert estimate_size(second) > estimate_size(first)


# -- three canonical messages, bytes as the parent commit charged them -------------

def test_canonical_message_bytes():
    """A 4-sensor, fan-out-2 grid read through the Façade (seed 2009): the
    ESP ``getValue`` exertion request, its reply and the LUS lookup reply
    naming an ESP. Byte counts were read off the recursive estimator. The
    read is each hop's first, so each also registers interest in its
    template (``lus-notify``) before it looks it up: 9 hops, 18 of the 52
    messages; the LUS's answer to a composite's registration is pinned
    too."""
    grid = build_sensorcer_grid(4, seed=2009, tree_fanout=2,
                                discovery="locator", fixed_latency=0.001)
    SensorcerFacade(seed_locator_discovery(Host(grid.net, "facade-host"))).start()
    browser = SensorBrowser(
        seed_locator_discovery(Host(grid.net, "browser-host")))
    grid.settle(6.0)
    seen = []
    grid.net.tap(seen.append)
    value = grid.env.run(until=grid.env.process(browser.get_value("Root")))
    assert value == 16.046875
    assert len(seen) == 52

    esp_requests = [m for m in seen if m.kind == "exertion"
                    and m.dst.startswith("esp-")]
    esp_replies = [m for m in seen if m.kind == "rpc-reply"
                   and m.src.startswith("esp-")]
    lus_replies = [m for m in seen if m.kind == "rpc-reply"
                   and m.src == "lus-host" and m.dst.startswith("Group-")]
    esp_lookups = [m for m in lus_replies if isinstance(m.payload[2], list)]
    registrations = [m for m in lus_replies if m not in esp_lookups]
    assert [m.payload_bytes for m in esp_requests] == [843] * 4
    assert [m.payload_bytes for m in esp_replies] == [846] * 4
    assert [m.payload_bytes for m in esp_lookups] == [317] * 4
    assert [m.payload_bytes for m in registrations] == [129] * 4
    assert {m.header_bytes for m in seen} == {148}
    assert sum(m.payload_bytes for m in seen) == 21860
    for message in seen:
        assert (reference_wire.estimate_size(
            reference_wire.unslotted(message.payload))
                == message.payload_bytes)
