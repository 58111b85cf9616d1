"""Unit tests for wire-size estimation."""

from dataclasses import dataclass

from repro.net.wire import Protocol, estimate_size, header_size, WireSized


def test_scalar_sizes():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8


def test_string_size_scales_with_length():
    assert estimate_size("ab") == 4 + 2
    assert estimate_size("a" * 100) == 4 + 100


def test_unicode_counts_encoded_bytes():
    assert estimate_size("é") == 4 + 2


def test_bytes_size():
    assert estimate_size(b"12345") == 4 + 5


def test_list_size_includes_items_and_overhead():
    assert estimate_size([]) == 4
    assert estimate_size([1]) == 4 + (8 + 4)
    assert estimate_size([1, 2]) == 4 + 2 * (8 + 4)  # linear in item count


def test_dict_size():
    assert estimate_size({}) == 4
    assert estimate_size({"k": 1}) == 4 + (5 + 8 + 4)


def test_nested_structures():
    assert estimate_size({"a": []}) == 4 + (5 + 4 + 4)
    inner = 4 + (5 + 5 + 4)
    items = 4 + (8 + 4) + (8 + 4) + (inner + 4)
    assert estimate_size({"a": [1, 2, {"b": "c"}]}) == 4 + (5 + items + 4) == 63


def test_dataclass_size_sums_fields():
    @dataclass
    class Reading:
        value: float
        unit: str

    r = Reading(21.5, "C")
    assert estimate_size(r) == 16 + 8 + (4 + 1)


def test_wire_sized_override_wins():
    class Fixed(WireSized):
        def wire_size(self):
            return 99

    assert estimate_size(Fixed()) == 99


def test_plain_object_uses_dict():
    class Obj:
        def __init__(self):
            self.x = 1

    assert estimate_size(Obj()) == 16 + 4 + (5 + 8 + 4)


def test_header_sizes_ordering():
    # UDP < TCP < JERI — the overhead argument of paper §II.1 depends on it.
    assert header_size(Protocol.UDP) < header_size(Protocol.TCP) < header_size(Protocol.JERI)


def test_udp_header_is_ip_plus_udp():
    assert header_size(Protocol.UDP) == 28
