"""Property-based tests (hypothesis) for jini-layer invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.net.rpc import RemoteRef
from repro.jini import (
    Landlord,
    Name,
    SensorType,
    ServiceItem,
    ServiceTemplate,
    entry_matches,
)

names = st.text(alphabet="abcdefgh-", min_size=1, max_size=12)
quantities = st.sampled_from(["temperature", "humidity", "light", None])
types_pool = ["SensorDataAccessor", "Servicer", "Cybernode", "Jobber"]


def make_item(name, quantity, type_subset, sid="id-1"):
    attrs = [Name(name)]
    if quantity is not None:
        attrs.append(SensorType(quantity=quantity))
    ref = RemoteRef(host="h", object_id="o", type_names=tuple(type_subset))
    return ServiceItem(service_id=sid, service=ref, attributes=tuple(attrs))


@given(names, quantities, st.sets(st.sampled_from(types_pool), min_size=1))
def test_empty_template_matches_everything(name, quantity, type_subset):
    item = make_item(name, quantity, type_subset)
    assert ServiceTemplate().matches(item)


@given(names, quantities, st.sets(st.sampled_from(types_pool), min_size=1))
def test_exact_id_template(name, quantity, type_subset):
    item = make_item(name, quantity, type_subset)
    assert ServiceTemplate(service_id="id-1").matches(item)
    assert not ServiceTemplate(service_id="other").matches(item)


@given(names, st.sets(st.sampled_from(types_pool), min_size=1))
def test_type_template_subset_rule(name, type_subset):
    """A template with types T matches iff T is a subset of the proxy types."""
    item = make_item(name, None, type_subset)
    for t in types_pool:
        expected = t in type_subset
        assert ServiceTemplate(types=(t,)).matches(item) == expected
    assert ServiceTemplate(types=tuple(type_subset)).matches(item)


@given(names, names)
def test_name_template_iff_equal(a, b):
    item = make_item(a, None, ["Servicer"])
    assert ServiceTemplate(attributes=(Name(b),)).matches(item) == (a == b)


@given(names, quantities)
def test_template_strengthening_never_adds_matches(name, quantity):
    """Adding constraints can only shrink the match set (monotonicity)."""
    item = make_item(name, quantity, ["SensorDataAccessor", "Servicer"])
    weak = ServiceTemplate(types=("Servicer",))
    strong = ServiceTemplate(types=("Servicer",),
                             attributes=(SensorType(quantity="temperature"),))
    if strong.matches(item):
        assert weak.matches(item)


@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100.0),
                          st.floats(min_value=0.1, max_value=50.0)),
                min_size=1, max_size=20))
def test_landlord_active_count_invariant(grants):
    """Active leases == grants minus (cancels + expiries); never negative."""
    env = Environment()
    landlord = Landlord(env, max_duration=1000.0)
    leases = []
    for duration, advance in grants:
        leases.append(landlord.grant("r", duration))
        env._now += advance  # direct clock manipulation is fine here
        landlord.reap()
        alive = sum(1 for lease in leases
                    if lease.expiration > env.now)
        # reap() may remove only lapsed leases — the landlord's view must
        # agree with the expiration timestamps it handed out (renewals
        # aside, which this test doesn't perform).
        assert len(landlord) == alive


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_landlord_renewal_extends_from_now(first, second):
    env = Environment()
    landlord = Landlord(env, max_duration=1000.0)
    lease = landlord.grant("r", first)
    env._now += first / 2
    renewed = landlord.renew(lease.lease_id, second)
    assert renewed.expiration == env.now + second
    assert landlord.lease_of("r").expiration == renewed.expiration


@given(st.integers(min_value=1, max_value=30))
def test_landlord_clear_empties(n):
    env = Environment()
    expired = []
    landlord = Landlord(env, on_expire=expired.append)
    for i in range(n):
        landlord.grant(i, 10.0)
    landlord.clear()
    assert len(landlord) == 0
    assert expired == []  # clear() never fires expiry callbacks
