"""Overloaded is a typed shed, not a failure: it round-trips provider ->
context marker -> caller and never masquerades as a RemoteError."""

from repro.core.facade import FacadeError
from repro.net.errors import RemoteError
from repro.overload import (
    OVERLOAD_PATH,
    Overloaded,
    mark_overloaded,
    rejection_marker,
)
from repro.sorcer.context import ServiceContext


def test_overloaded_is_not_a_remote_or_facade_error():
    exc = Overloaded("queue-full")
    assert not isinstance(exc, RemoteError)
    assert not isinstance(exc, FacadeError)


def test_message_carries_reason_tenant_and_hint():
    exc = Overloaded("queue-full", retry_after=1.25, tenant="gold",
                     provider="facade")
    text = str(exc)
    assert "facade" in text and "queue-full" in text
    assert "'gold'" in text and "1.250s" in text


def test_marker_roundtrip_through_service_context():
    exc = Overloaded("queue-full", retry_after=0.375, tenant="silver",
                     provider="facade")
    ctx = ServiceContext("shed")
    mark_overloaded(ctx, exc)
    marker = rejection_marker(ctx)
    assert marker == {"reason": "queue-full", "retry_after": 0.375,
                      "tenant": "silver", "provider": "facade"}
    back = Overloaded.from_marker(marker)
    assert (back.reason, back.retry_after, back.tenant, back.provider) == \
        (exc.reason, exc.retry_after, exc.tenant, exc.provider)


def test_rejection_marker_none_on_clean_context():
    ctx = ServiceContext("clean")
    assert rejection_marker(ctx) is None
    ctx.put_value(OVERLOAD_PATH, "not-a-dict")
    assert rejection_marker(ctx) is None
