"""Remote method invocation over the simulated network.

Models Jini-ERI style invocation: a client holds a :class:`RemoteRef` (the
"proxy") naming a host and an exported object id; a call is a request
message, server-side execution (which may itself be a simulated process that
sleeps, computes and makes further remote calls) and a reply message.

Every host gets one lazily created :class:`RpcEndpoint` (see
:func:`rpc_endpoint`) which serves both roles: it exports local objects and
issues outbound calls. Calls return kernel events, so caller code reads::

    value = yield endpoint.call(ref, "getValue", path)

Failure semantics match the real thing: lost requests or replies surface as
:class:`RpcTimeout`; a server-side exception surfaces as
:class:`RemoteError` wrapping the cause.

A request is served inside the callback that delivers it, once the dedup,
export-table and method checks pass: two requests arriving at one host at
the same instant run delivery and serve 1, then delivery and serve 2. Only
a generator method becomes a kernel process, ``rpc:<host>.<method>``.

:meth:`RpcEndpoint.cast` is the one-way form: the same request message,
sent to the cast port, served by the same checks, answered by nothing.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Any, Iterable, Optional

from ..observability.registry import metrics_registry
from ..observability.span import NULL_SPAN
from ..observability.tracer import tracer_of
from ..sim import Event, Timeout
from .errors import NetworkError, NoSuchObjectError, RemoteError, RpcTimeout
from .host import Host
from .message import Message
from .wire import Protocol, WireSized

__all__ = ["RemoteRef", "RpcEndpoint", "rpc_endpoint"]

REQUEST_PORT = "rpc.req"
REPLY_PORT = "rpc.rep"
#: One-way requests: served like ``rpc.req``, never answered.
CAST_PORT = "rpc.cast"
DEFAULT_TIMEOUT = 5.0


@dataclass(frozen=True)
class RemoteRef(WireSized):
    """A serializable handle to an object exported on some host.

    ``type_names`` lists the remote interfaces the object claims to
    implement; lookup-service template matching uses them.
    """

    host: str
    object_id: str
    type_names: tuple = ()

    def __post_init__(self) -> None:
        # Frozen, so the size is fixed at construction; a proxy is sized
        # every time it crosses the wire.
        object.__setattr__(self, "_wire_size", 48 + len(self.host)
                           + sum(len(t) for t in self.type_names))

    def wire_size(self) -> int:
        return self._wire_size

    def implements(self, type_name: str) -> bool:
        return type_name in self.type_names


def _remote_type_names(obj: Any) -> tuple:
    """Collect declared remote interface names from the object's MRO.

    A class opts into a remote type by listing names in ``REMOTE_TYPES``;
    an instance may extend the set with its own ``REMOTE_TYPES`` attribute
    (service providers compute their types at construction time); otherwise
    the class name itself is used.
    """
    names: list[str] = []
    instance_types = vars(obj).get("REMOTE_TYPES") if hasattr(obj, "__dict__") else None
    if instance_types:
        names.extend(instance_types)
    for klass in type(obj).__mro__:
        declared = klass.__dict__.get("REMOTE_TYPES")
        if declared:
            for name in declared:
                if name not in names:
                    names.append(name)
    if not names:
        names.append(type(obj).__name__)
    return tuple(names)


class _PendingCall:
    __slots__ = ("event", "started_at", "timer", "span")

    def __init__(self, event: Event, started_at: float, timer: Timeout,
                 span=NULL_SPAN):
        self.event = event
        self.started_at = started_at
        self.timer = timer
        self.span = span


class _Watchdog(Timeout):
    """An outbound call's timer: a bare Timeout, not a process, which would
    stay alive until the full timeout even after the reply arrives. The
    reply cancels it, so it is never dispatched. ``delay`` is the call's
    timeout."""

    __slots__ = ("request_id",)

    def __init__(self, endpoint: "RpcEndpoint", request_id: int,
                 timeout: float):
        super().__init__(endpoint.env, timeout)
        self.request_id = request_id
        self.callbacks.append(endpoint._expire_callback)


class RpcEndpoint:
    """Per-host RPC stack (server + client)."""

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self._objects: dict[str, Any] = {}
        self._allowed: dict[str, Optional[frozenset]] = {}
        self._pending: dict[int, _PendingCall] = {}
        self._request_ids = count(1)
        # Duplicate-request suppression: the network may deliver a request
        # twice (chaos duplication models at-least-once links). Request ids
        # are per-caller counters, so the dedup key includes the caller.
        # Bounded window — old entries age out; callers never reuse ids.
        self._seen_requests: set = set()
        self._seen_order: deque = deque()
        self._seen_limit = 4096
        self._tracer = tracer_of(host.network)
        registry = metrics_registry(host.network)
        self._m_calls = registry.counter("rpc.calls", host=host.name)
        self._m_timeouts = registry.counter("rpc.timeouts", host=host.name)
        self._m_rtt = registry.histogram("rpc.rtt", host=host.name)
        # Every watchdog shares one bound method, made here once.
        self._expire_callback = self._expire
        host.open_port(REQUEST_PORT, self._on_request)
        host.open_port(CAST_PORT, self._on_request)
        host.open_port(REPLY_PORT, self._on_reply)

    # -- server side ----------------------------------------------------------

    def export(self, obj: Any, object_id: str,
               methods: Optional[Iterable[str]] = None) -> RemoteRef:
        """Export ``obj`` under ``object_id``; returns the proxy to hand out.

        ``methods`` restricts callable selectors; ``None`` allows any public
        method (name not starting with underscore).
        """
        if object_id in self._objects:
            raise ValueError(f"object id {object_id!r} already exported on {self.host.name}")
        self._objects[object_id] = obj
        self._allowed[object_id] = frozenset(methods) if methods is not None else None
        return RemoteRef(host=self.host.name, object_id=object_id,
                         type_names=_remote_type_names(obj))

    def unexport(self, object_id: str) -> None:
        self._objects.pop(object_id, None)
        self._allowed.pop(object_id, None)

    def _on_request(self, msg: Message) -> None:
        request_id, caller, object_id, method, args, kwargs = msg.payload
        # A cast passes every check a call does; its outcome, refusal
        # included, is dropped by _reply instead of being sent back.
        reply_to = caller if msg.port == REQUEST_PORT else None
        dedup_key = (caller, request_id)
        if dedup_key in self._seen_requests:
            return  # duplicate delivery: execute-at-most-once per request
        self._seen_requests.add(dedup_key)
        self._seen_order.append(dedup_key)
        if len(self._seen_order) > self._seen_limit:
            self._seen_requests.discard(self._seen_order.popleft())
        obj = self._objects.get(object_id)
        if obj is None:
            self._reply(reply_to, request_id, False,
                        NoSuchObjectError(f"{object_id!r} not exported on {self.host.name}"))
            return
        allowed = self._allowed.get(object_id)
        if (method.startswith("_")
                or (allowed is not None and method not in allowed)):
            self._reply(reply_to, request_id, False,
                        NoSuchObjectError(f"method {method!r} not remotely invocable"))
            return
        target = getattr(obj, method, None)
        if target is None or not callable(target):
            self._reply(reply_to, request_id, False,
                        NoSuchObjectError(f"{type(obj).__name__} has no method {method!r}"))
            return
        try:
            result = target(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - crosses the RPC boundary
            self._reply(reply_to, request_id, False, exc)
            return
        if not inspect.isgenerator(result):
            self._reply(reply_to, request_id, True, result)
            return

        def reply_when_done(process: Event) -> None:
            process.defuse()  # a failure is the caller's to see, not run()'s
            self._reply(reply_to, request_id, process.ok, process.value)

        self.env.process(result, name=f"rpc:{self.host.name}.{method}"
                         ).callbacks.append(reply_when_done)

    def _reply(self, reply_to: Optional[str], request_id: int, ok: bool,
               value: Any) -> None:
        if reply_to is None or not self.host.up:
            return
        self.host.send(reply_to, REPLY_PORT, kind="rpc-reply",
                       payload=(request_id, ok, value), protocol=Protocol.JERI)

    # -- client side ----------------------------------------------------------

    def call(self, ref: RemoteRef, method: str, *args,
             timeout: float = DEFAULT_TIMEOUT, kind: str = "rpc-request",
             trace_parent: Optional[int] = None, **kwargs) -> Event:
        """Invoke ``method`` on the remote object; returns an event that
        triggers with the result, or fails with :class:`RpcTimeout` /
        :class:`RemoteError`.

        ``trace_parent`` links the call's client-side span (request sent →
        reply received / timed out) under the caller's span; it is consumed
        here, never forwarded to the remote method. Calls with *no* parent
        are infrastructure chatter (registration, lease renewal, lookup
        polling) rather than exertion hops: they are counted in the
        ``rpc.calls`` metrics but not traced, which keeps traces focused on
        federated requests and bounds span growth in long runs.
        """
        event = self.env.event()
        request_id = next(self._request_ids)
        self._m_calls.inc()
        if trace_parent is not None:
            span = self._tracer.start_span(f"rpc:{method}", kind="rpc",
                                           host=self.host.name,
                                           parent_id=trace_parent,
                                           peer=ref.host, msg_kind=kind)
        else:
            span = NULL_SPAN
        timer = _Watchdog(self, request_id, timeout)
        self._pending[request_id] = _PendingCall(event, self.env.now, timer,
                                                 span)
        payload = (request_id, self.host.name, ref.object_id, method, args, kwargs)
        try:
            self.host.send(ref.host, REQUEST_PORT, kind=kind,
                           payload=payload, protocol=Protocol.JERI)
        except NetworkError as exc:
            self._pending.pop(request_id, None)
            timer.cancel()
            span.end("send_failed")
            event.fail(exc)
        return event

    def cast(self, ref: RemoteRef, method: str, *args,
             kind: str = "rpc-request", **kwargs) -> None:
        """Invoke ``method`` on the remote object one-way: at most once,
        and nothing comes back — no reply, no event, no watchdog.

        The request is the one :meth:`call` sends, addressed to
        :data:`CAST_PORT`; the server runs it through the same dedup,
        export-table and method checks and serves it on delivery. A request
        that cannot be sent (this host down, an unknown destination) is
        dropped like one lost on the wire.
        """
        self._m_calls.inc()
        payload = (next(self._request_ids), self.host.name, ref.object_id,
                   method, args, kwargs)
        try:
            self.host.send(ref.host, CAST_PORT, kind=kind, payload=payload,
                           protocol=Protocol.JERI)
        except NetworkError:
            pass

    def _expire(self, timer: _Watchdog) -> None:
        pending = self._pending.pop(timer.request_id, None)
        if pending is not None and not pending.event.triggered:
            self._m_timeouts.inc()
            pending.span.end("timeout")
            pending.event.fail(RpcTimeout(
                f"no reply for request {timer.request_id} "
                f"within {timer.delay}s"))

    def _on_reply(self, msg: Message) -> None:
        request_id, ok, value = msg.payload
        pending = self._pending.pop(request_id, None)
        if pending is None or pending.event.triggered:
            return  # reply after timeout: drop, like a closed socket
        pending.timer.cancel()
        self._m_rtt.observe(self.env.now - pending.started_at)
        pending.span.end("ok" if ok else "remote_error")
        if ok:
            pending.event.succeed(value)
        else:
            if isinstance(value, NoSuchObjectError):
                pending.event.fail(value)
            else:
                pending.event.fail(RemoteError(value))


def rpc_endpoint(host: Host) -> RpcEndpoint:
    """Return the host's RPC endpoint, creating it on first use."""
    endpoint = host.shared.get("rpc_endpoint")
    if endpoint is None:
        endpoint = host.shared["rpc_endpoint"] = RpcEndpoint(host)
    return endpoint
