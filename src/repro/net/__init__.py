"""Simulated network substrate: hosts, links, multicast, partitions, RPC.

Note on fidelity: message payloads are passed by reference (no pickling) as
a simulation shortcut; layers where serialization isolation matters (the
SORCER exertion boundary) copy explicitly. Sizes and latencies *are*
modelled, so traffic accounting is meaningful.
"""

from .errors import (
    HostDownError,
    NetworkError,
    NoSuchObjectError,
    NoSuchPortError,
    RemoteError,
    RpcTimeout,
    UnreachableError,
)
from .host import Host
from .latency import FixedLatency, LanLatency
from .message import Message
from .network import BernoulliLoss, Network, TrafficStats
from .rpc import RemoteRef, RpcEndpoint, rpc_endpoint
from .wire import Protocol, estimate_size, header_size

__all__ = [
    "BernoulliLoss",
    "FixedLatency",
    "Host",
    "HostDownError",
    "LanLatency",
    "Message",
    "Network",
    "NetworkError",
    "NoSuchObjectError",
    "NoSuchPortError",
    "Protocol",
    "RemoteError",
    "RemoteRef",
    "RpcEndpoint",
    "RpcTimeout",
    "TrafficStats",
    "UnreachableError",
    "estimate_size",
    "header_size",
    "rpc_endpoint",
]
