"""Status rendering — the ``repro status`` / ``repro health`` views.

Turns a :meth:`~repro.observability.health.HealthMonitor.snapshot` into the
operator-facing text tree (network -> node -> provider, mirroring the
browser's topology pane) and into a canonical JSON document. Both are pure
functions of the snapshot: the same seeded run produces byte-identical
output, which is what the golden-file CLI tests pin down.
"""

from __future__ import annotations

from ..util.canonical import canonical_document

__all__ = ["render_status", "render_health", "status_json"]

_MARK = {"UP": "+", "DEGRADED": "!", "DOWN": "x", "UNKNOWN": "?"}


def _tag(status: str, reasons) -> str:
    mark = _MARK.get(status, "?")
    out = f"[{mark}] {status}"
    if reasons:
        out += " (" + ", ".join(reasons) + ")"
    return out


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_status(snapshot: dict, title: str = "SenSORCER network") -> str:
    """The ``repro status`` tree: federation -> nodes -> providers."""
    federation = snapshot["federation"]
    t = snapshot.get("t")
    stamp = f" (t={t:.1f}s simulated)" if t is not None else ""
    lines = [f"{title}{stamp}", "=" * 56]
    lines.append(f"federation {_tag(federation['status'], federation['reasons'])}")
    lines.append(f"  nodes: {federation['nodes']}  "
                 f"providers: {federation['providers']} "
                 f"({federation['degraded']} degraded, "
                 f"{federation['down']} down)")
    providers = snapshot.get("providers", {})
    for node in sorted(snapshot.get("nodes", {})):
        record = snapshot["nodes"][node]
        lines.append(f"  node {node:<18} {_tag(record['status'], record['reasons'])}")
        for name in record["providers"]:
            provider = providers[name]
            lease = provider.get("lease_remaining")
            lease_str = f"  lease {lease:5.1f}s" if lease is not None else ""
            lines.append(f"    {name:<24} [{provider['kind']}] "
                         f"{_tag(provider['status'], provider['reasons'])}"
                         f"{lease_str}")
    slos = snapshot.get("slos", [])
    if slos:
        firing = sum(1 for rule in slos if rule["state"] == "firing")
        lines.append(f"  slos: {len(slos) - firing} ok, {firing} firing")
    alerts = snapshot.get("alerts", [])
    open_alerts = [a for a in alerts if a["state"] == "firing"]
    lines.append(f"  alerts: {len(alerts)} emitted, "
                 f"{len(open_alerts)} currently firing"
                 if alerts else "  alerts: none")
    return "\n".join(lines)


def render_health(snapshot: dict) -> str:
    """The ``repro health`` detail: SLO table, alert log, transitions."""
    lines = [render_status(snapshot), "", "SLOs", "-" * 56]
    slos = snapshot.get("slos", [])
    for rule in slos:
        lines.append(f"  {rule['name']:<24} {rule['state']:<7} "
                     f"signal {_fmt(rule['signal']):>8}  "
                     f"{rule['kind']} {rule['op']} {_fmt(rule['threshold'])}  "
                     f"[{rule['metric']}]")
    if not slos:
        lines.append("  (none registered)")
    lines += ["", "Alerts", "-" * 56]
    alerts = snapshot.get("alerts", [])
    for alert in alerts:
        lines.append(f"  t={alert['t']:8.1f}  {alert['slo']:<24} "
                     f"{alert['state']:<9} signal {_fmt(alert['signal'])} "
                     f"vs {_fmt(alert['threshold'])}")
    if not alerts:
        lines.append("  (none)")
    lines += ["", "Status transitions", "-" * 56]
    transitions = snapshot.get("transitions", [])
    for change in transitions:
        reasons = ", ".join(change["reasons"]) or "-"
        lines.append(f"  t={change['t']:8.1f}  {change['entity']:<28} "
                     f"{change['from']:>8} -> {change['to']:<8} [{reasons}]")
    if not transitions:
        lines.append("  (none)")
    return "\n".join(lines)


def status_json(snapshot: dict, **meta) -> str:
    """Canonical JSON export: sorted keys, fixed separators, trailing
    newline — byte-identical across same-seed runs."""
    document = dict(meta)
    document.update(snapshot)
    return canonical_document(document)
