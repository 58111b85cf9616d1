"""Table rendering."""

from repro.util.table import format_value, render_table


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(True) == "yes"
    assert format_value(0.0) == "0"
    assert format_value(3.14159) == "3.14"
    assert format_value(1234567.0) == "1,234,567"
    assert format_value(0.000123) == "0.000123"
    assert format_value("text") == "text"


def test_render_table_alignment():
    table = render_table(
        ["system", "latency", "bytes"],
        [["direct", 1.5, 10400], ["sensorcer", 0.3, 1200]],
        title="E-OVH")
    lines = table.splitlines()
    assert lines[0] == "E-OVH"
    assert "system" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "direct" in lines[3]
    assert "sensorcer" in lines[4]
    # Right-aligned numeric columns line up.
    assert lines[3].rstrip().endswith("10,400")
    assert lines[4].rstrip().endswith("1,200")


def test_render_traffic():
    import numpy as np
    from repro.sim import Environment
    from repro.net import FixedLatency, Host, Network
    from repro.util.table import render_traffic

    env = Environment()
    net = Network(env, rng=np.random.default_rng(1),
                  latency=FixedLatency(0.001))
    a, b = Host(net, "a"), Host(net, "b")
    b.open_port("p", lambda m: None)
    a.send("b", "p", kind="data", payload="x" * 50)
    a.send("b", "p", kind="ctl", payload=1)
    env.run()
    table = render_traffic(net.stats)
    lines = table.splitlines()
    assert lines[-1].startswith("TOTAL")
    assert "data" in table and "ctl" in table
    # Sorted by total bytes descending: data row above ctl row.
    assert table.index("data") < table.index("ctl")
