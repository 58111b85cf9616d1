"""``benchmarks/results/trajectory.jsonl`` — the kept perf trajectory.

One line per PR that measured E-E2E: which commit, what each workload's two
host-time headline metrics read at the parent and at the change, and how big
``src/`` was. A re-anchor reads drift off this file, so every line has to
parse and carry the same keys, and the newest line has to describe the tree
it is committed with.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.jsonl"
METRICS = ("request_wall_us_p50", "requests_per_host_s")


def test_every_line_parses_and_carries_the_keys():
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    lines = TRAJECTORY.read_text().splitlines()
    assert lines, "the trajectory has at least the line that started it"
    for number, line in enumerate(lines, 1):
        entry = json.loads(line)
        where = f"line {number}"
        assert isinstance(entry["pr"], int), where
        assert isinstance(entry["commit"], str) and entry["commit"], where
        assert isinstance(entry["src_lines"], int) and entry["src_lines"] > 0, where
        assert sorted(entry["workloads"]) == sorted(workloads), where
        for name, metrics in entry["workloads"].items():
            for metric in METRICS:
                for side in ("parent", "change"):
                    value = metrics[metric][side]
                    assert isinstance(value, (int, float)) and value > 0, (
                        f"{where}: {name}.{metric}.{side}")
    assert [json.loads(line)["pr"] for line in lines] == sorted(
        json.loads(line)["pr"] for line in lines), "appended in PR order"


def test_newest_line_counts_the_tree_it_ships_with():
    """``src_lines`` is ``find src -name '*.py' | xargs cat | wc -l``."""
    newest = json.loads(TRAJECTORY.read_text().splitlines()[-1])
    on_disk = sum(path.read_bytes().count(b"\n")
                  for path in (ROOT / "src").rglob("*.py"))
    assert newest["src_lines"] == on_disk
