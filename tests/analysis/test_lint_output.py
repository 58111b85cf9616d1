"""`repro lint --json` output contract: the golden, byte stability and the
payload shape.

The golden is byte-exact, so a formatting change must show up as a test
diff. Regenerate with::

    cd tests/analysis/fixtures
    PYTHONPATH=../../../src python -m repro lint --json seeded_bad.py \
        > ../../golden/lint_seeded.json
"""

import io
import json
import pathlib

from repro.cli import main

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE.parent / "golden"


def lint_seeded(monkeypatch):
    # The fixture is linted by relative path so the output (which embeds
    # the path) is location-independent and can be golden-tested.
    monkeypatch.chdir(FIXTURES)
    out = io.StringIO()
    code = main(["lint", "--json", "seeded_bad.py"], out=out)
    return code, out.getvalue()


def test_json_output_matches_golden(monkeypatch):
    code, output = lint_seeded(monkeypatch)
    assert code == 1
    assert output == (GOLDEN / "lint_seeded.json").read_text()


def test_machine_output_is_byte_stable(monkeypatch):
    assert lint_seeded(monkeypatch) == lint_seeded(monkeypatch)


def test_json_payload_shape(monkeypatch):
    _, output = lint_seeded(monkeypatch)
    payload = json.loads(output)
    assert payload["summary"]["total"] == 3
    assert payload["summary"]["by_rule"] == {
        "DET001": 1, "RES001": 1, "SIM001": 1}
    assert [f["rule"] for f in payload["findings"]] \
        == ["RES001", "DET001", "SIM001"]
