"""Every output at seed 17 against its recorded SHA-256 digest (``golden.json``,
regenerated by ``make_golden.py``)."""

import json

import pytest

import make_golden


def test_outputs_match_golden_digests():
    golden = json.loads(make_golden.GOLDEN.read_text())
    here = make_golden.versions()
    made = {key: golden[key] for key in here}
    if (made["numpy"], made["scipy"]) != (here["numpy"], here["scipy"]):
        pytest.skip(f"golden digests were made under numpy {made['numpy']}, scipy "
                    f"{made['scipy']}; this run has numpy {here['numpy']}, scipy {here['scipy']}")
    assert made["stream_layout"] == here["stream_layout"], (
        "the stream layout changed; regenerate golden.json with make_golden.py "
        "and list the moved digests in CHANGES.md")
    moved = make_golden.moved(golden, {"digests": make_golden.digests()})
    assert moved == [], f"outputs whose bytes changed: {moved}"
