"""BENCHMARK.json agrees with the code and with the naming rules."""

import json
import re
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_valid_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for e in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(e["unit"]) and e["better"] in ("higher", "lower")
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.BASE_SESSIONS)
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert [e["name"] for e in SPEC["per_layer"]] == \
        list(layers.PER_LAYER_METRICS)
    for e in SPEC["per_layer"]:
        assert e["unit"] == run.unit(e["name"])


def test_bounds_and_setup_metric():
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
