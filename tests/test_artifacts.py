import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np

from flrwave import artifacts
from flrwave.bounds import AxisSpec, region_map_model


def test_fmt_shortest_roundtrip():
    assert artifacts.fmt(0.1) == "0.1"
    assert float(artifacts.fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert artifacts.fmt(float("nan")) == "nan"
    assert artifacts.fmt(None) == ""
    assert artifacts.fmt(True) == "true"
    assert artifacts.fmt(42) == "42"
    assert artifacts.fmt("C") == "C"


def test_fmt_numpy_integer():
    # not a Python int, so written by str
    assert artifacts.fmt(np.int64(3)) == "3"


def test_clean_for_json_strips_nonfinite():
    payload = {"a": float("nan"), "b": [1.0, float("inf")], "c": {"d": 2.0}}
    cleaned = artifacts.clean_for_json(payload)
    assert cleaned == {"a": None, "b": [1.0, None], "c": {"d": 2.0}}


def test_csv_bytes_stable(tmp_path):
    rows = [(1.57, 3.5, "B", 1.25), (0.1, float("nan"), "C", None)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    artifacts.write_csv(p1, ["axis1", "axis2", "label", "best_exponent"], rows)
    artifacts.write_csv(p2, ["axis1", "axis2", "label", "best_exponent"], rows)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data.startswith(b"axis1,axis2,label,best_exponent\n")
    assert b"\r" not in data


def test_write_files_by_content(tmp_path):
    lines = ["a,b\n", "1.5,x\n", "nan,y\n"]
    artifacts.write_files(str(tmp_path), {
        "table.csv": (["a", "b"], [(1.5, "x"), (float("nan"), "y")]),
        "whole.csv": "".join(lines),
        "blocks.csv": (line for line in lines),
        "payload.json": {"b": 1},
        "picture.svg": "<svg/>\n",
    })
    text = (tmp_path / "table.csv").read_bytes()
    assert text == "".join(lines).encode()
    assert (tmp_path / "whole.csv").read_bytes() == text
    assert (tmp_path / "blocks.csv").read_bytes() == text
    assert json.loads((tmp_path / "payload.json").read_text()) == {"b": 1}
    assert (tmp_path / "picture.svg").read_text() == "<svg/>\n"


def test_json_bytes_stable_and_sorted(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    artifacts.write_json(p1, {"b": 2.0, "a": [1, 2]})
    artifacts.write_json(p2, {"a": [1, 2], "b": 2.0})
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == {"a": [1, 2], "b": 2.0}


def test_digest_independent_of_key_order():
    d1 = artifacts.config_digest({"a": 1, "b": {"x": 0.5, "y": 2}})
    d2 = artifacts.config_digest({"b": {"y": 2, "x": 0.5}, "a": 1})
    assert d1 == d2
    assert d1 != artifacts.config_digest({"a": 1, "b": {"x": 0.5, "y": 3}})


def test_manifest_contents(tmp_path):
    digest = artifacts.write_manifest(
        str(tmp_path), "map", {"n": 2, "alpha": 0.6}, ["map.svg", "map.csv"]
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "map"
    assert manifest["config_digest"] == digest
    assert manifest["outputs"] == ["map.csv", "map.svg"]
    assert manifest["tool_version"] == artifacts.TOOL_VERSION
    assert manifest["config"] == {"n": 2, "alpha": 0.6}


def test_region_map_svg_deterministic_and_wellformed():
    rm = region_map_model(
        2, 0.6, AxisSpec("mu", 0.0, 2.0, 0.25), AxisSpec("p", 1.25, 4.0, 0.25)
    )
    inf = float("inf")
    rm = dataclasses.replace(rm, fujita=[3.5] * len(rm.fujita), p_c=[inf] * len(rm.p_c))
    svg1 = artifacts.region_map_svg(rm, "test map")
    svg2 = artifacts.region_map_svg(rm, "test map")
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    assert svg1.count("<polyline") == 1  # p_c is +inf on every row: no root
    assert artifacts.REGION_COLORS["A"] in svg1


def test_region_map_svg_curve_breaks_on_missing_values():
    rm = region_map_model(
        2, 0.6, AxisSpec("mu", 0.0, 2.0, 0.5), AxisSpec("p", 1.5, 4.0, 0.5)
    )
    nan, inf = float("nan"), float("inf")
    # the plot spans p 1.25..4.25: 10.0 leaves it
    rm = dataclasses.replace(
        rm, fujita=[3.5, 3.5, nan, 3.5, 3.5], p_c=[3.0, 3.0, 3.0, inf, 10.0]
    )
    svg = artifacts.region_map_svg(rm, "gaps")
    assert ET.fromstring(svg) is not None
    lines = [e for e in ET.fromstring(svg) if e.tag.endswith("polyline")]
    assert [len(e.get("points").split()) for e in lines] == [2, 2, 3]
    assert all(e.get("stroke-dasharray") == "4,3" for e in lines)
