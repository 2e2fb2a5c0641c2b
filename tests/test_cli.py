import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flrwave import artifacts, blowup_ode, bounds, cli, kato
from flrwave.cli import LEAVES, _map_csv, build_parser, main
from flrwave.exponents import FlrwParams, ModelParams, flrw_to_model


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_exponents_reports_critical_root(tmp_path):
    out = tmp_path / "e"
    assert main(["exponents", "--n", "3", "--alpha", "0", "--mu", "0", "--out", str(out)]) == 0
    payload = read_json(out / "exponents.json")
    assert payload["p_c"] == pytest.approx(2.414214, abs=1e-6)
    assert payload["p_c"] == pytest.approx(payload["strauss"], rel=1e-12)


def test_exponents_flrw_mode(tmp_path):
    # setting w selects the cosmological point
    out = tmp_path / "e"
    assert main(["exponents", "--n", "3", "--w", "0.3333333", "--out", str(out)]) == 0
    payload = read_json(out / "exponents.json")
    assert payload["params"]["alpha"] == pytest.approx(0.5, abs=1e-6)
    assert payload["params"]["mu"] == pytest.approx(1.5, abs=1e-6)
    assert "w_star" in payload["flrw"]


@pytest.mark.parametrize("point", [["--alpha", "0.9"], ["--mu", "5"], ["--alpha", "0.9", "--mu", "5"]])
def test_exponents_refuses_alpha_or_mu_with_w(tmp_path, capsys, point):
    # w fixes alpha and mu; a point given both ways once reported the w point
    out = tmp_path / "e"
    assert main(["exponents", "--n", "3", "--w", "0.3", *point, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: w sets alpha and mu") and len(err.splitlines()) == 1
    assert not out.exists()
    zero = ["--alpha", "0", "--mu", "0"]  # the defaults, which w overrides
    assert main(["exponents", "--n", "3", "--w", "0.3", *zero, "--out", str(out)]) == 0


def test_exponents_rejects_alpha_one(tmp_path):
    assert main(["exponents", "--n", "2", "--alpha", "1.0", "--out", str(tmp_path)]) == 2


# the middle case is exponents with p set, the path that reports the label
@pytest.mark.parametrize("command", [["exponents"], ["exponents", "--p", "2"], ["map"]])
def test_dimension_past_float_precision_exits_2(tmp_path, capsys, command):
    # 10**400 once overflowed converting to float (exit 3); 2**53 still runs
    out = tmp_path / "out"
    assert main(command + ["--n", str(10**400), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be an integer from 2 to 2**53" in err and "Traceback" not in err
    assert not out.exists()
    assert main(["exponents", "--n", str(2**53), "--out", str(tmp_path / "edge")]) == 0


def test_classify_region_c(tmp_path):
    out = tmp_path / "c"
    assert main(
        ["exponents", "--n", "2", "--alpha", "0.6", "--mu", "2", "--p", "2", "--out", str(out)]
    ) == 0
    payload = read_json(out / "exponents.json")
    assert payload["label"] == "C"
    kinds = {b["kind"]: b for b in payload["bounds"]}
    assert kinds["heatlike_sub"]["applicable"] is True


def test_exponents_label_at_a_cosmological_point_matches_the_map(tmp_path, capsys):
    argv = ["map", "--preset", "fig2", "--axis1_step", "0.5", "--axis2_step", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "m")]) == 0
    rows = (tmp_path / "m" / "map.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    for row in rows:
        w, p, label, best = row.split(",")
        out = tmp_path / f"e{w}_{p}"
        assert main(["exponents", "--n", "3", "--w", w, "--p", p, "--out", str(out)]) == 0
        payload = read_json(out / "exponents.json")
        assert payload["label"] == label, row
        best_exponent = payload["best_exponent"]  # null where the map has nan
        assert repr(math.nan if best_exponent is None else best_exponent) == best, row
    # p <= 1 is refused, as by every other command that takes p
    capsys.readouterr()
    out = tmp_path / "below"
    assert main(["exponents", "--n", "3", "--p", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: classification requires p > 1, got 0.5\n"
    assert not out.exists()


def test_help_lists_the_command_table(monkeypatch, capsys):
    # --help shows the usage, the docstring's first paragraph and one line per
    # top-level command of LEAVES, a group's line being its leaf names; the
    # rest of the docstring stays out
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    usage, description, listing, _ = out.split("\n\n")
    assert usage.startswith("usage: flrwave [-h] {exponents,map,kato,ode,pde}")
    assert description.split() == cli.__doc__.split("\n\n")[0].split()
    lines = listing.splitlines()
    assert lines[:2] == ["positional arguments:", "  {exponents,map,kato,ode,pde}"]
    listed = [line.split(None, 1) for line in lines[2:]]
    tops = dict.fromkeys(leaf.name.split()[0] for leaf in LEAVES)
    assert [name for name, _ in listed] == list(tops)
    helps = {leaf.name: leaf.help for leaf in LEAVES}
    assert dict(listed) == {
        "exponents": helps["exponents"],
        "map": helps["map"],
        "kato": "threshold | sequences | envelope",
        "ode": "run | sweep",
        "pde": "run | sweep",
    }
    assert "``" not in out and "Exit codes" not in out


def test_map_single_cell(tmp_path):
    out = tmp_path / "m"
    assert main(
        [
            "map", "--n", "2", "--alpha", "0.6",
            "--axis1_start", "2.0", "--axis1_stop", "2.0",
            "--axis2_start", "2.0", "--axis2_stop", "2.0",
            "--out", str(out),
        ]
    ) == 0
    lines = (out / "map.csv").read_text().splitlines()
    assert lines[0] == "axis1,axis2,label,best_exponent"
    assert len(lines) == 2
    assert lines[1].startswith("2.0,2.0,C,")


def test_map_outputs_and_manifest(tmp_path):
    out = tmp_path / "m"
    assert main(
        [
            "map", "--n", "2", "--alpha", "0.6",
            "--axis1_start", "0.0", "--axis1_stop", "3.0", "--axis1_step", "0.25",
            "--axis2_start", "1.25", "--axis2_stop", "4.0", "--axis2_step", "0.25",
            "--out", str(out),
        ]
    ) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "map"
    assert manifest["outputs"] == ["manifest.json", "map.csv", "map.svg"]
    assert (out / "map.svg").exists()


def test_map_byte_determinism(tmp_path):
    args = [
        "map", "--n", "2", "--alpha", "0.6",
        "--axis1_start", "0.0", "--axis1_stop", "3.0", "--axis1_step", "0.1",
        "--axis2_start", "1.1", "--axis2_stop", "4.0", "--axis2_step", "0.1",
    ]
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("map.csv", "map.svg", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def map_cells(rm):
    """(axis1 value, axis2 value, label, best exponent) of every cell, row by row."""
    v2 = rm.axis2.values()
    for a, codes, best in zip(rm.axis1.values(), rm.codes.tolist(), rm.best.tolist()):
        for b, code, e in zip(v2, codes, best):
            yield a, b, bounds.LABELS[code], e


def reference_map_csv(rm):
    """map.csv as ``write_csv`` formats the map's cells."""
    cells = ((a, b, label.value, e) for a, b, label, e in map_cells(rm))
    return "axis1,axis2,label,best_exponent\n" + "".join(
        ",".join(map(artifacts.fmt, cell)) + "\n" for cell in cells
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 5),
    flrw=st.booleans(),
    alpha=st.sampled_from([0.0, 0.5, 0.6]) | st.floats(0.0, 0.8),
    # axis1 and p steps whose grids land on the critical curves of the fixed
    # alphas, and ones that miss them
    step1=st.sampled_from([0.05, 0.1, 0.25, 0.37]),
    rows=st.integers(1, 70),
    p_start=st.sampled_from([1.01, 1.25, 1.5]) | st.floats(1.01, 1.6),
    step2=st.sampled_from([0.01, 0.05, 0.25, 0.5, 0.43]),
    cols=st.integers(1, 14),
)
@example(n=2, flrw=False, alpha=0.6, step1=0.1, rows=1, p_start=1.5, step2=0.5, cols=1)
@example(n=3, flrw=False, alpha=0.0, step1=0.1, rows=33, p_start=1.5, step2=0.5, cols=10)
@example(n=2, flrw=False, alpha=0.6, step1=0.05, rows=64, p_start=1.5, step2=0.25, cols=12)
@example(n=3, flrw=True, alpha=0.0, step1=0.05, rows=27, p_start=1.01, step2=0.5, cols=12)
# heatlike cells repeat down their p column across the 32-row kernel blocks
@example(n=2, flrw=False, alpha=0.6, step1=0.05, rows=70, p_start=1.01, step2=0.05, cols=14)
def test_map_csv_equals_its_cells(n, flrw, alpha, step1, rows, p_start, step2, cols):
    """map.csv, streamed in row blocks, holds the bytes ``write_csv`` gives
    the map's cells, and every cell is the scalar classification bit for
    bit; the axes cross p_F and p_c, so some cells have no bound (NaN)."""
    if flrw:
        # w runs up to 1 from just above its lower limit 2/n - 1
        w_start = round(2.0 / n - 1.0 + 0.01, 6)
        rows = min(rows, int((1.0 - w_start) / step1) + 1)
        axis = ["--preset", "fig2", "--axis1_start", repr(w_start)]
        params_of = lambda w: flrw_to_model(FlrwParams(n, w))
        axis1 = bounds.AxisSpec("w", w_start, w_start + (rows - 1) * step1, step1)
    else:
        axis = ["--alpha", repr(alpha), "--axis1_start", "0.0"]
        params_of = lambda mu: ModelParams(n, alpha, mu)
        axis1 = bounds.AxisSpec("mu", 0.0, (rows - 1) * step1, step1)
    axis2 = bounds.AxisSpec("p", p_start, p_start + (cols - 1) * step2, step2)
    argv = ["map", "--n", str(n), *axis, "--axis1_stop", repr(axis1.stop),
            "--axis1_step", repr(step1), "--axis2_start", repr(p_start),
            "--axis2_stop", repr(axis2.stop), "--axis2_step", repr(step2)]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", out]) == 0
        with open(os.path.join(out, "map.csv"), encoding="utf-8", newline="") as fh:
            text = fh.read()
    rm = (bounds.region_map_flrw(n, axis1, axis2) if flrw
          else bounds.region_map_model(n, alpha, axis1, axis2))
    assert text == reference_map_csv(rm)
    for a, p, label, best in map_cells(rm):
        params = params_of(a)
        assert label is bounds.classify(params, p), (a, p)
        assert repr(best) == repr(bounds.best_exponent(params, p)), (a, p)


NAN2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]  # a NaN of another payload
INF = math.inf


def hand_map(best, codes):
    """A RegionMap of the given exponents and label codes on unit-step axes."""
    best = np.array(best, dtype=float)
    codes = np.array(codes, dtype=np.int8)
    rows, cols = best.shape
    return bounds.RegionMap(
        bounds.AxisSpec("mu", 0.0, rows - 1.0, 1.0), bounds.AxisSpec("p", 1.5, cols + 0.5, 1.0),
        codes, best, [2.0] * rows, [3.0] * rows,
    )


@pytest.mark.parametrize("best, codes", [
    # columns: 0.0 above -0.0, NaN above NaN (two payloads), +inf above -inf,
    # a constant whose label changes, a constant throughout
    ([[0.0, math.nan, INF, 2.5, 1.25],
      [-0.0, NAN2, -INF, 2.5, 1.25],
      [-0.0, -math.nan, -INF, 2.5, 1.25],
      [0.0, 0.75, INF, 2.5, 1.25]],
     [[0, 4, 1, 1, 2], [0, 4, 1, 2, 2], [1, 4, 1, 3, 2], [1, 0, 1, 3, 2]]),
    # one row
    ([[0.0, -0.0, math.nan, INF, -INF]], [[0, 1, 2, 3, 4]]),
    # one column
    ([[-0.0], [0.0], [0.0], [math.nan], [-INF], [-INF]], [[0], [0], [1], [4], [2], [2]]),
], ids=["grid", "one-row", "one-column"])
def test_map_csv_reuses_text_only_on_equal_bits(best, codes):
    rm = hand_map(best, codes)
    assert "".join(_map_csv(rm)) == reference_map_csv(rm)


def test_map_fine_p_step_keeps_the_stop(tmp_path):
    # 2.0000001 - 2 rounds below 1e-7, which once dropped the stop column
    out = tmp_path / "m"
    argv = ["map", "--axis2_start", "2", "--axis2_stop", "2.0000001", "--axis2_step", "1e-7"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = (out / "map.csv").read_text().splitlines()
    assert len(lines) == 1 + 301 * 2
    assert {line.split(",")[1] for line in lines[1:]} == {"2.0", "2.0000001"}


def test_map_axis_whose_rounded_values_repeat_exits_2(tmp_path, capsys):
    # a step of 1e-13 under 12-decimal rounding gave 1,001 mu rows, 101 distinct
    out = tmp_path / "m"
    argv = ["map", "--axis1_start", "0", "--axis1_stop", "1e-10", "--axis1_step", "1e-13"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "repeats values" in capsys.readouterr().err
    assert not out.exists()


def refuse_axis_values(axis):
    raise AssertionError("an axis list was built")


def test_map_over_cell_budget_exits_2_before_building_an_axis(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bounds.AxisSpec, "values", refuse_axis_values)
    assert main(["map", "--axis1_step", "1e-9", "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "3000000001 x 300 = 900000000300 cells" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--rel_tol", "1e-300", "--abs_tol", "1e-300"],
                                  ["--rel_tol", "2.2e-14"],
                                  # at or above 1 a step may err by the solution's size
                                  ["--rel_tol", "1"],
                                  ["--rel_tol", "1e300"]])
def test_ode_rel_tol_below_floor_exits_2(tmp_path, capsys, argv):
    assert main(["ode", "run", *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rel_tol must be at least") and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


# sha256 of the preset maps as first recorded; the closed-form layer and the
# emitters must keep these bytes.
MAP_SHA256 = {
    "fig1": {
        "map.csv": "7aded50f7b93553b7caaf95e827f1fcc357d6282dd5fe17fb5101fc372e44296",
        "map.svg": "ed704363bb1b49f4eafa42af7536f3bdffd47924df5b65bf78d1b6db52d4a28b",
    },
    "fig2": {
        "map.csv": "8f7cf23fa18d5a669b66519a82973735fcc69a327527861f83648cc1d96720c3",
        "map.svg": "767912298598c42e1994a76fcc86286b64f9a49dfe0efc41f967ae581c0500c1",
    },
}


@pytest.mark.parametrize("preset", sorted(MAP_SHA256))
def test_map_preset_bytes_pinned(tmp_path, preset):
    assert main(["map", "--preset", preset, "--out", str(tmp_path)]) == 0
    for name, want in MAP_SHA256[preset].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


MAP_GRID = ("--axis1_start 0 --axis1_stop 1 --axis1_step 0.5 "
            "--axis2_start 1.5 --axis2_stop 3 --axis2_step 0.5").split()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_map_plane_follows_alpha(tmp_path, capsys, where):
    # a free alpha draws the (mu, p) plane, so fig2 given one is fig1's plane
    given = ["--alpha", "0.6"]
    if where == "config":
        given = ["--config", write_config(tmp_path, {"alpha": 0.6})]
    fig2, fig1 = tmp_path / "fig2", tmp_path / "fig1"
    assert main(["map", "--preset", "fig2", *given, *MAP_GRID, "--out", str(fig2)]) == 0
    assert main(["map", "--preset", "fig1", "--n", "3", *MAP_GRID, "--out", str(fig1)]) == 0
    for name in ("map.csv", "map.svg"):
        assert (fig2 / name).read_bytes() == (fig1 / name).read_bytes()
    # fig2's w axis starts at -0.33, which is no mu
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["map", "--preset", "fig2", "--alpha", "0.9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_kato_threshold_value(tmp_path):
    out = tmp_path / "k"
    assert main(
        [
            "kato", "threshold", "--p", "2", "--a", "2", "--b", "3",
            "--q", "1", "--A0", "0.01", "--out", str(out),
        ]
    ) == 0
    payload = read_json(out / "kato_threshold.json")
    assert payload["threshold"] == pytest.approx(10.0, rel=1e-12)
    assert payload["M"] == pytest.approx(2.0)
    assert payload["normalized"] is False


def test_kato_sequences_closed_form(tmp_path):
    out = tmp_path / "k"
    assert main(
        [
            "kato", "sequences", "--p", "2", "--b", "1", "--mu", "0.5",
            "--jmax", "20", "--out", str(out),
        ]
    ) == 0
    lines = (out / "kato_sequences.csv").read_text().splitlines()
    assert lines[0] == "j,b_j,log_C_j,a_j"
    assert len(lines) == 22
    for line in lines[1:]:
        j, b_j = line.split(",")[:2]
        assert float(b_j) == 3.0 * 2.0 ** int(j) - 2.0


def test_kato_rejects_p_one(tmp_path):
    assert main(
        ["kato", "sequences", "--p", "1", "--b", "1", "--out", str(tmp_path)]
    ) == 2


def test_kato_envelope_report(tmp_path):
    out = tmp_path / "k"
    assert main(
        ["kato", "envelope", "--p", "2", "--b", "1", "--mu", "2", "--out", str(out)]
    ) == 0
    payload = read_json(out / "kato_envelope.json")
    assert payload["t_star"] is not None
    assert payload["a0_exponent"] == pytest.approx(-0.5)


def test_kato_sequences_over_state_budget_exits_2(tmp_path, capsys):
    # near p = 1 the iteration would build ~7e8 states before it truncates
    for jmax in (kato.MAX_STATES, 10**9):
        out = tmp_path / str(jmax)
        started = time.perf_counter()
        argv = ["kato", "sequences", "--p", "1.000001", "--jmax", str(jmax), "--out", str(out)]
        assert main(argv) == 2
        assert time.perf_counter() - started < 1.0
        assert "j_max" in capsys.readouterr().err
        assert not out.exists()
    # the largest jmax allowed still runs; at p = 2 it truncates near j = 1,000
    out = tmp_path / "cap"
    argv = ["kato", "sequences", "--jmax", str(kato.MAX_STATES - 1), "--out", str(out)]
    assert main(argv) == 0
    assert read_json(out / "kato_sequences.json")["truncated"] is True


# One change of each kato key that must show in the command's summary; mu
# crosses 1, where the iteration changes branch.
KATO_PERTURBATIONS = {
    "p": 3.0, "a": 0.5, "b": 2.0, "q": 0.5, "mu": 2.0, "A0": 0.5, "A1": 2.0,
    "CR": 2.0, "T1": 3.0, "jmax": 10, "delta": 0.5, "horizon": 1e6,
}


@pytest.mark.parametrize(
    "leaf, key",
    [(leaf, key) for leaf in LEAVES if leaf.name.startswith("kato") for key in leaf.keys],
    ids=lambda item: item if isinstance(item, str) else item.name.replace(" ", "-"),
)
def test_every_kato_key_reaches_the_summary(leaf, key):
    # a key no result reads is an option with no effect
    assert key in KATO_PERTURBATIONS, f"{leaf.name}: no perturbation shows what {key} does"
    base, _ = leaf.handler(dict(leaf.keys))
    changed, _ = leaf.handler({**leaf.keys, key: KATO_PERTURBATIONS[key]})
    assert artifacts.clean_for_json(changed) != artifacts.clean_for_json(base)


def test_ode_run_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(
        ["ode", "run", "--p", "2", "--mu", "0", "--q", "0", "--R", "0",
         "--eps", "1", "--out", str(out)]
    ) == 0
    payload = read_json(out / "ode_result.json")
    assert payload["blew_up"] is True
    assert payload["monotone_invariant"] is True
    trace = (out / "ode_trace.csv").read_text().splitlines()
    assert trace[0] == "t,F,dF"
    assert len(trace) == payload["steps"] + 1


def test_ode_run_horizon_exit_code(tmp_path):
    out = tmp_path / "o"
    assert main(["ode", "run", "--eps", "0", "--out", str(out)]) == 3
    assert read_json(out / "ode_result.json")["termination"] == "horizon"


def test_ode_sweep_horizon_exit_code(tmp_path):
    assert main(
        [
            "ode", "sweep", "--p", "1.8", "--mu", "2", "--q", "0.8",
            "--t_max", "5.0", "--eps_start", "0.001", "--eps_stop", "0.01",
            "--eps_count", "4", "--out", str(tmp_path),
        ]
    ) == 3


def test_ode_sweep_custom_grid(tmp_path):
    out = tmp_path / "o"
    assert main(
        [
            "ode", "sweep", "--p", "1.8", "--mu", "2", "--q", "0.8",
            "--eps_start", "0.02", "--eps_stop", "0.1", "--eps_count", "4",
            "--out", str(out),
        ]
    ) == 0
    payload = read_json(out / "ode_fit.json")
    assert payload["predicted_slope"] == pytest.approx(-2.0 / 3.0)
    assert payload["relative_deviation"] < 0.2
    sweep_lines = (out / "ode_sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "eps,T_num"
    assert len(sweep_lines) == 5


def test_pde_run_with_config_file_and_snapshots(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "dr": 0.02,
                "eps": 0.5,
                "t_max": 50.0,
                "snapshot_times": [1.0, 2.0],
            }
        )
    )
    out = tmp_path / "p"
    assert main(["pde", "run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = read_json(out / "pde_result.json")
    assert payload["blew_up"] is True
    assert payload["checks"] == {"support": True, "holder": True, "f_monotone": True}
    assert (out / "snapshot_00.csv").exists()
    assert (out / "snapshot_01.csv").exists()
    header = (out / "pde_diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,sup_abs_u,F,lp_integral,support_radius"


def test_pde_flag_overrides_config_and_horizon_exit(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dr": 0.02, "eps": 0.5, "t_max": 1.5}))
    out = tmp_path / "p"
    # horizon termination is a runtime failure at the CLI level, but the
    # artifacts are still written with the resolved (overridden) config
    assert main(
        ["pde", "run", "--config", str(cfg), "--t_max", "2.5", "--out", str(out)]
    ) == 3
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["t_max"] == 2.5
    assert read_json(out / "pde_result.json")["termination"] == "horizon"


# data below the threshold (sup u(1) = eps) whose |u|^3 overflows in the first step
PDE_OVERFLOW_RUN = ["pde", "run", "--eps", "1e200", "--p", "3", "--dr", "0.05", "--t_max", "2",
                    "--blowup_threshold", "1e300"]


def test_pde_overflow_is_a_failed_run(tmp_path, capsys):
    # exit 3, no blow-up claimed, and the NaN nonlinear mass fails the Hoelder check
    out = tmp_path / "p"
    assert main(PDE_OVERFLOW_RUN + ["--out", str(out)]) == 3
    payload = read_json(out / "pde_result.json")
    assert payload["termination"] == "overflow" and payload["blew_up"] is False
    assert payload["checks"] == {"support": True, "holder": False, "f_monotone": True}
    assert "runtime failure: run ended by overflow" in capsys.readouterr().err


def test_pde_overflow_prints_one_stderr_line(tmp_path):
    # no numpy RuntimeWarning (with its install path) precedes the failure line
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", "from flrwave.cli import entrypoint; entrypoint()",
         *PDE_OVERFLOW_RUN, "--out", str(tmp_path / "p")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert done.stderr == "runtime failure: run ended by overflow\n"


def test_ode_power_past_the_float_range_is_a_failed_run(tmp_path, capsys):
    # Python's ** raises OverflowError for |F|^p past the float range; the
    # step reads it as inf, collapses at once and ends by solver_failure
    out = tmp_path / "o"
    assert main(["ode", "run", "--p", "1e300", "--out", str(out)]) == 3
    assert read_json(out / "ode_result.json")["termination"] == "solver_failure"
    assert capsys.readouterr().err == "runtime failure: run ended by solver_failure\n"


def test_ode_at_p_4_blows_up_below_the_default_threshold(tmp_path):
    # the step collapses at F ~ 6.2e8, short of the 1e9 that counts as near
    # the default threshold 1e12, so the run fails; a threshold of 1e8 is
    # crossed at the same instant
    assert main(["ode", "run", "--p", "4", "--out", str(tmp_path / "a")]) == 3
    collapse = read_json(tmp_path / "a" / "ode_result.json")
    assert collapse["termination"] == "solver_failure"
    argv = ["ode", "run", "--p", "4", "--blowup_threshold", "1e8", "--out", str(tmp_path / "b")]
    assert main(argv) == 0
    crossing = read_json(tmp_path / "b" / "ode_result.json")
    assert crossing["termination"] == "threshold"
    assert crossing["T_num"] == pytest.approx(collapse["T_num"], rel=1e-9, abs=0.0)


def test_pde_sweep_of_overflows_is_not_fitted(tmp_path, capsys):
    # every row overflows at t = 1.0225; they once gave a fit of slope ~0
    out = tmp_path / "p"
    argv = ["pde", "sweep", "--eps_start", "1e150", "--eps_stop", "1e200", "--p", "3",
            "--dr", "0.05", "--t_max", "3", "--blowup_threshold", "1e300"]
    assert main(argv + ["--out", str(out)]) == 3
    eps = [1e150, 1e160, 1e170, 1e180, 1e190, 1e200]
    assert capsys.readouterr().err == (
        f"runtime failure: no blow-up before t_max=3.0: eps={eps} ended by overflow\n"
    )
    assert not out.exists()


def test_pde_run_refuses_n_above_five(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["pde", "run", "--n", "6", "--out", str(out)]) == 2
    assert "n <= 5" in capsys.readouterr().err
    assert not out.exists()


# cfl at or past the stencil's stability limit (pde.CFL_LIMITS); each of these
# once exited 0 with a threshold "blow-up" that is not there, at T = 4.34,
# 8.63, 1.83 and 3.56
PDE_CFL_PROBE = ["pde", "run", "--dr", "0.02", "--eps", "0.05", "--t_max", "60"]


@pytest.mark.parametrize("n, cfl", [("2", "0.92"), ("3", "0.83"), ("4", "0.8"), ("5", "0.70")])
def test_pde_run_refuses_an_unstable_cfl(tmp_path, capsys, n, cfl):
    out = tmp_path / "p"
    assert main(PDE_CFL_PROBE + ["--n", n, "--cfl", cfl, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cfl must lie in (0, ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_pde_run_below_the_cfl_limit_reaches_the_horizon(tmp_path):
    out = tmp_path / "p"
    assert main(PDE_CFL_PROBE + ["--n", "3", "--cfl", "0.8", "--out", str(out)]) == 3
    assert read_json(out / "pde_result.json")["termination"] == "horizon"


@pytest.mark.parametrize(
    "argv",
    [["pde", "run", "--eps", "2e8"],
     ["pde", "sweep", "--eps_start", "0.5", "--eps_stop", "1e8", "--eps_count", "4"]],
)
def test_pde_refuses_data_at_the_threshold(tmp_path, capsys, argv):
    # sup u(1) = eps; a sweep is refused for its largest eps, not its first
    out = tmp_path / "p"
    assert main(argv + ["--dr", "0.05", "--t_max", "2", "--out", str(out)]) == 2
    assert "blow-up threshold must exceed the initial data" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(["ode", "run", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert main(["pde", "run", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_preset_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["map", "--preset", "fig3", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_out_env_var(tmp_path, monkeypatch):
    # --out alone names the output directory, so a set FLRWAVE_OUT changes nothing
    monkeypatch.setenv("FLRWAVE_OUT", str(tmp_path / "env_out"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["exponents", "--n", "2", "--alpha", "0.6", "--mu", "2", "--p", "2"]) == 0
    assert sorted(os.listdir(cwd)) == ["exponents.json", "manifest.json"]
    assert not (tmp_path / "env_out").exists()


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_strings_read_as_flag_types(tmp_path):
    cfg = write_config(
        tmp_path,
        {"axis1_stop": "1", "axis1_step": "0.5", "axis2_start": "1.5", "axis2_stop": "2"},
    )
    out = tmp_path / "m"
    assert main(["map", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["config"]["axis1_step"] == 0.5
    cfg = write_config(tmp_path, {"p": "2"})
    assert main(["kato", "threshold", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    assert main(["kato", "sequences", "--config", cfg, "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["map"], {"axis1_step": "fine"}),
        (["exponents"], {"n": 2.5}),
        (["exponents"], {"p": [2]}),
        (["kato", "threshold"], {"p": True}),
        (["kato", "sequences"], {"jmax": "many"}),
        (["ode", "run"], {"p": "two"}),
        # no key is boolean, so a JSON boolean fits none
        (["exponents"], {"w": True}),
        (["exponents"], {"n": False}),
        # null only where the default is null
        (["exponents"], {"n": None}),
        (["pde", "run"], {"dr": None}),
        (["kato", "sequences"], {"jmax": None}),
        (["map"], {"alpha": None}),
        # preset takes one of the command's preset names
        (["map"], {"preset": "nope"}),
        (["map"], {"preset": 2}),
        (["ode", "sweep"], {"preset": ["critical-n2"]}),
        # snapshot_times is a list of finite numbers
        (["pde", "run"], {"snapshot_times": 2.0}),
        (["pde", "run"], {"snapshot_times": ["soon"]}),
        (["pde", "run"], {"snapshot_times": [1.0, float("nan")]}),
    ],
)
def test_uncoercible_config_value_exits_2(tmp_path, argv, payload, capsys):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert "config key" in capsys.readouterr().err
    assert not out.exists()


def test_null_config_values_where_the_default_is_null(tmp_path):
    cfg = write_config(tmp_path, {"w": None, "p": None})
    assert main(["exponents", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    config = read_json(tmp_path / "e" / "manifest.json")["config"]
    assert config["w"] is None and config["p"] is None
    assert "flrw" not in read_json(tmp_path / "e" / "exponents.json")  # the model point
    cfg = write_config(tmp_path, {"preset": None, "axis1_step": 1, "axis2_step": 1})
    assert main(["map", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    cfg = write_config(tmp_path, {"dr": 0.05, "snapshot_times": [2, 3.5]})
    assert main(["pde", "run", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    config = read_json(tmp_path / "p" / "manifest.json")["config"]
    # snapshot times are read as floats, so [2, 3.5] resolves as [2.0, 3.5]
    assert [type(t) for t in config["snapshot_times"]] == [float, float]


@pytest.mark.parametrize(
    "argv, preset",
    [(["ode", "sweep"], "critical-n2"), (["map"], "fig2")],
)
def test_config_file_preset_applies_as_the_flag(tmp_path, argv, preset):
    assert main(argv + ["--preset", preset, "--out", str(tmp_path / "flag")]) == 0
    cfg = write_config(tmp_path, {"preset": preset})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "file")]) == 0
    for name in os.listdir(tmp_path / "flag"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_config_file_preset_below_file_values_and_flags(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig2", "axis1_step": 0.4})
    argv = ["map", "--config", cfg, "--axis2_step", "0.5", "--out", str(tmp_path)]
    assert main(argv) == 0
    config = read_json(tmp_path / "manifest.json")["config"]
    assert (config["n"], config["alpha"]) == (3, None)
    assert (config["axis1_step"], config["axis2_step"]) == (0.4, 0.5)


def test_config_and_flags_give_equal_digests(tmp_path):
    flags = ["exponents", "--n", "2", "--alpha", "0.6", "--mu", "2", "--p", "2"]
    assert main(flags + ["--out", str(tmp_path / "f")]) == 0
    cfg = write_config(tmp_path, {"n": 2.0, "alpha": 0.6, "mu": 2, "p": 2})
    assert main(["exponents", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    digests = [read_json(tmp_path / d / "manifest.json")["config_digest"] for d in "fc"]
    assert digests[0] == digests[1]
    assert (tmp_path / "f" / "exponents.json").read_bytes() == (
        tmp_path / "c" / "exponents.json"
    ).read_bytes()


def exit_code(argv):
    """``main``'s exit code, including argparse's rejections (SystemExit)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--p", "inf"],
        ["pde", "run", "--p", "nan"],
        ["pde", "run", "--eps", "nan"],
        ["pde", "run", "--t_max", "nan"],
        ["pde", "run", "--t_max", "inf"],
        ["ode", "run", "--p", "nan"],
    ],
)
def test_non_finite_flag_exits_2(tmp_path, argv):
    assert exit_code(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_config_value_exits_2(tmp_path, value):
    cfg = write_config(tmp_path, {"t_max": value})
    assert main(["pde", "run", "--config", cfg, "--out", str(tmp_path / "p")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pde", "run", "--dr", "1e-9"],
        # 59,006 cells a row fit the budget; 400 rows of them do not
        ["pde", "sweep", "--dr", "0.001", "--eps_count", "400"],
    ],
)
def test_pde_grid_over_budget_exits_2(tmp_path, argv, capsys):
    assert main(argv + ["--out", str(tmp_path / "p")]) == 2
    assert "grid budget" in capsys.readouterr().err
    assert not (tmp_path / "p" / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # a first step below half the float spacing at t_max: time would stop
        ["pde", "run", "--t_max", "1.00000000000001", "--cfl", "1e-13", "--dr", "0.001"],
        ["kato", "threshold", "--p", "0.5"],
        # w below its range 2/n - 1 < w <= 1, at n = 3
        ["exponents", "--w", "-0.5"],
        # a free alpha reads fig2's w axis, from -0.33, as mu
        ["map", "--preset", "fig2", "--alpha", "0.9"],
    ],
)
def test_refused_run_creates_no_output_directory(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "new_dir")]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kato", "sequences", "--CR", "0"], "support constant C_R must be positive"),
        (["kato", "envelope", "--CR", "-1"], "support constant C_R must be positive"),
        (["kato", "envelope", "--delta", "0"], "divergence margin must be positive"),
        (["map", "--config", "CONFIG"], "must contain a JSON object"),
    ],
)
def test_refusal_prints_one_error_line(tmp_path, capsys, argv, message):
    config = write_config(tmp_path, [1.0, 2.0])  # a JSON array, not an object
    argv = [config if word == "CONFIG" else word for word in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and message in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, budget",
    # t = 1 to 2 in samples of 1e-12, or steps of 1e-12 * 0.05: 1e12 samples,
    # or 2e13 steps
    [("--sample_dt", "sample budget"), ("--cfl", "step budget")],
)
def test_pde_run_over_step_or_sample_budget_exits_2(tmp_path, flag, budget, capsys):
    argv = ["pde", "run", flag, "1e-12", "--t_max", "2", "--dr", "0.05"]
    assert main(argv + ["--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert budget in err and "Traceback" not in err
    assert not (tmp_path / "p" / "manifest.json").exists()


def test_pde_run_over_snapshot_budget_exits_2(tmp_path, capsys):
    # each snapshot time is one file and one profile copy in memory
    times = [1.0 + 2.0 * i / 1025 for i in range(1025)]
    config = write_config(tmp_path, {"snapshot_times": times})
    out = tmp_path / "p"
    argv = ["pde", "run", "--config", config, "--dr", "0.05", "--t_max", "3", "--out", str(out)]
    assert main(argv) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "snapshot budget" in stderr
    assert not out.exists()


COLD_START = """
import json, sys
import flrwave, flrwave.cli
from flrwave.cli import main

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

stages = {"import": scipy_loaded()}
stages["map"] = (main(["map", "--preset", "fig1", "--out", "m"]), scipy_loaded())
stages["pde"] = (main(["pde", "run", "--dr", "0.05", "--out", "p"]), scipy_loaded())
stages["ode"] = (main(["ode", "run", "--out", "o"]), scipy_loaded())
print(json.dumps(stages))
"""


def test_no_command_loads_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages == {"import": False, "map": [0, False], "pde": [0, False], "ode": [0, False]}


def test_no_module_imports_scipy():
    package = Path(__file__).resolve().parents[1] / "src" / "flrwave"
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def collapsing_far_from_blowup(cfg):
    """A ``_dopri45`` stand-in whose step collapses after one step, far from
    blow-up."""
    F0 = cfg.eps * cfg.F_init_scale
    return "collapse", [(1.0, F0, cfg.eps * cfg.dF_init_scale), (1.5, F0, 0.0)]


def test_ode_solver_failure_is_a_runtime_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(blowup_ode, "_dopri45", collapsing_far_from_blowup)
    out = tmp_path / "o"
    assert main(["ode", "run", "--out", str(out)]) == 3
    payload = read_json(out / "ode_result.json")
    assert payload["termination"] == "solver_failure" and payload["blew_up"] is False
    assert main(["ode", "sweep", "--preset", "heatlike-n2", "--out", str(tmp_path / "s")]) == 3


@pytest.mark.parametrize("command", ["pde", "ode"])
def test_sweep_with_too_few_eps_exits_2(tmp_path, command, capsys):
    # the log-log fit needs 4 points, and a sweep runs at most
    # MAX_SWEEP_POINTS; other counts are refused before the grid is built
    over = blowup_ode.MAX_SWEEP_POINTS + 1
    for count in ("0", "3", str(over), "1000000000"):
        out = tmp_path / count
        assert main([command, "sweep", "--eps_count", count, "--out", str(out)]) == 2
        assert "eps_count" in capsys.readouterr().err
        assert not out.exists()
    # 4 points of one value: once refused by the fit only after the pde batch
    # had run (2.1 s)
    out = tmp_path / "one"
    started = time.perf_counter()
    argv = [command, "sweep", "--eps_start", "0.05", "--eps_stop", "0.05", "--eps_count", "4"]
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == "error: duplicate eps values make the fit degenerate\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pde", "ode"])
@pytest.mark.parametrize("end", [["--eps_start", "-1"], ["--eps_start", "0"], ["--eps_stop", "0"]])
def test_sweep_with_an_eps_end_not_positive_exits_2(tmp_path, capsys, command, end):
    # refused before numpy sees the grid: no RuntimeWarning, no numpy message
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "sweep", *end, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps_start and eps_stop must be positive")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def cli_flags(ints="", floats="", **other):
    """The flags of one leaf command: name -> type name or its sorted choices."""
    flags = {"--config": "str", "--out": "str", **{f"--{k}": v for k, v in other.items()}}
    flags.update({f"--{k}": "int" for k in ints.split()})
    flags.update({f"--{k}": "finite_float" for k in floats.split()})
    return flags


ODE_FLOATS = "p mu q A1 R F_init_scale dF_init_scale blowup_threshold t_max rel_tol abs_tol"
PDE_FLOATS = "alpha mu p R dr cfl blowup_threshold t_max sample_dt"

# the flags of every leaf command as first recorded; the three kato rows were
# re-recorded when the inputs that reach no result were dropped, and the
# exponents and pde rows when --flrw and --domain_margin went, the pde
# rows again when --dt_cap became the constant pde.DT_CAP, and the map row
# when --mode went (alpha picks the plane)
CLI_SCHEMA = {
    "exponents": cli_flags("n", "alpha mu w p"),
    "map": cli_flags(
        "n", "alpha axis1_start axis1_stop axis1_step axis2_start axis2_stop axis2_step",
        preset=["fig1", "fig2"],
    ),
    "kato threshold": cli_flags(floats="p a b q A0"),
    "kato sequences": cli_flags("jmax", "p b mu A0 A1 CR"),
    "kato envelope": cli_flags(floats="p b mu A0 A1 CR T1 delta horizon"),
    "ode run": cli_flags(floats="eps " + ODE_FLOATS),
    "ode sweep": cli_flags(
        "eps_count", "eps_start eps_stop " + ODE_FLOATS, preset=["critical-n2", "heatlike-n2"]
    ),
    "pde run": cli_flags("n", "eps " + PDE_FLOATS),
    "pde sweep": cli_flags("n eps_count", "eps_start eps_stop " + PDE_FLOATS),
}


def parser_leaves(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
        return
    for name, sub in subs[0].choices.items():
        yield from parser_leaves(sub, prefix + (name,))


def flag_kind(action):
    if action.choices is not None:
        return sorted(action.choices)
    return action.type.__name__ if action.type else "str"


def test_parser_schema_pinned():
    schema = {
        name: {
            a.option_strings[0]: flag_kind(a)
            for a in leaf._actions
            if a.option_strings and a.dest != "help"
        }
        for name, leaf in parser_leaves(build_parser())
    }
    assert schema == CLI_SCHEMA


# config_digest of flag-only and preset invocations as first recorded: the
# schema must resolve each to the same config.  The kato digests were
# re-recorded when their inert keys left the config, the exponents and pde
# digests when the flrw and domain_margin keys did, the pde digests again
# when the dt_cap key did, and the map digests when the mode key did.
CONFIG_DIGESTS = {
    "exponents": "a5f64729af9ddcd7303b9f598f54d965204b0a890f83dc67b41ae67e5b1ba4c3",
    "map --axis1_step 0.5 --axis2_step 0.5":
        "b959b170adf2067bf8ce8a5721451d3105a77ed30bd5df20b71c0e03edac0dde",
    "map --preset fig1": "fa352a06962ada0c21ea75505a0070a75e17bf72a474a7491142e6dbe883f3d9",
    "map --preset fig2": "9a81b65801a25f4afe608260e1e4dd8a3e59c4a58cacae1eeeb42d4c9fbae0df",
    "kato threshold": "49bfecb8d0913f0e3f3718633e951b6e72e6358b9695a229cefcee4bc7e27f7f",
    "kato sequences": "7c0628ff1a6f245c8258a74c035a45c06d205f7723f7f02ff8f9ae5c5a85f42f",
    "kato envelope": "3645018b65f51e9cbed1465386c66871da80534b5c5cbfb97de4cb34213742b2",
    "ode run": "544e6f834fe1644b0913470a9aa85c96b159af55cb4028230cdfacd4ec5f9e13",
    "ode sweep --preset heatlike-n2":
        "f30b2c9f0306c3549921f4d157ddcd66a51c2aa860e1829c80d7840d042714d0",
    "ode sweep --preset critical-n2":
        "7b28929a77924dedeae5a642decfea7a8859aa6433ec7308ff70ff87706a2ff5",
    "pde run --dr 0.05": "a4c19c6a4cc21746d324a9d59948c7b71323ab4ce7a3cbabbb1ba7bee035510d",
    "pde sweep --dr 0.05 --eps_start 0.3":
        "a84f00cffc97af9b5df0702b112de47c9c8e515ca17060639b2216a65d29c27c",
}


@pytest.mark.parametrize("command", sorted(CONFIG_DIGESTS))
def test_config_digest_pinned(tmp_path, command):
    assert main(command.split() + ["--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "manifest.json")["config_digest"] == CONFIG_DIGESTS[command]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_flag_from_an_earlier_call(tmp_path):
    # eps 0.3 reaches the horizon (exit 3) and still writes its manifest
    assert main(["pde", "run", "--dr", "0.05", "--eps", "0.3", "--out", str(tmp_path / "a")]) == 3
    assert read_json(tmp_path / "a" / "manifest.json")["config"]["eps"] == 0.3
    assert main(["pde", "run", "--dr", "0.05", "--out", str(tmp_path / "b")]) == 0
    digest = read_json(tmp_path / "b" / "manifest.json")["config_digest"]
    assert digest == CONFIG_DIGESTS["pde run --dr 0.05"]


def test_reused_parser_survives_a_usage_error(tmp_path):
    assert exit_code(["map", "--preset", "fig3", "--out", str(tmp_path / "a")]) == 2
    assert main(["kato", "sequences", "--out", str(tmp_path / "b")]) == 0
    digest = read_json(tmp_path / "b" / "manifest.json")["config_digest"]
    assert digest == CONFIG_DIGESTS["kato sequences"]


@pytest.mark.parametrize("argv", [[], ["map"], ["pde", "run"]], ids=["flrwave", "map", "pde run"])
def test_help_is_the_same_on_every_call(capsys, argv):
    texts = []
    for _ in range(2):
        assert exit_code([*argv, "--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: flrwave")


# A pde run config that asks for profile dumps.
SNAPSHOT_CONFIG = {"snapshot_times": [1.0, 2.0, 5.5]}


def run_digests(tmp_path, capsys, command):
    """Exit code, sha256 of stdout and stderr, and sha256 of every file that
    ``command`` writes (``CONFIG`` names a file holding SNAPSHOT_CONFIG)."""
    config = write_config(tmp_path, SNAPSHOT_CONFIG)
    out = tmp_path / "out"
    argv = [config if word == "CONFIG" else word for word in command.split()]
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    stdout, stderr = capsys.readouterr()
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": hashlib.sha256(stderr.encode()).hexdigest(),
        **{f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    }


# Every artifact, the summary, the error line and the exit code of cheap
# invocations of every command, as first recorded: one per leaf, plus a
# failed run (exit 3) and a stalled sweep of each integrator, sweeps on both
# sides of q = 2, and the Kato branch with mu > 1.  The "ode run" and the two
# successful "ode sweep" entries were re-recorded when the in-house
# Dormand-Prince integrator replaced scipy's: the same steps and endings,
# lifespans within 3e-15 relative.  The kato entries' stdout and manifest.json
# were re-recorded when their inert keys left the config (a new config
# digest), and so were the exponents and pde entries' when the flrw and
# domain_margin keys left, the pde entries' again when the dt_cap key
# left, and the map entry's when the mode key left; their artifacts kept
# their bytes.  "exponents
# --w 0.3" writes the exponents.json that "exponents --flrw --w 0.3" wrote.
# The two "exponents --n 2 ... --p" entries replaced the classify command's
# when exponents took over its report: their params, p, label,
# best_exponent and bounds are those of classify.json at the same point.
# "exponents --p 1.5" re-recorded its exponents.json and stdout then, for
# the label and best exponent they gained; its manifest kept its bytes.
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
ARTIFACT_SHA256 = {
    "exponents": {
        "exit": 0,
        "stdout": "a37ad55ad9035aec2ebb67f6f6f3a5c054f56ba266536d9a8bb7e1f909940803",
        "stderr": EMPTY_SHA256,
        "exponents.json": "dab98134aa1c22523a8be64761e552223498edd90b5892584418659315b70dbb",
        "manifest.json": "8ea61a19cee564b15bea580d5779578c4b0e6b5c391d12f6aa103786be86ddbb",
    },
    "exponents --w 0.3": {
        "exit": 0,
        "stdout": "0023979a8acc7658885510e533b6e584e6e74967250778260d4b73a7998906dc",
        "stderr": EMPTY_SHA256,
        "exponents.json": "ee6507822a9036528dbdc7cd83604e7d26326d0a07039737cd5188b7f0d312f6",
        "manifest.json": "0ad889e83c712e9b4f762525bc4cc780e3ebf804df75fed3857d4c611cf00c2c",
    },
    "exponents --p 1.5": {
        "exit": 0,
        "stdout": "b2fd56b6963539322e3ec85a9ef93dda353507f6380f9d13129e3b01295357aa",
        "stderr": EMPTY_SHA256,
        "exponents.json": "62a60d8278406a17b7469d0570a6e7f834995778536e17c2e01b73086cb7b71d",
        "manifest.json": "03b14fc1a02a3ac9f9ba365df84bc4a1bd8f143182cfba9ae7936c527dcdde05",
    },
    "exponents --n 2 --p 2": {
        "exit": 0,
        "stdout": "9766a75f921141c4a407f830666e31ec49faf888084956308c037006978b4a68",
        "stderr": EMPTY_SHA256,
        "exponents.json": "f9778778dcfa013ab3387cd15fa36ef072b44c8e89e83054ac263abd33caad07",
        "manifest.json": "3323da6fbe9729baab935fcbf7e5274ef915c46ee827754d9c89e950b6a19222",
    },
    "exponents --n 2 --alpha 0.5 --p 3": {
        "exit": 0,
        "stdout": "b2d45babd23c2502cec52f6b64edfe722c1d536036e0c4d7f3c57e26ec844286",
        "stderr": EMPTY_SHA256,
        "exponents.json": "c586f024b84db71c4ba3e2a03b904e3ffe4b8f48e55a1e2fa2fe9eee9805b329",
        "manifest.json": "909230a8ad02c96a495dc220adb0962611e358f811c1f3c8d1531e30174bf7e4",
    },
    "map --axis1_step 0.5 --axis2_start 1.5 --axis2_step 0.5": {
        "exit": 0,
        "stdout": "5de311f1fc0897db30ff666df388e78b8dad8b6ee89f0d239b5e7695524f4a37",
        "stderr": EMPTY_SHA256,
        "manifest.json": "9620f5782cd49910d903c5a4ba9c13e1d6bde9d46c2a900554ed5bd5924a22c3",
        "map.csv": "7f4df5aa021b01be39a4e8fd50ad93b6ededecfac38744ed8591fa138ecbd724",
        "map.svg": "91917cf65c7588934f99f3c1cb7b4c80b1f008680814d2cd402409e5c38d2a62",
    },
    "kato threshold": {
        "exit": 0,
        "stdout": "dca84ad32804fee0d4df25f31e0325328954597fe8385a8b63dcb2c5e1621828",
        "stderr": EMPTY_SHA256,
        "kato_threshold.json": "97690b5f2db0280a3507bee4e0d68aac2dde1778076c7aebc22e0b2395fd8a61",
        "manifest.json": "78a9faa16b811b993835b62e67c41a1f09df003bcde16391d42b6b1c98de8a7f",
    },
    "kato sequences": {
        "exit": 0,
        "stdout": "a4653b187510295e4c6e40378b0aba6dbb2de05472322b17d5a4ba46cb202803",
        "stderr": EMPTY_SHA256,
        "kato_sequences.csv": "481a556cdcce4f94fef6ec18840f13f91ba9d3417c9aabc82ed269e635161c9a",
        "kato_sequences.json": "f0f012dec6344cee9b1eeb736da46dcaadcb4d9f1965a8cfe36c8b41984f9259",
        "manifest.json": "5fbc08459f5a565661636a20c56e0020afd71c0dab9c41e1ec4be9e801336736",
    },
    "kato sequences --mu 2": {
        "exit": 0,
        "stdout": "acd2d2b990797ffcfcd0145984ac19b9fc26740df2657ed2ed69e28be4efe57d",
        "stderr": EMPTY_SHA256,
        "kato_sequences.csv": "22de0fd49b09670d11c5a201286fbe3cfecaf8f7dad0efd9877e60b869a55e8c",
        "kato_sequences.json": "c12c95e8e3672d9b3ab41c976374b8db5485e36b08cf9aaeb4fca8ee187f1ba4",
        "manifest.json": "d1d1bbde794ee52a71d334de53330b770f6a0713ad27eeec9faed2fea3cca450",
    },
    "kato envelope": {
        "exit": 0,
        "stdout": "d321cb88b0039fa1f612be1f968bb7ac6df71970f513f93cb2d7f81d79fa621d",
        "stderr": EMPTY_SHA256,
        "kato_envelope.json": "fc402747cf696a99561499fd207cc840eb3851ef80519950368554a9d6dd6d8e",
        "manifest.json": "c318e967cfe84312cb7a05af8b4e72b445893dc9bc836c30643a4212229e9fc9",
    },
    "kato envelope --mu 2": {
        "exit": 0,
        "stdout": "14d371a05a6f872061d01c5c7e082208072d8fde85329331998794615d923657",
        "stderr": EMPTY_SHA256,
        "kato_envelope.json": "62bdada490b5b216210da6eaca43ac6a91d4b3cb39abf3d1fa48e1282507d676",
        "manifest.json": "b5b3cc85e259c4a32bed91a248955f1976b2a65873c860d7a4e663886cf1c791",
    },
    # valid inputs whose B, ln(A1 C_R), threshold or p^j leaves the float
    # range; each once exited 2 or 3 with a bare math message.  B underflows
    # to 0.0 and E stays finite; an overflowed threshold is written as null.
    "kato sequences --b 1e200": {
        "exit": 0,
        "stdout": "5e81c954fe58db2b72d87807e8d2111e697e287ccd323cb70025eb09c7a6814c",
        "stderr": EMPTY_SHA256,
        "kato_sequences.csv": "78fdf7638af765c95d255ea5f21d56bd79837a78340ab37f5632c6d34004e845",
        "kato_sequences.json": "9e75390c476eff86d23001ed0e191d00a379e200b739f4042fe49b63dbce5ec0",
        "manifest.json": "408e07ac4a58b17a7aacf16d59deb8f991546ede36f7ceb69399d9b148d569fe",
    },
    "kato envelope --b 1e200": {
        "exit": 0,
        "stdout": "2062bb3286f40a5160b34bad33a2ca41b08db4a661f6c152fa874b2a08c6582c",
        "stderr": EMPTY_SHA256,
        "kato_envelope.json": "892a4b78ef3b64237061c5acf3a526d1793c900979fec79c2b458c02b6c791f3",
        "manifest.json": "9858442e800843be120f826f9cc22614724afd229059ea4a2adafb02daaff17c",
    },
    "kato sequences --A1 1e-200 --CR 1e-200": {
        "exit": 0,
        "stdout": "d6126a8e7ee32f9696d87d669ac37d8ce8bff9da38417b0f3e9b0a17b29f3921",
        "stderr": EMPTY_SHA256,
        "kato_sequences.csv": "95435e543e9fc90fd4538d062a4c3f4cadd681703474a80443bfe05e2483615c",
        "kato_sequences.json": "83cb50451827c693042c4322ccadf348e11e07dbf6388dac17039dc5c09dc180",
        "manifest.json": "927327425ace191ea7ce7a1710661412a6442d3b26d9740848a4abd1b91b72fd",
    },
    "kato envelope --A0 1e-30": {
        "exit": 0,
        "stdout": "c0028fa81dbf7323c4c5dfecc7fd333ea208ec46ebfbcb3c23bd3f172d8f7de2",
        "stderr": EMPTY_SHA256,
        "kato_envelope.json": "e00472964e137f20f9d1cd941d916b8a437d1ceeef32f8e6a406bb564ef1f03e",
        "manifest.json": "3cef21e6f5b07f0fd312c8dc1b69f756e0d5863853429886643f6e27a416fbcc",
    },
    "kato threshold --p 2 --a 0 --b 0.01 --q 1.995 --A0 1e-300": {
        "exit": 0,
        "stdout": "2ae08bad9561d14b79705483657d9aab4539ece239bb65ef54334a6a2e94b2ff",
        "stderr": EMPTY_SHA256,
        "kato_threshold.json": "344407b136d13931a001f7b1cf656b35d8a35cfe1fc4d1d5138a3881f25329cb",
        "manifest.json": "7c8bc363dc492eb596a126736624c87b88aa74ef38cb91df2377a4d2e17871e5",
    },
    "kato sequences --p 1000 --b 0.001 --jmax 200": {
        "exit": 0,
        "stdout": "8b517af60d355cd260df7d74936c753bebfd09f808717b662856ca34a74e1a4e",
        "stderr": EMPTY_SHA256,
        "kato_sequences.csv": "8257d65878083b7d4222aebe502917b1e76fd924a15e2d582275dc794c04bbbf",
        "kato_sequences.json": "46baf5ae15ef91c6fab9d541b4b59863754424e217ee07c097585a42e8504f55",
        "manifest.json": "43a34f98abf9a33218567ff3ffc5a830c349e8aae6d40a6a14434a1242eebc5e",
    },
    "ode run": {
        "exit": 0,
        "stdout": "f623373c1831b4aed30ff46dbb0b1a5a3fe20698ec13062b7382340ccf219ee6",
        "stderr": EMPTY_SHA256,
        "manifest.json": "9c7682b4d6cd24aeea8a0a7a8eba70a179ef4354fecfeedb25b5b6267d81353c",
        "ode_result.json": "fed2273b342d9e51307f27ccd67f915702cff5fcc1b2297b4cd75f10d8332bbc",
        "ode_trace.csv": "8b3ac9aa3331fb43a335e926d5c8fe0ae166a0046dd99e71e34c668a25f74322",
    },
    "ode run --eps 0 --t_max 10": {
        "exit": 3,
        "stdout": "e62fb32ce07b0ff7b814467a3b2c3f20ebd0f291e9ac72ac3a82d382948633a8",
        "stderr": "2394a506f380ebacdcb851c95786835ecc561fde7947819467cad89f117b91c9",
        "manifest.json": "8392d2e7e622d5ac82ad8ba7626964bea7822a2ad56516b4447d6c4a3db22009",
        "ode_result.json": "86037e05d66d9e063603652a797de7a665d6521cbbb9d541e18dac58c1a0e7bb",
        "ode_trace.csv": "691e53431190fc63ce4a8988813ea36a92ffa1d0d6767b08f2fbc1a1b7ffada0",
    },
    "ode sweep --preset critical-n2": {
        "exit": 0,
        "stdout": "9ce8385a4b83f39d1fcbe91defbc20c62c9f33f0ccf505f5d4816a6f24461d10",
        "stderr": EMPTY_SHA256,
        "manifest.json": "7a539c7beae9992d228005ab7974276c9b1960c527d98474e8b04fa5dd12196d",
        "ode_fit.json": "f31a72b106296bdac71ae3fd16c4701a0fc5e3284e0a119d0a0673f2970e385b",
        "ode_sweep.csv": "c72670b27d5852a89d3f8ea3ff9675b8af6685321c4c03e6e963139905f558f9",
    },
    "ode sweep --eps_start 0.05 --eps_stop 0.1 --eps_count 4": {
        "exit": 0,
        "stdout": "4f50966c77097868775fbc919148a41aa0e01839657846cf9d926781e0a312de",
        "stderr": EMPTY_SHA256,
        "manifest.json": "6acf8c782220956a5e84d90c96cf076ceaad15bb04a40665074f7f473bbe95e5",
        "ode_fit.json": "98d461b7cd6283715def16222946a319aedf398054ec946979bc096c06d899ec",
        "ode_sweep.csv": "9235fa21728f8b47da3a85066d40f723c9e5251686a8537863a96f25f9ac387a",
    },
    "ode sweep --t_max 5 --eps_start 0.001 --eps_stop 0.01 --eps_count 4": {
        "exit": 3,
        "stdout": EMPTY_SHA256,
        "stderr": "1dc57346cdd301b94408122297c3e5e3093d90cdb5a130936103f80d674a44bb",
    },
    "pde run --dr 0.02 --config CONFIG": {
        "exit": 0,
        "stdout": "a6b89a936d2f2adbe1b7299c24e998a25687c3675e186693c06fc7a1d81b211e",
        "stderr": EMPTY_SHA256,
        "manifest.json": "7c66fafb4fae642b267eaa5c444a950a606defe509262a3b03182aab0186b0f0",
        "pde_diagnostics.csv": "fabb73108f8352399ce7bfe0fd9a53338d5915dc178866563423416f4198a35a",
        "pde_result.json": "30466860c3b969e1179041f1e0da366382933faffe64f4bb564f65a14f6b656b",
        "snapshot_00.csv": "9c5cf37e9ad527732f805bb930646ca5bafec67319638674bfbb22221cc1bdb6",
        "snapshot_01.csv": "05728b46f61300b9897866792d9304312362188b832d004054463c6f2641b7b0",
        "snapshot_02.csv": "650c44dadbaf02cc42551dc3db5d7d02be11ef6fe973a549c1fa1c64384d2cbb",
    },
    "pde sweep --dr 0.02 --t_max 300 --eps_start 0.1": {
        "exit": 0,
        "stdout": "7e16473344f9d96a6fb925e611a0bf7ab82c9258d3365e42301f70fb4c467f7d",
        "stderr": EMPTY_SHA256,
        "manifest.json": "612d1c004367167244d0c344f91a39139d1c607f31c1f96fedd5bc5fb023e766",
        "pde_fit.json": "2380eef9e233ec1f3e8f38792ebc758630c98e577a0502cdeb497eef49d67e71",
        "pde_sweep.csv": "2a5edf3574ffc42c822bbb5240d4ccd36c34a40cb6e91b64642a44556ada737e",
    },
    "pde sweep --dr 0.05 --t_max 60 --alpha 0 --eps_start 2 --eps_stop 8": {
        "exit": 0,
        "stdout": "306c3c8da2c7570276d0ea54eaae30dd1097a6385a31f4a337cd99110585219f",
        "stderr": EMPTY_SHA256,
        "manifest.json": "8a70d5cda040197327c3761b83529895c4b1a3bb1f4c6cd4a12e3909fd91be9c",
        "pde_fit.json": "2170088272891c58eedf5e26067269f46aff392dc45aa09fa392c6004f914433",
        "pde_sweep.csv": "64e5ad5fb4246573f5b5287f87e933b07613d5dab8a3222d3f5952acd14d64d3",
    },
    "pde sweep --dr 0.05 --t_max 20": {
        "exit": 3,
        "stdout": EMPTY_SHA256,
        "stderr": "a304521f30f1479afcf5336f2044d7e7c4deedb2005df92b1eec8713d00b0c90",
    },
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_pinned(tmp_path, capsys, command):
    assert run_digests(tmp_path, capsys, command) == ARTIFACT_SHA256[command]


# cheap overrides of the leaves whose defaults take long
CHEAP = {
    "exponents": {"p": 2.0},
    "map": {"axis1_step": 0.5, "axis2_step": 0.5},
    "ode sweep": {"eps_start": 0.05, "eps_stop": 0.1, "eps_count": 4},
    "pde run": {"dr": 0.05, "snapshot_times": [2.0]},
    "pde sweep": {"dr": 0.05, "eps_start": 0.3},
}


def refuse_writes(*args, **kwargs):
    raise AssertionError("a handler wrote an artifact")


@pytest.mark.parametrize("leaf", LEAVES, ids=lambda leaf: leaf.name)
def test_handlers_are_pure_and_main_writes_their_files(tmp_path, monkeypatch, capsys, leaf):
    overrides = CHEAP.get(leaf.name, {})
    config = write_config(tmp_path, overrides)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with monkeypatch.context() as patch:
        for name in ("write_text", "write_csv", "write_json", "write_files", "write_manifest"):
            patch.setattr(artifacts, name, refuse_writes)
        payload, files = leaf.handler({**leaf.keys, **overrides})
    assert not any(cwd.iterdir())

    capsys.readouterr()
    assert main(leaf.name.split() + ["--config", config, "--out", "out"]) == 0
    assert sorted(os.listdir("out")) == sorted([*files, "manifest.json"])
    summary = json.loads(capsys.readouterr().out)
    assert summary.pop("config_digest") == read_json("out/manifest.json")["config_digest"]
    assert summary == artifacts.clean_for_json(payload)


def test_map_axis_stops_at_its_stop(tmp_path):
    # the w axis -0.33..1.0 at step 0.5 used to reach w = 1.17 and exit 2
    argv = ["map", "--preset", "fig2", "--axis1_step", "0.5", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / "map.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ["-0.33", "0.17", "0.67"]


def test_closed_stdout_exits_3_without_traceback(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from flrwave.cli import entrypoint; entrypoint()",
             "exponents", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr.splitlines() == ["runtime failure: stdout was closed"]
    assert (tmp_path / "exponents.json").exists()
