"""Command-line front end: wire configs to the library and emit deterministic
CSV/JSON/SVG artifacts plus a manifest per invocation.

Each command's config keys are the fields of the library dataclasses it
builds, plus a few of its own that only say which runs to make or how far to
go; every flag, default and config-file type comes from that one table.  A
command resolves its configuration as defaults < preset < config file <
flags, where a config file may name a ``preset`` just as ``--preset`` does.
A config-file value is read by the type of its key's default: an integer (or
integral float) for an integer key, a finite number for a float key, one of
the command's presets for ``preset``, and a list of finite numbers for
``snapshot_times``; ``null`` only where the default is null.  Preset values
are taken as they stand.  The resolved config is echoed into manifest.json
(keyed by a content digest), and identical resolved configs give
byte-identical outputs.

Each command's handler is pure: it maps the resolved config to its stdout
payload and its files, an ordered ``{name: content}`` dict.  ``main`` alone
writes: once the handler has returned, it creates the output directory and
writes the files and then manifest.json, so a refused run (exit 2), or one
whose handler failed (exit 3), leaves nothing behind.

Exit codes: 0 success, 2 invalid configuration or parameters, 3 runtime
failure: a run whose ``blew_up`` is false (it reached the horizon, its ODE
solver failed, or its PDE field overflowed; the artifacts are written), a
sweep with such a run, a closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import Callable, NamedTuple

import numpy as np

from flrwave import artifacts, blowup_ode, bounds, kato, pde
from flrwave.exponents import (
    FlrwParams,
    ModelParams,
    flrw_to_model,
    fujita,
    gamma_quadratic,
    gamma0_quadratic,
    mu_star,
    p_c,
    strauss_exponent,
    w_star,
)


# ---------------------------------------------------------------------------
# config plumbing

class Leaf(NamedTuple):
    """One command: ``handler(resolved) -> (payload, files)`` and its config
    keys with their defaults; ``presets`` maps each name the ``preset`` key
    takes to the values it sets.  A handler writes nothing: ``files`` maps
    each artifact's name to its content, which ``main`` writes (see
    ``artifacts.write_files``)."""

    name: str
    help: str
    handler: Callable
    keys: dict
    presets: dict = {}


def _keys(*classes, drop=(), **defaults) -> dict:
    """The fields of ``classes`` with their defaults, less ``drop``;
    ``defaults`` adds a command's own keys and sets each default that a field
    lacks or that the command changes."""
    keys = {f.name: f.default for cls in classes for f in fields(cls) if f.name not in drop}
    return {**keys, **defaults}


def _build(cls, resolved: dict, **extra):
    """A library object from its fields in ``resolved``; ``extra`` sets the
    rest.  A field missing from both keeps its dataclass default."""
    values = {f.name: resolved[f.name] for f in fields(cls) if f.name in resolved}
    return cls(**{**values, **extra})


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return loaded


def finite_float(text: str) -> float:
    """The type of every float flag and config value: NaN and infinities are
    invalid input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_KINDS = {int: "an integer", tuple: "a list of finite numbers"}


def _coerce(key: str, value, default, choices):
    """Read a config-file value as its key's flag would read the same text,
    by the type of the key's default (see the module docstring)."""
    if value is None and default is None:
        return None
    try:
        if choices is not None:
            if isinstance(value, str) and value in choices:
                return value
        elif isinstance(default, tuple):
            if isinstance(value, list):
                return tuple(finite_float(str(v)) for v in value)
        elif isinstance(default, int):
            integral = isinstance(value, float) and value.is_integer()
            return int(str(int(value) if integral else value))
        else:
            return finite_float(str(value))
    except ValueError:
        pass
    if choices is not None:
        expected = f"one of {list(choices)}"
    else:
        expected = _KINDS.get(type(default), "a finite number")
    raise ValueError(f"config key {key!r}: {value!r} is not {expected}")


def _resolve(leaf: Leaf, config: dict, ns: argparse.Namespace) -> dict:
    """defaults < preset < config file < explicitly passed flags.

    Config values are read by their key's type, so a run resolves (and
    hashes) the same whether set by flag or by config file; a preset named
    by either applies its values as defaults.
    """
    unknown = set(config) - set(leaf.keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    presets = {"preset": leaf.presets}
    config = {k: _coerce(k, v, leaf.keys[k], presets.get(k)) for k, v in config.items()}
    flags = {k: getattr(ns, k) for k in leaf.keys if getattr(ns, k, None) is not None}
    preset = flags.get("preset", config.get("preset"))
    values = leaf.presets[preset] if preset is not None else {}
    return {**leaf.keys, **values, **config, **flags}


# ---------------------------------------------------------------------------
# exponents

def _cmd_exponents(r):
    if r["w"] is not None and (r["alpha"] != 0.0 or r["mu"] != 0.0):
        raise ValueError(
            f"w sets alpha and mu: give w={r['w']} or alpha={r['alpha']} and mu={r['mu']}, "
            "not both"
        )
    f = _build(FlrwParams, r) if r["w"] is not None else None
    params = _build(ModelParams, r) if f is None else flrw_to_model(f)

    pc = p_c(params)
    payload = {
        "params": asdict(params),
        "fujita_effective": fujita(params.effective_dim),
        "strauss": strauss_exponent(params.n),
        "gamma_coefficients": astuple(gamma_quadratic(params)),
        "p_c": pc.root,
        "p_c_note": pc.note,
        "mu_star": mu_star(params.n, params.alpha),
        "thresholds": {
            "intermediate_wavelike": bounds.intermediate_wavelike_threshold(params),
            "heatlike_wavelike": bounds.heatlike_wavelike_threshold(params),
        },
    }
    if f is not None:
        payload["flrw"] = {
            "w": f.w,
            "w_star": w_star(f.n),
            "gamma0_coefficients": astuple(gamma0_quadratic(f.n, f.w)),
        }
    p = r["p"]
    if p is not None:
        payload["p"] = p
        payload["label"] = bounds.classify(params, p)
        payload["best_exponent"] = bounds.best_exponent(params, p)
        payload["bounds"] = list(map(asdict, bounds.all_bounds(params, p)))
    return payload, {"exponents.json": payload}


# ---------------------------------------------------------------------------
# map

MAP_PRESETS = {
    "fig1": {
        "n": 2,
        "alpha": 0.6,
        "axis1_start": 0.0,
        "axis1_stop": 3.0,
        "axis1_step": 0.01,
        "axis2_start": 1.01,
        "axis2_stop": 4.0,
        "axis2_step": 0.01,
    },
    "fig2": {
        "n": 3,
        "alpha": None,
        "axis1_start": -0.33,
        "axis1_stop": 1.0,
        "axis1_step": 0.005,
        "axis2_start": 1.005,
        "axis2_stop": 3.0,
        "axis2_step": 0.005,
    },
}


def _map_csv(rm: bounds.RegionMap):
    """map.csv as lazy text blocks: the header line, then one block per axis1
    row, built by one join.

    The ``axis2,label,`` lead of every (column, label) pair is formatted once
    a map, each axis1 value once a row.  The best exponents (``repr``, as
    ``artifacts.fmt`` would) are kept as one text row: row i formats only
    the cells whose float bits differ from row i-1 and reuses the text
    above for the rest.  A heatlike bound does not depend on mu, so down a
    p column of a (mu, p) map many cells repeat.  Comparing bits, not
    values, keeps 0.0 apart from -0.0."""
    v2 = [repr(b) for b in rm.axis2.values()]
    leads = np.array([[f"{b},{label.value}," for b in v2] for label in bounds.LABELS], dtype=object)
    columns = np.arange(rm.best.shape[1])
    texts = np.empty(columns.size, dtype=object)
    bits = rm.best.view(np.int64)
    above = ~bits[0]  # every bit differs, so the first row formats every cell
    yield "axis1,axis2,label,best_exponent\n"
    for a, codes, row, best in zip(rm.axis1.values(), rm.codes, bits, rm.best):
        changed = row != above
        texts[changed] = list(map(repr, best[changed].tolist()))
        above = row
        a = repr(a) + ","
        cells = map(operator.add, leads[codes, columns].tolist(), texts.tolist())
        yield a + ("\n" + a).join(cells) + "\n"


def _cmd_map(r):
    n = r["n"]
    p_axis = bounds.AxisSpec("p", r["axis2_start"], r["axis2_stop"], r["axis2_step"])
    if r["alpha"] is not None:  # else fig2's (w, p) plane, where w sets alpha
        axis1 = bounds.AxisSpec("mu", r["axis1_start"], r["axis1_stop"], r["axis1_step"])
        rm = bounds.region_map_model(n, r["alpha"], axis1, p_axis)
        title = f"blow-up regions: n={n}, alpha={r['alpha']}"
    else:
        axis1 = bounds.AxisSpec("w", r["axis1_start"], r["axis1_stop"], r["axis1_step"])
        rm = bounds.region_map_flrw(n, axis1, p_axis)
        title = f"blow-up regions (cosmological parameters): n={n}"

    payload = {"label_counts": rm.label_counts(), "cells": rm.codes.size}
    return payload, {"map.csv": _map_csv(rm), "map.svg": artifacts.region_map_svg(rm, title)}


# ---------------------------------------------------------------------------
# kato

def _cmd_kato_threshold(r):
    kp = _build(kato.KatoSubcriticalParams, r)
    payload = {"M": kp.M, **kato.subcritical_threshold(kp)._asdict(), "normalized": False}
    return payload, {"kato_threshold.json": payload}


def _cmd_kato_sequences(r):
    kc = _build(kato.KatoCriticalParams, r)
    seqs = kato.iterate_sequences(kc, r["jmax"])
    B, E = kato.envelope_constants(kc)
    payload = {
        "mu_case": kc.mu_case,
        "B": B,
        "E": E,
        "envelope_onset_j": kato.detect_envelope_onset(seqs),
        "truncated": seqs.truncated,
        "states": len(seqs.states),
    }
    return payload, {
        "kato_sequences.csv": (["j", "b_j", "log_C_j", "a_j"], map(astuple, seqs.states)),
        "kato_sequences.json": payload,
    }


def _cmd_kato_envelope(r):
    kc = _build(kato.KatoCriticalParams, r)
    rep = kato.envelope_divergence(kc, delta=r["delta"], horizon=r["horizon"])
    payload = {**asdict(rep), **kato.critical_threshold(kc)._asdict()}
    return payload, {"kato_envelope.json": payload}


# ---------------------------------------------------------------------------
# ode, and the eps sweeps of ode and pde

def _eps_grid(resolved: dict) -> np.ndarray:
    """The geometric eps grid of a sweep, refused before it is allocated when an
    end is not positive or ``eps_count`` lies outside the range of points the
    sweep takes; the sweep's ``blowup_ode.sweep_eps`` refuses repeated values."""
    start, stop, count = resolved["eps_start"], resolved["eps_stop"], resolved["eps_count"]
    if not (start > 0.0 and stop > 0.0):
        raise ValueError(f"eps_start and eps_stop must be positive, got {start} and {stop}")
    low, high = blowup_ode.MIN_FIT_POINTS, blowup_ode.MAX_SWEEP_POINTS
    if not low <= count <= high:
        raise ValueError(f"eps_count must be between {low} and {high}, got {count}")
    return np.geomspace(start, stop, count)


def _sweep(kind: str, fit: blowup_ode.FitResult, predicted: float | None, **extra):
    """The payload and files of an ``ode`` or ``pde`` sweep: the fit, its runs'
    eps and T_num, ``extra``, the ``predicted`` slope and the fit's relative
    deviation from it, both null where no power law is predicted (None)."""
    deviation = None if predicted is None else abs(fit.slope - predicted) / abs(predicted)
    eps, T = fit.eps_values, fit.T_values
    payload = {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared,
               "eps_values": eps, "T_values": T, "predicted_slope": predicted,
               "relative_deviation": deviation, **extra}
    return payload, {f"{kind}_sweep.csv": (["eps", "T_num"], zip(eps, T)),
                     f"{kind}_fit.json": payload}


# n=2, alpha=0.5, mu=2 wiring: q = n(1-alpha)(p-1)
_HEATLIKE_N2 = {"p": 1.8, "mu": 2.0, "q": 0.8}

ODE_PRESETS = {
    "heatlike-n2": {**_HEATLIKE_N2, "eps_start": 1e-3, "eps_stop": 1e-1, "eps_count": 8},
    # n=2, alpha=0, mu=2 at the critical power p = 2: q = 2
    "critical-n2": {
        "p": 2.0, "mu": 2.0, "q": 2.0, "t_max": 1e8,
        "eps_start": 0.3, "eps_stop": 1.2, "eps_count": 6,
    },
}


def _cmd_ode_run(r):
    res = blowup_ode.integrate(_build(blowup_ode.OdeConfig, r))
    payload = {
        "blew_up": res.blew_up,
        "T_num": res.T_num,
        "termination": res.termination,
        "steps": int(res.t.size),
        "monotone_invariant": blowup_ode.monotone_invariant_check(res),
    }
    return payload, {
        "ode_trace.csv": (["t", "F", "dF"], zip(res.t.tolist(), res.F.tolist(), res.dF.tolist())),
        "ode_result.json": payload,
    }


def _cmd_ode_sweep(r):
    eps_grid = _eps_grid(r)
    fit = blowup_ode.sweep(_build(blowup_ode.OdeConfig, r, eps=float(eps_grid[0])), eps_grid)
    if r["q"] < 2.0:
        ok, margins = blowup_ode.kato_consistency_check(fit.runs)
        return _sweep("ode", fit, blowup_ode.predicted_slope(r["p"], r["q"]), kato_envelope_ok=ok,
                      kato_envelope_min_margin=min(margins))
    margin = blowup_ode.convexity_margin(fit.runs)
    return _sweep("ode", fit, None, log_lifespan_convexity_margin=margin)


# ---------------------------------------------------------------------------
# pde

def _cmd_pde_run(r):
    cfg = _build(pde.PdeConfig, r, params=_build(ModelParams, r))
    res = pde.run(cfg)
    header = ["t", "sup_abs_u", "F", "lp_integral", "support_radius"]
    series = (res.t_samples, res.sup_series, res.F_series, res.lp_series, res.support_series)
    files = {"pde_diagnostics.csv": (header, zip(*(column.tolist() for column in series)))}
    for idx, (_, u) in enumerate(res.snapshots):
        radius = cfg.dr * np.arange(u.size)
        files[f"snapshot_{idx:02d}.csv"] = (["r", "u"], zip(radius.tolist(), u.tolist()))
    payload = {
        "blew_up": res.blew_up,
        "T_num": res.T_num,
        "termination": res.termination,
        "samples": int(res.t_samples.size),
        "snapshot_times": [t for t, _ in res.snapshots],
        "checks": {
            "support": pde.support_check(res),
            "holder": pde.holder_check(res),
            "f_monotone": pde.f_monotone_check(res),
        },
    }
    files["pde_result.json"] = payload
    return payload, files


def _cmd_pde_sweep(r):
    eps_grid = _eps_grid(r)
    cfg = _build(pde.PdeConfig, r, params=_build(ModelParams, r), eps=float(eps_grid[0]))
    fit = pde.lifespan_sweep(cfg, eps_grid)
    exponent = bounds.heatlike_exponent(cfg.params, cfg.p)  # None at or past Fujita's p
    return _sweep("pde", fit, None if exponent is None else -exponent)


# ---------------------------------------------------------------------------
# the command table and its parser

_KATO_CRITICAL = {"p": 2.0, "b": 1.0, "mu": 0.0, "A0": 1.0}
_PDE_MODEL = {"n": 2, "alpha": 0.5, "mu": 2.0, "p": 2.0}

LEAVES = (
    Leaf(
        "exponents", "exponent report; w: cosmological; p: bounds, label", _cmd_exponents,
        _keys(ModelParams, FlrwParams, n=3, alpha=0.0, mu=0.0, w=None, p=None),
    ),
    Leaf(
        "map", "region-map CSV + SVG", _cmd_map,
        {"preset": None, **MAP_PRESETS["fig1"]},
        MAP_PRESETS,
    ),
    Leaf(
        "kato threshold", "subcritical threshold", _cmd_kato_threshold,
        _keys(kato.KatoSubcriticalParams, p=2.0, a=0.0, b=1.0, q=1.0, A0=1.0),
    ),
    Leaf(
        "kato sequences", "critical iteration table", _cmd_kato_sequences,
        _keys(kato.KatoCriticalParams, drop=("T1",), jmax=20, **_KATO_CRITICAL),
    ),
    Leaf(
        "kato envelope", "envelope divergence report", _cmd_kato_envelope,
        _keys(kato.KatoCriticalParams, delta=1e-3, horizon=1e12, **_KATO_CRITICAL),
    ),
    Leaf(
        "ode run", "single blow-up run", _cmd_ode_run,
        _keys(blowup_ode.OdeConfig, **_HEATLIKE_N2),
    ),
    Leaf(
        "ode sweep", "eps sweep + log-log fit", _cmd_ode_sweep,
        _keys(blowup_ode.OdeConfig, drop=("eps",), preset=None, **ODE_PRESETS["heatlike-n2"]),
        ODE_PRESETS,
    ),
    Leaf(
        "pde run", "single radial run", _cmd_pde_run,
        _keys(ModelParams, pde.PdeConfig, drop=("params",), eps=0.5, **_PDE_MODEL),
    ),
    Leaf(
        "pde sweep", "eps sweep + log-log fit", _cmd_pde_sweep,
        _keys(
            ModelParams, pde.PdeConfig, drop=("params", "eps", "sample_dt", "snapshot_times"),
            t_max=900.0, eps_start=0.05, eps_stop=0.8, eps_count=6, **_PDE_MODEL,
        ),
    ),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subcommand per leaf, one flag per config key typed by its default:
    an int an int, a float or null a finite float, ``preset`` one of the
    leaf's presets; a tuple (``snapshot_times``) is config-only.  ``--help``
    shows the module docstring's first paragraph and lists the commands from
    ``LEAVES``: a group's help is its leaf names joined by `` | ``.

    In-process use: the parser is built on the first call and that same
    object is returned on every later one, so callers of ``main`` pay for
    the whole command tree once per process.  Callers must not mutate it."""
    parser = argparse.ArgumentParser(prog="flrwave", description=__doc__.split("\n\n")[0])
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for leaf in LEAVES:
        group, _, name = leaf.name.rpartition(" ")
        if group not in groups:
            leaves = (other.name.rpartition(" ") for other in LEAVES)
            gp = groups[""].add_parser(group, help=" | ".join(n for g, _, n in leaves if g == group))
            groups[group] = gp.add_subparsers(dest=f"{group}_cmd", required=True)
        sp = groups[group].add_parser(name, help=leaf.help)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--out", help="output directory (default .)")
        for key, default in leaf.keys.items():
            if key == "preset":
                sp.add_argument("--preset", choices=list(leaf.presets))
            elif isinstance(default, int):
                sp.add_argument(f"--{key}", type=int)
            elif default is None or isinstance(default, float):
                sp.add_argument(f"--{key}", type=finite_float)
        sp.set_defaults(leaf=leaf)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    leaf, outdir = ns.leaf, ns.out or "."
    try:
        resolved = _resolve(leaf, _load_config(ns.config), ns)
        payload, files = leaf.handler(resolved)
        artifacts.write_files(outdir, files)
        digest = artifacts.write_manifest(outdir, leaf.name, resolved, [*files, "manifest.json"])
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    payload = artifacts.clean_for_json({**payload, "config_digest": digest})
    print(json.dumps(payload, sort_keys=True, indent=2))
    if payload.get("blew_up") is False:
        print(f"runtime failure: run ended by {payload['termination']}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    """``main`` as a process; a closed stdout is a runtime failure, and stdout
    then goes to the null device so that the flush at shutdown succeeds."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("runtime failure: stdout was closed", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
