"""Command-line front end: wire configs to the library and emit deterministic
CSV/JSON/SVG artifacts plus a manifest per invocation.

Commands
    exponents   closed-form exponent report for one parameter point
    classify    region label and all bounds at one (params, p) point
    map         region-map CSV + SVG (presets: fig1, fig2)
    kato        threshold | sequences | envelope
    ode         run | sweep  (sweep presets: heatlike-n2, critical-n2)
    pde         run | sweep

Every command resolves its configuration as defaults < config file < flags,
echoes the resolved config into manifest.json (keyed by a content digest),
and writes byte-identical outputs for identical resolved configs.

Exit codes: 0 success, 2 invalid configuration or parameters, 3 runtime
failure (no blow-up before the horizon, ODE solver failure, preset assertion
failure, overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import repeat

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

OUT_ENV_VAR = "FLRWAVE_OUT"


# ---------------------------------------------------------------------------
# config plumbing

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


def _coerce(key: str, value, kind):
    """Read a config-file value as its flag would read the same text; an
    integral float is accepted for an integer key."""
    if value is None:
        return None
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return kind(str(value))
    except ValueError:
        raise ValueError(
            f"config key {key!r}: {value!r} is not a valid {kind.__name__}"
        ) from None


def _resolve(defaults: dict, config: dict, ns: argparse.Namespace) -> dict:
    """defaults < config file < explicitly passed flags.

    Config values of typed flags are coerced to the flag's type, so a run
    resolves (and hashes) the same whether set by flag or by config file.
    """
    resolved = dict(defaults)
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    types = getattr(ns, "flag_types", {})
    for key, value in config.items():
        resolved[key] = _coerce(key, value, types[key]) if key in types else value
    for key in defaults:
        value = getattr(ns, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _outdir(ns: argparse.Namespace) -> str:
    out = ns.out or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(outdir: str, command: str, resolved: dict, files: list, payload: dict) -> None:
    digest = artifacts.write_manifest(outdir, command, resolved, files + ["manifest.json"])
    payload = dict(payload)
    payload["config_digest"] = digest
    print(json.dumps(artifacts.clean_for_json(payload), sort_keys=True, indent=2))


def _bound_dicts(params: ModelParams, p: float) -> list:
    return [
        {
            "kind": b.kind.value,
            "form": b.form.value,
            "eps_exponent": b.eps_exponent,
            "applicable": b.applicable,
        }
        for b in bounds.all_bounds(params, p)
    ]


# ---------------------------------------------------------------------------
# exponents

def _cmd_exponents(ns) -> int:
    defaults = {"n": 3, "alpha": 0.0, "mu": 0.0, "flrw": False, "w": None, "p": None}
    resolved = _resolve(defaults, _load_config(ns.config), ns)
    if resolved["flrw"]:
        if resolved["w"] is None:
            raise ValueError("--flrw mode requires --w")
        f = FlrwParams(int(resolved["n"]), float(resolved["w"]))
        params = flrw_to_model(f)
    else:
        params = ModelParams(int(resolved["n"]), float(resolved["alpha"]), float(resolved["mu"]))

    gq = gamma_quadratic(params)
    pc = p_c(params)
    payload = {
        "params": {"n": params.n, "alpha": params.alpha, "mu": params.mu},
        "fujita_effective": fujita(params.effective_dim),
        "strauss": strauss_exponent(params.n),
        "gamma_coefficients": [gq.c2, gq.c1, gq.c0],
        "p_c": pc.root,
        "p_c_note": pc.note.value,
        "mu_star": mu_star(params.n, params.alpha),
        "thresholds": {
            "intermediate_wavelike": bounds.intermediate_wavelike_threshold(params),
            "heatlike_wavelike": bounds.heatlike_wavelike_threshold(params),
        },
    }
    if resolved["flrw"]:
        g0 = gamma0_quadratic(f.n, f.w)
        payload["flrw"] = {
            "w": f.w,
            "w_star": w_star(f.n),
            "gamma0_coefficients": [g0.c2, g0.c1, g0.c0],
        }
    if resolved["p"] is not None:
        p = float(resolved["p"])
        payload["p"] = p
        payload["bounds"] = _bound_dicts(params, p)

    outdir = _outdir(ns)
    artifacts.write_json(os.path.join(outdir, "exponents.json"), payload)
    _emit(outdir, "exponents", resolved, ["exponents.json"], payload)
    return 0


# ---------------------------------------------------------------------------
# classify

def _cmd_classify(ns) -> int:
    defaults = {"n": 2, "alpha": 0.0, "mu": 0.0, "p": 2.0}
    resolved = _resolve(defaults, _load_config(ns.config), ns)
    params = ModelParams(int(resolved["n"]), float(resolved["alpha"]), float(resolved["mu"]))
    p = float(resolved["p"])
    payload = {
        "params": {"n": params.n, "alpha": params.alpha, "mu": params.mu},
        "p": p,
        "label": bounds.classify(params, p).value,
        "best_exponent": bounds.best_exponent(params, p),
        "bounds": _bound_dicts(params, p),
    }
    outdir = _outdir(ns)
    artifacts.write_json(os.path.join(outdir, "classify.json"), payload)
    _emit(outdir, "classify", resolved, ["classify.json"], payload)
    return 0


# ---------------------------------------------------------------------------
# map

MAP_PRESETS = {
    "fig1": {
        "mode": "model",
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
        "mode": "flrw",
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


def _map_csv_rows(rm: bounds.RegionMap):
    """The cells of ``rm`` as rows of ready-made CSV fields: each axis value
    and label name is formatted once, each best exponent once per cell."""
    v2 = [repr(b) for b in rm.axis2.values()]
    names = [label.value for label in bounds.LABELS]
    for a, codes, best in zip(rm.axis1.values(), rm.codes.tolist(), rm.best):
        yield from zip(repeat(repr(a)), v2, map(names.__getitem__, codes), map(repr, best))


def _cmd_map(ns) -> int:
    defaults = {
        "preset": None,
        "mode": "model",
        "n": 2,
        "alpha": 0.6,
        "axis1_start": 0.0,
        "axis1_stop": 3.0,
        "axis1_step": 0.01,
        "axis2_start": 1.01,
        "axis2_stop": 4.0,
        "axis2_step": 0.01,
    }
    config = _load_config(ns.config)
    if ns.preset is not None:
        if ns.preset not in MAP_PRESETS:
            raise ValueError(f"unknown map preset {ns.preset!r}")
        config = {**MAP_PRESETS[ns.preset], **config, "preset": ns.preset}
    resolved = _resolve(defaults, config, ns)

    n = int(resolved["n"])
    p_axis = bounds.AxisSpec(
        "p", resolved["axis2_start"], resolved["axis2_stop"], resolved["axis2_step"]
    )
    if resolved["mode"] == "model":
        axis1 = bounds.AxisSpec(
            "mu", resolved["axis1_start"], resolved["axis1_stop"], resolved["axis1_step"]
        )
        rm = bounds.region_map_model(n, float(resolved["alpha"]), axis1, p_axis)
        title = f"blow-up regions: n={n}, alpha={resolved['alpha']}"
    elif resolved["mode"] == "flrw":
        axis1 = bounds.AxisSpec(
            "w", resolved["axis1_start"], resolved["axis1_stop"], resolved["axis1_step"]
        )
        rm = bounds.region_map_flrw(n, axis1, p_axis)
        title = f"blow-up regions (cosmological parameters): n={n}"
    else:
        raise ValueError(f"unknown map mode {resolved['mode']!r}")

    counts = rm.label_counts()
    if resolved["preset"] == "fig2" and counts["A"] != 0:
        raise RuntimeError(f"fig2 preset expects an empty A region, found {counts['A']} cells")

    outdir = _outdir(ns)
    artifacts.write_csv(
        os.path.join(outdir, "map.csv"),
        ["axis1", "axis2", "label", "best_exponent"],
        _map_csv_rows(rm),
    )
    artifacts.write_text(
        os.path.join(outdir, "map.svg"),
        artifacts.region_map_svg(rm, title, {"fujita": rm.fujita, "p_c": rm.p_c}),
    )
    payload = {"label_counts": counts, "cells": len(axis1.values()) * len(p_axis.values())}
    _emit(outdir, "map", resolved, ["map.csv", "map.svg"], payload)
    return 0


# ---------------------------------------------------------------------------
# kato

def _cmd_kato(ns) -> int:
    outdir = _outdir(ns)
    if ns.kato_cmd == "threshold":
        defaults = {
            "p": 2.0, "a": 0.0, "b": 1.0, "q": 1.0, "mu": 0.0,
            "A0": 1.0, "A1": 1.0, "R": 1.0, "T0": 1.0, "T1": 2.0,
        }
        resolved = _resolve(defaults, _load_config(ns.config), ns)
        kp = kato.KatoSubcriticalParams(
            p=resolved["p"], a=resolved["a"], b=resolved["b"], q=resolved["q"],
            mu=resolved["mu"], A0=resolved["A0"], A1=resolved["A1"], R=resolved["R"],
            T0=resolved["T0"], T1=resolved["T1"],
        )
        payload = {
            "M": kp.M,
            "a0_exponent": -(kp.p - 1.0) / kp.M,
            "threshold": kato.subcritical_threshold(kp),
            "normalized": False,
        }
        artifacts.write_json(os.path.join(outdir, "kato_threshold.json"), payload)
        _emit(outdir, "kato threshold", resolved, ["kato_threshold.json"], payload)
        return 0

    if ns.kato_cmd == "sequences":
        defaults = {
            "p": 2.0, "b": 1.0, "mu": 0.0, "A0": 1.0, "A1": 1.0,
            "CR": 1.0, "T0": 1.0, "T1": 2.0, "jmax": 20,
        }
        resolved = _resolve(defaults, _load_config(ns.config), ns)
        kc = kato.KatoCriticalParams(
            p=resolved["p"], b=resolved["b"], mu=resolved["mu"], A0=resolved["A0"],
            A1=resolved["A1"], T0=resolved["T0"], T1=resolved["T1"],
        )
        seqs = kato.iterate_sequences(kc, int(resolved["jmax"]), C_R=resolved["CR"])
        B, E = kato.envelope_constants(kc, C_R=resolved["CR"])
        artifacts.write_csv(
            os.path.join(outdir, "kato_sequences.csv"),
            ["j", "b_j", "log_C_j", "a_j"],
            ((s.j, s.b_j, s.log_C_j, s.a_j) for s in seqs.states),
        )
        payload = {
            "mu_case": kc.mu_case,
            "B": B,
            "E": E,
            "envelope_onset_j": kato.detect_envelope_onset(seqs, kc.p, E),
            "truncated": seqs.truncated,
            "states": len(seqs.states),
        }
        artifacts.write_json(os.path.join(outdir, "kato_sequences.json"), payload)
        _emit(
            outdir, "kato sequences", resolved,
            ["kato_sequences.csv", "kato_sequences.json"], payload,
        )
        return 0

    # envelope
    defaults = {
        "p": 2.0, "b": 1.0, "mu": 0.0, "A0": 1.0, "A1": 1.0, "CR": 1.0,
        "T0": 1.0, "T1": 2.0, "delta": 1e-3, "horizon": 1e12,
    }
    resolved = _resolve(defaults, _load_config(ns.config), ns)
    kc = kato.KatoCriticalParams(
        p=resolved["p"], b=resolved["b"], mu=resolved["mu"], A0=resolved["A0"],
        A1=resolved["A1"], T0=resolved["T0"], T1=resolved["T1"],
    )
    rep = kato.envelope_divergence(
        kc, C_R=resolved["CR"], delta=resolved["delta"], horizon=resolved["horizon"]
    )
    ct = kato.critical_threshold(kc)
    payload = {
        "t_star": rep.t_star,
        "E": rep.E,
        "B": rep.B,
        "delta_margin": rep.delta_margin,
        "delta": rep.delta,
        "horizon": rep.horizon,
        "a0_exponent": ct.a0_exponent,
        "threshold": ct.threshold,
    }
    artifacts.write_json(os.path.join(outdir, "kato_envelope.json"), payload)
    _emit(outdir, "kato envelope", resolved, ["kato_envelope.json"], payload)
    return 0


def _eps_grid(resolved: dict) -> np.ndarray:
    """The geometric eps grid of a sweep, refused before any run when it has
    fewer points than the log-log fit needs."""
    count = int(resolved["eps_count"])
    if count < blowup_ode.MIN_FIT_POINTS:
        raise ValueError(
            f"eps_count must be at least {blowup_ode.MIN_FIT_POINTS} for the fit, got {count}"
        )
    return np.geomspace(resolved["eps_start"], resolved["eps_stop"], count)


# ---------------------------------------------------------------------------
# ode

ODE_PRESETS = {
    "heatlike-n2": {
        # n=2, alpha=0.5, mu=2 wiring: q = n(1-alpha)(p-1)
        "p": 1.8, "mu": 2.0, "q": 0.8, "A1": 1.0, "R": 1.0,
        "F_init_scale": 1.0, "dF_init_scale": 1.0, "blowup_threshold": 1e12,
        "t_max": 1e6, "rel_tol": 1e-9, "abs_tol": 1e-12,
        "eps_start": 1e-3, "eps_stop": 1e-1, "eps_count": 8,
    },
    "critical-n2": {
        # n=2, alpha=0, mu=2 at the critical power p = 2: q = 2
        "p": 2.0, "mu": 2.0, "q": 2.0, "A1": 1.0, "R": 1.0,
        "F_init_scale": 1.0, "dF_init_scale": 1.0, "blowup_threshold": 1e12,
        "t_max": 1e8, "rel_tol": 1e-9, "abs_tol": 1e-12,
        "eps_start": 0.3, "eps_stop": 1.2, "eps_count": 6,
    },
}

_ODE_KEYS = (
    "p", "mu", "q", "A1", "R", "F_init_scale", "dF_init_scale",
    "blowup_threshold", "t_max", "rel_tol", "abs_tol",
)


def _ode_config(resolved: dict, eps: float) -> blowup_ode.OdeConfig:
    kwargs = {k: resolved[k] for k in _ODE_KEYS}
    return blowup_ode.OdeConfig(eps=eps, **kwargs)


def _cmd_ode(ns) -> int:
    outdir = _outdir(ns)
    if ns.ode_cmd == "run":
        defaults = {"eps": 1.0, **{k: ODE_PRESETS["heatlike-n2"][k] for k in _ODE_KEYS}}
        resolved = _resolve(defaults, _load_config(ns.config), ns)
        cfg = _ode_config(resolved, float(resolved["eps"]))
        res = blowup_ode.integrate(cfg)
        artifacts.write_csv(
            os.path.join(outdir, "ode_trace.csv"),
            ["t", "F", "dF"],
            zip(res.t.tolist(), res.F.tolist(), res.dF.tolist()),
        )
        payload = {
            "blew_up": res.blew_up,
            "T_num": res.T_num,
            "termination": res.termination,
            "steps": int(res.t.size),
            "monotone_invariant": blowup_ode.monotone_invariant_check(res, cfg.mu),
        }
        artifacts.write_json(os.path.join(outdir, "ode_result.json"), payload)
        _emit(outdir, "ode run", resolved, ["ode_trace.csv", "ode_result.json"], payload)
        if not res.blew_up:
            print(f"runtime failure: no blow-up, run ended by {res.termination}", file=sys.stderr)
            return 3
        return 0

    # sweep
    defaults = {
        "preset": None,
        "eps_start": 1e-3, "eps_stop": 1e-1, "eps_count": 8,
        **{k: ODE_PRESETS["heatlike-n2"][k] for k in _ODE_KEYS},
    }
    config = _load_config(ns.config)
    if ns.preset is not None:
        if ns.preset not in ODE_PRESETS:
            raise ValueError(f"unknown ode sweep preset {ns.preset!r}")
        config = {**ODE_PRESETS[ns.preset], **config, "preset": ns.preset}
    resolved = _resolve(defaults, config, ns)

    eps_grid = _eps_grid(resolved)
    cfg = _ode_config(resolved, float(eps_grid[0]))
    fit = blowup_ode.sweep(cfg, eps_grid)
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "eps_values": fit.eps_values,
        "T_values": fit.T_values,
    }
    if resolved["q"] < 2.0:
        predicted = blowup_ode.predicted_slope(resolved["p"], resolved["q"])
        ok, margins = blowup_ode.kato_consistency_check(fit, resolved["p"], resolved["q"])
        payload["predicted_slope"] = predicted
        payload["relative_deviation"] = abs(fit.slope - predicted) / abs(predicted)
        payload["kato_envelope_ok"] = ok
        payload["kato_envelope_min_margin"] = min(margins)
    else:
        payload["predicted_slope"] = None
        payload["log_lifespan_convexity_margin"] = blowup_ode.convexity_margin(
            fit.eps_values, fit.T_values
        )
    artifacts.write_csv(
        os.path.join(outdir, "ode_sweep.csv"),
        ["eps", "T_num"],
        zip(fit.eps_values, fit.T_values),
    )
    artifacts.write_json(os.path.join(outdir, "ode_fit.json"), payload)
    _emit(outdir, "ode sweep", resolved, ["ode_sweep.csv", "ode_fit.json"], payload)
    return 0


# ---------------------------------------------------------------------------
# pde

_PDE_DEFAULTS = {
    "n": 2, "alpha": 0.5, "mu": 2.0, "p": 2.0, "eps": 0.5, "R": 1.0,
    "dr": 0.005, "cfl": 0.45, "blowup_threshold": 1e8, "t_max": 50.0,
    "domain_margin": None, "dt_cap": 0.1, "sample_dt": 0.05,
}


def _pde_config(resolved: dict, eps: float) -> pde.PdeConfig:
    params = ModelParams(int(resolved["n"]), float(resolved["alpha"]), float(resolved["mu"]))
    return pde.PdeConfig(
        params=params,
        p=float(resolved["p"]),
        eps=eps,
        R=float(resolved["R"]),
        dr=float(resolved["dr"]),
        cfl=float(resolved["cfl"]),
        blowup_threshold=float(resolved["blowup_threshold"]),
        t_max=float(resolved["t_max"]),
        domain_margin=resolved["domain_margin"],
        dt_cap=float(resolved["dt_cap"]),
        sample_dt=float(resolved["sample_dt"]),
    )


def _cmd_pde(ns) -> int:
    outdir = _outdir(ns)
    if ns.pde_cmd == "run":
        defaults = {**_PDE_DEFAULTS, "snapshot_times": []}
        resolved = _resolve(defaults, _load_config(ns.config), ns)
        cfg = _pde_config(resolved, float(resolved["eps"]))
        res = pde.run(cfg, snapshot_times=resolved["snapshot_times"])
        artifacts.write_csv(
            os.path.join(outdir, "pde_diagnostics.csv"),
            ["t", "sup_abs_u", "F", "lp_integral", "support_radius"],
            zip(
                res.t_samples.tolist(),
                res.sup_series.tolist(),
                res.F_series.tolist(),
                res.lp_series.tolist(),
                res.support_series.tolist(),
            ),
        )
        files = ["pde_diagnostics.csv", "pde_result.json"]
        for idx, (t_snap, u) in enumerate(res.snapshots):
            name = f"snapshot_{idx:02d}.csv"
            r = cfg.dr * np.arange(u.size)
            artifacts.write_csv(
                os.path.join(outdir, name), ["r", "u"], zip(r.tolist(), u.tolist())
            )
            files.append(name)
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
        artifacts.write_json(os.path.join(outdir, "pde_result.json"), payload)
        _emit(outdir, "pde run", resolved, files, payload)
        if res.termination in ("horizon", "overflow"):
            print(f"runtime failure: run ended by {res.termination}", file=sys.stderr)
            return 3
        return 0

    # sweep
    defaults = {
        **_PDE_DEFAULTS,
        "t_max": 900.0,
        "eps_start": 0.05, "eps_stop": 0.8, "eps_count": 6,
    }
    del defaults["eps"]
    resolved = _resolve(defaults, _load_config(ns.config), ns)
    eps_grid = _eps_grid(resolved)
    cfg = _pde_config(resolved, float(eps_grid[0]))
    fit, envelopes = pde.lifespan_sweep(cfg, eps_grid)
    d = cfg.params.effective_dim
    predicted = None
    if d * (cfg.p - 1.0) < 2.0:
        predicted = -(cfg.p - 1.0) / (2.0 - d * (cfg.p - 1.0))
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "eps_values": fit.eps_values,
        "T_values": fit.T_values,
        "predicted_slope": predicted,
        "relative_deviation": (
            abs(fit.slope - predicted) / abs(predicted) if predicted is not None else None
        ),
        "envelope_diagnostics": [
            {
                "eps": e.eps,
                "t_calibration": e.t_calibration,
                "c": e.c,
                "min_ratio": e.min_ratio,
                "holds": e.holds,
            }
            for e in envelopes
        ],
    }
    artifacts.write_csv(
        os.path.join(outdir, "pde_sweep.csv"),
        ["eps", "T_num"],
        zip(fit.eps_values, fit.T_values),
    )
    artifacts.write_json(os.path.join(outdir, "pde_fit.json"), payload)
    _emit(outdir, "pde sweep", resolved, ["pde_sweep.csv", "pde_fit.json"], payload)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--out", help=f"output directory (or ${OUT_ENV_VAR}; default .)")


def _typed_flags(sp, kind, names) -> None:
    """Add ``--name`` flags parsed by ``kind``; ``_resolve`` reads config
    values for the same keys with the same type."""
    types = sp.get_default("flag_types") or {}
    for name in names:
        sp.add_argument(f"--{name}", type=kind, default=None)
        types[name] = kind
    sp.set_defaults(flag_types=types)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flrwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponents", help="closed-form exponent report")
    _add_common(sp)
    _typed_flags(sp, int, ["n"])
    _typed_flags(sp, finite_float, ["alpha", "mu", "w", "p"])
    sp.add_argument("--flrw", action="store_true", default=None)
    sp.set_defaults(func=_cmd_exponents)

    sp = sub.add_parser("classify", help="region label at one parameter point")
    _add_common(sp)
    _typed_flags(sp, int, ["n"])
    _typed_flags(sp, finite_float, ["alpha", "mu", "p"])
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("map", help="region-map CSV + SVG")
    _add_common(sp)
    sp.add_argument("--preset", choices=sorted(MAP_PRESETS), default=None)
    sp.add_argument("--mode", choices=["model", "flrw"], default=None)
    _typed_flags(sp, int, ["n"])
    _typed_flags(
        sp,
        finite_float,
        ["alpha", "axis1_start", "axis1_stop", "axis1_step",
         "axis2_start", "axis2_stop", "axis2_step"],
    )
    sp.set_defaults(func=_cmd_map)

    sp = sub.add_parser("kato", help="comparison-lemma machinery")
    ksub = sp.add_subparsers(dest="kato_cmd", required=True)
    kp = ksub.add_parser("threshold", help="subcritical threshold")
    _add_common(kp)
    _typed_flags(kp, finite_float, ["p", "a", "b", "q", "mu", "A0", "A1", "R", "T0", "T1"])
    kp.set_defaults(func=_cmd_kato)
    kp = ksub.add_parser("sequences", help="critical iteration table")
    _add_common(kp)
    _typed_flags(kp, finite_float, ["p", "b", "mu", "A0", "A1", "CR", "T0", "T1"])
    _typed_flags(kp, int, ["jmax"])
    kp.set_defaults(func=_cmd_kato)
    kp = ksub.add_parser("envelope", help="envelope divergence report")
    _add_common(kp)
    _typed_flags(
        kp, finite_float, ["p", "b", "mu", "A0", "A1", "CR", "T0", "T1", "delta", "horizon"]
    )
    kp.set_defaults(func=_cmd_kato)

    sp = sub.add_parser("ode", help="comparison-ODE runs and sweeps")
    osub = sp.add_subparsers(dest="ode_cmd", required=True)
    op = osub.add_parser("run", help="single blow-up run")
    _add_common(op)
    _typed_flags(op, finite_float, ["eps", *(_ODE_KEYS)])
    op.set_defaults(func=_cmd_ode)
    op = osub.add_parser("sweep", help="eps sweep + log-log fit")
    _add_common(op)
    op.add_argument("--preset", choices=sorted(ODE_PRESETS), default=None)
    _typed_flags(op, finite_float, ["eps_start", "eps_stop", *(_ODE_KEYS)])
    _typed_flags(op, int, ["eps_count"])
    op.set_defaults(func=_cmd_ode)

    sp = sub.add_parser("pde", help="radial solver runs and sweeps")
    psub = sp.add_subparsers(dest="pde_cmd", required=True)
    pp = psub.add_parser("run", help="single radial run")
    _add_common(pp)
    _typed_flags(pp, int, ["n"])
    _typed_flags(
        pp,
        finite_float,
        ["alpha", "mu", "p", "eps", "R", "dr", "cfl", "blowup_threshold",
         "t_max", "domain_margin", "dt_cap", "sample_dt"],
    )
    pp.set_defaults(func=_cmd_pde)
    pp = psub.add_parser("sweep", help="eps sweep + log-log fit")
    _add_common(pp)
    _typed_flags(pp, int, ["n"])
    _typed_flags(
        pp,
        finite_float,
        ["alpha", "mu", "p", "R", "dr", "cfl", "blowup_threshold", "t_max",
         "domain_margin", "dt_cap", "sample_dt", "eps_start", "eps_stop"],
    )
    _typed_flags(pp, int, ["eps_count"])
    pp.set_defaults(func=_cmd_pde)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
