"""The four benchmark workloads: the CLI commands each one issues, and the
checks that each command's output must pass.

Seed 0 issues exactly the CLI presets.  Any other seed perturbs only inputs
that no reference pins: the eps values of the PDE and ODE sweeps and of the
refinement pair move by up to JITTER (log-uniform).  The region maps are
pinned by their sha256, so every seed runs them unchanged.  The property
checks are the acceptance criteria's, so they hold on every seed.
"""

from __future__ import annotations

import hashlib
import math
import random

JITTER = 0.02

# sha256 of the map artifacts at the commit that introduced the benchmark;
# a change to the closed-form layer or the emitters must keep these bytes.
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


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _decreasing(values) -> bool:
    return all(_finite(v) for v in values) and all(b < a for a, b in zip(values, values[1:]))


def _jittered(rng, **values) -> list:
    """Flags that move each value by up to JITTER; none for seed 0."""
    if rng is None:
        return []
    flags = []
    for name, value in values.items():
        flags += [f"--{name}", repr(value * math.exp(rng.uniform(-JITTER, JITTER)))]
    return flags


# ---------------------------------------------------------------------------
# checks: check(payload, outdir, ctx) -> list of problems; ctx is shared by
# the commands of one pass

def _check_map(preset):
    def check(payload, outdir, ctx):
        problems = []
        for name, want in MAP_SHA256[preset].items():
            got = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            if got != want:
                problems.append(f"{preset} {name} sha256 {got} differs from the pinned {want}")
        return problems

    return check


def _check_pde_sweep(payload, outdir, ctx):
    problems = []
    if not _decreasing(payload["T_values"]):
        problems.append(f"T not decreasing in eps: {payload['T_values']}")
    # criterion 9: slope within 0.30 of the predicted -1
    if not (_finite(payload["relative_deviation"]) and payload["relative_deviation"] < 0.30):
        problems.append(f"slope {payload['slope']} off the prediction by more than 30%")
    return problems


def _check_pde_run(payload, outdir, ctx):
    problems = []
    if not payload["blew_up"] or payload["termination"] != "threshold":
        problems.append(f"no threshold blow-up: termination {payload['termination']}")
    failed = sorted(k for k, ok in payload["checks"].items() if ok is not True)
    if failed:
        problems.append(f"structural checks failed: {failed}")
    lifespans = ctx.setdefault("T", [])
    lifespans.append(payload["T_num"])
    if len(lifespans) == 2:
        coarse, fine = lifespans
        err = abs(coarse - fine) / fine
        ctx["lifespan_refine_err"] = err
        if not err < 0.10:  # criterion 9's refinement stability
            problems.append(f"refinement changed T by {err:.3g} (limit 0.10)")
    return problems


def _check_ode_heatlike(payload, outdir, ctx):
    problems = []
    if not _decreasing(payload["T_values"]):
        problems.append(f"T not decreasing in eps: {payload['T_values']}")
    # criterion 6: slope within 20% of -(p-1)/(2-q), r^2 >= 0.99
    if not (_finite(payload["relative_deviation"]) and payload["relative_deviation"] < 0.20):
        problems.append(f"slope {payload['slope']} off the prediction by more than 20%")
    if not payload["r_squared"] >= 0.99:
        problems.append(f"r^2 {payload['r_squared']} below 0.99")
    if payload["kato_envelope_ok"] is not True:
        problems.append("Kato upper envelope violated")
    return problems


def _check_ode_critical(payload, outdir, ctx):
    problems = []
    if not _decreasing(payload["T_values"]):
        problems.append(f"T not decreasing in eps: {payload['T_values']}")
    margin = payload["log_lifespan_convexity_margin"]
    if not (_finite(margin) and margin >= -1e-6):  # criterion 7
        problems.append(f"log T not convex in log(1/eps): margin {margin}")
    return problems


def _check_kato_sequences(payload, outdir, ctx):
    problems = []
    if payload["truncated"] or payload["states"] != 21:
        problems.append(f"iteration stopped early: {payload['states']} states")
    if payload["envelope_onset_j"] is None:
        problems.append("no envelope onset")
    return problems


def _check_kato_envelope(payload, outdir, ctx):
    if not (_finite(payload["t_star"]) and payload["t_star"] > 2.0
            and payload["delta_margin"] >= payload["delta"]):
        return [f"no divergence time: t_star {payload['t_star']}"]
    return []


# ---------------------------------------------------------------------------
# workloads: name -> function(rng) -> [(argv, check), ...]

def _phase_maps(rng):
    return [
        (["map", "--preset", "fig1"], _check_map("fig1")),
        (["map", "--preset", "fig2"], _check_map("fig2")),
    ]


def _pde_sweep(rng):
    return [(["pde", "sweep", *_jittered(rng, eps_start=0.05, eps_stop=0.8)], _check_pde_sweep)]


def _pde_refine(rng):
    eps = _jittered(rng, eps=0.5)
    return [
        (["pde", "run", "--dr", "0.005", *eps], _check_pde_run),
        (["pde", "run", "--dr", "0.0025", *eps], _check_pde_run),
    ]


def _lemma(rng):
    return [
        (["ode", "sweep", "--preset", "heatlike-n2",
          *_jittered(rng, eps_start=1e-3, eps_stop=1e-1)], _check_ode_heatlike),
        (["ode", "sweep", "--preset", "critical-n2",
          *_jittered(rng, eps_start=0.3, eps_stop=1.2)], _check_ode_critical),
        (["kato", "sequences"], _check_kato_sequences),
        (["kato", "envelope"], _check_kato_envelope),
    ]


WORKLOADS = {
    "phase-maps": _phase_maps,
    "pde-sweep": _pde_sweep,
    "pde-refine": _pde_refine,
    "lemma": _lemma,
}


def commands(name: str, seed: int) -> list:
    """The (argv, check) pairs of one pass of workload ``name``."""
    return WORKLOADS[name](None if seed == 0 else random.Random(seed))
