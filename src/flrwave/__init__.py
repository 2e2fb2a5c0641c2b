"""flrwave: blow-up exponents, lifespan bounds, and numerical blow-up runs
for the damped wave model u_tt - t^(-2a) Lap u + (mu/t) u_t = |u|^p.

The package has three layers:

* closed-form layer: ``exponents`` (critical exponents, threshold curves)
  and ``bounds`` (lifespan upper bounds, phase-diagram classification);
* iteration layer: ``kato`` (comparison-lemma thresholds and the critical
  iteration sequences);
* empirical layer: ``blowup_ode`` (comparison ODE integrator + scaling fits)
  and ``pde`` (radial finite-difference solver).

``cli`` wires everything to deterministic CSV/JSON/SVG artifacts.
"""

# The one version string: pyproject.toml and the run manifests read it.
__version__ = "0.1.0"

from flrwave.exponents import (
    FlrwParams,
    ModelParams,
    Quadratic,
    RootNote,
    RootReport,
    flrw_to_model,
    fujita,
    gamma,
    gamma0,
    gamma0_quadratic,
    gamma_quadratic,
    mu_star,
    p_c,
    p_c_flrw,
    positive_root,
    strauss_exponent,
    strauss_quadratic,
    w_star,
)
from flrwave.bounds import (
    BoundForm,
    BoundKind,
    LifespanBound,
    RegionLabel,
    classify,
    critical_bounds,
    heatlike_exponent,
    intermediate_exponent,
    region_map_flrw,
    region_map_model,
    wavelike_exponent,
)
from flrwave.kato import (
    KatoCriticalParams,
    KatoSubcriticalParams,
    critical_threshold,
    envelope_constants,
    envelope_divergence,
    iterate_sequences,
    subcritical_threshold,
)
from flrwave.blowup_ode import OdeConfig, OdeResult, FitResult, integrate, sweep
from flrwave.pde import PdeConfig, PdeResult, run as pde_run, lifespan_sweep
