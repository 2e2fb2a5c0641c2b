"""flrwave: blow-up exponents, lifespan bounds, and numerical blow-up runs
for the damped wave model u_tt - t^(-2a) Lap u + (mu/t) u_t = |u|^p.

The package has three layers:

* closed-form layer: ``exponents`` (critical exponents, threshold curves)
  and ``bounds`` (lifespan upper bounds, phase-diagram classification);
* iteration layer: ``kato`` (comparison-lemma thresholds and the critical
  iteration sequences);
* empirical layer: ``blowup_ode`` (comparison ODE integrator + scaling fits)
  and ``pde`` (radial finite-difference solver).

``cli`` wires everything to deterministic CSV/JSON/SVG artifacts.  The
package itself exports only ``__version__``; import from the submodules.
"""

# The one version string: pyproject.toml and the run manifests read it.
__version__ = "0.1.0"
