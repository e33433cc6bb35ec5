"""Invariant suite run against a configured model.

Each check measures one structural or cross-route property and reports
(measured value, tolerance, pass/fail).  Checks that do not apply to
the configured model (e.g. the analytic point-coupling cross-check for
a general coupling matrix) report as skipped and count as passed.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import mapping, model as model_mod, spectra
from . import dynamics as dyn


@dataclass
class CheckResult:
    name: str
    measured: float | None
    tolerance: float | None
    passed: bool
    detail: str = ""

    def to_json(self):
        d = asdict(self)
        if d["measured"] is not None:
            d["measured"] = float(d["measured"])
        return d


def _record(checks, name, measured=None, tolerance=None, detail="", passed=None):
    """Record a check; it passes when measured <= tolerance unless passed
    is given."""
    measured = None if measured is None else float(measured)
    passed = measured <= tolerance if passed is None else passed
    checks.append(CheckResult(name, measured, tolerance, bool(passed), detail))


def _skip(checks, names, why):
    """Record each named check as skipped, which counts as passed."""
    for name in names:
        _record(checks, name, detail=f"skipped: {why}", passed=True)


def run_checks(model, p0, t_max, steps, epsilon=None):
    """Run every applicable invariant against the model.

    The trajectory comparisons kick X with p0 and sample [0, t_max] at
    steps + 1 points, the energy, correlator and link checks at 2001;
    epsilon is the spectral smoothing width (default five mean bath
    spacings).  On that uniform 2001-point grid the energy, S(t) and
    X(t) all sum the modes from the blocked angle-addition split of
    dynamics._split_trig, so Im S(t) and X(t) share one rounding route;
    S(0) sums direct phases.
    """
    checks = []
    n = model.n_particles
    m = model.mass

    # --- model structure
    eigs = model_mod.sector_eigenvalues(model)
    top = max(eigs.max(), 1e-300)
    _record(checks, "model.full_potential_psd", eigs.min() / top, -model_mod._TOL_PSD,
            "min eigenvalue of the full quadratic form, relative to max",
            passed=eigs.min() >= -model_mod._TOL_PSD * top)

    # a chain's symmetric block W + diag(khat) - K is the free chain W,
    # whose modes are the standing waves.  Compared squared: a square
    # root would turn the zero mode's round-off into ~1e-8 at N = 16
    if model.omega0 is not None:
        chain = model_mod.next_neighbor_frequencies(n, model.omega0)
        err = np.abs(2.0 * eigs[0] / m - chain**2).max() / max(chain[-1] ** 2, 1e-300)
        _record(checks, "model.closed_form_frequencies", err, 1e-12,
                "symmetric-sector eigenvalues vs closed-form chain frequencies, "
                "squared, relative to the top")
    else:
        _skip(checks, ["model.closed_form_frequencies"],
              "no closed form for a general chain matrix")

    # --- mapping
    k_vec, decoupled = mapping.decoupling_indicator(model)
    khat_scale = max(float(model.row_coupling_sums.max()), 1e-300)
    _record(checks, "mapping.decoupling_indicator", np.abs(k_vec).max() / khat_scale,
            detail="decoupled" if decoupled else "coupled", passed=True)

    try:
        form, site_basis = mapping.caldeira_leggett_form(model)
    except model_mod.UnstableModelError as exc:
        _record(checks, "mapping.bath_stability", detail=str(exc), passed=False)
        return checks
    _record(checks, "mapping.bath_stability", form.bath_freqs.min(), 0.0,
            "smallest bath frequency", passed=form.bath_freqs.min() > 0)

    # the bath eigenpairs, couplings and site basis that total_energy reads:
    # anti B = B diag((m/2) w^2) + u l^T column by column, B = C U
    bath = site_basis[:, 1:]
    bath_evals = (m / 2.0) * form.bath_freqs**2
    anti = model_mod.antisymmetric_block(model)
    r = anti @ bath - bath * bath_evals - np.multiply.outer(site_basis[:, 0],
                                                             form.couplings_l)
    _record(checks, "mapping.bath_residual",
            np.linalg.norm(r, axis=0).max() / max(bath_evals[-1], 1e-300), 1e-10,
            "worst bath eigenpair residual in site space, relative to the "
            "top bath eigenvalue")

    sector = mapping.collective_sector_eigensystem(form)
    modes = mapping.QuantumModes(frequencies=sector[0],
                                 x_coefficients=sector[1][0, :],
                                 mass=m, hbar=model.hbar)
    if mapping.is_point_coupling(model):
        s_form, s_modes = mapping.collective_mapping(model)
        freqs = s_form.bath_freqs
        err = max(
            np.abs(freqs - form.bath_freqs).max(),
            np.abs(np.abs(s_form.couplings_l) - np.abs(form.couplings_l)).max(),
            np.abs(s_modes.frequencies - modes.frequencies).max(),
            np.abs(s_modes.x_coefficients**2 - modes.x_coefficients**2).max(),
        )
        _record(checks, "mapping.secular_cross_check", err, 1e-8,
                "analytic rank-one route (bath and sector modes) vs "
                "dense eigensolves")
        upper = np.append(chain[2:], np.inf)
        _record(checks, "mapping.interlacing",
                detail="bath frequencies interlace the chain frequencies",
                passed=((chain[1:] < freqs) & (freqs < upper)).all())
    else:
        _skip(checks, ["mapping.secular_cross_check", "mapping.interlacing"],
              "not a point coupling")

    # the antisymmetric block is in the site basis, so its eigensolve
    # stays independent of the mapping
    err = np.abs(modes.frequencies**2 - 2.0 * eigs[1] / m).max() / (2.0 * top / m)
    _record(checks, "mapping.spectrum_preservation", err, 1e-8,
            "mapped squared sector frequencies vs the antisymmetric "
            "block's eigensolve")

    # --- dynamics
    params = dyn.collective_frequency(form)
    t = np.linspace(0.0, t_max, steps + 1)

    exact = dyn.evolve_exact(modes, p0, t)
    try:
        volt = dyn.solve_volterra(form, p0, t)
    except dyn.StepSizeError as exc:
        _record(checks, "dynamics.volterra_vs_exact", detail=str(exc), passed=False)
        volt = None
    if volt is not None:
        if params.omega0 > 0:
            scale, what = abs(p0) / (m * params.omega0), "kick scale |P0|/(m W0)"
        else:
            scale = max(float(np.abs(exact.positions).max()), 1e-300)
            what = "scale max|X|"
        err = np.abs(volt.positions - exact.positions).max() / scale
        _record(checks, "dynamics.volterra_vs_exact", err, 1e-4,
                f"L-inf over [0, {t_max:g}] at {steps} steps, {what}")

    ts = np.linspace(0.0, t_max, 2001)
    energy = dyn.total_energy(model, sector, site_basis, p0, ts)
    err = np.abs(energy - energy[0]).max() / max(energy[0], 1e-300)
    _record(checks, "dynamics.energy_conservation", err, 1e-10,
            "total energy drift along the exact trajectory")

    if decoupled:
        gmax = np.abs(dyn.damping_kernel(form, t)).max()
        _record(checks, "dynamics.decoupled_kernel", gmax / khat_scale, 1e-12,
                "max |gamma(t)| relative to max khat: the kernel vanishes")
        omega_x = np.sqrt(max(form.bare_omega_sq, 0.0))
        if omega_x > 0:
            ref = p0 / (m * omega_x) * np.sin(omega_x * t)
            what = "X stays sinusoidal at sqrt(2 Kt11/m)"
        else:
            ref, what = p0 / m * t, "X moves freely as P0 t/m"
        sin_err = np.abs(exact.positions - ref).max() / max(np.abs(ref).max(), 1e-300)
        _record(checks, "dynamics.decoupled_harmonic", sin_err, 1e-8, what)
    else:
        _skip(checks, ["dynamics.decoupled_kernel", "dynamics.decoupled_harmonic"],
              "model is not decoupled")

    if epsilon is None:
        epsilon = dyn.default_epsilon(form)
    if params.omega0 > 0 and epsilon > 0:
        w0 = params.omega0
        wgrid = np.linspace(0.5 * w0, 2.0 * w0, 31)
        prof = dyn.gamma_transform(form, wgrid, epsilon).real
        mean = prof.mean()
        flat = float((prof.max() - prof.min()) / max(mean, 1e-300)) if mean > 0 else 0.0
        _record(checks, "dynamics.kernel_flatness", flat,
                detail="relative spread of Re gamma~ over [W0/2, 2 W0]; "
                       "reported, not asserted (constant only for a truly "
                       "Ohmic bath)", passed=True)
    else:
        _skip(checks, ["dynamics.kernel_flatness"],
              "collective coordinate is unbound" if params.omega0 <= 0
              else "smoothing width is not positive")

    # --- spectra
    if (modes.frequencies > 0).all():
        comb = spectra.strength_comb(modes)
        s0 = spectra.correlator_S(modes, 0.0)
        _record(checks, "spectra.comb_total_equals_correlator_at_zero",
                abs(comb.total_weight - s0.real), 1e-12,
                "strength comb mass vs S(0)")
        sum_rule = abs((comb.weights * comb.frequencies).sum() - model.hbar / (2.0 * m))
        _record(checks, "spectra.strength_sum_rule", sum_rule, 1e-12,
                "sum of weight * frequency vs hbar / 2m")

        s_t = spectra.correlator_S(modes, ts)
        x = dyn.evolve_exact(modes, p0, ts).positions
        link = np.abs(s_t.imag + model.hbar / (2.0 * p0) * x).max()
        _record(checks, "spectra.classical_quantum_link", link, 1e-12,
                "Im S(t) vs -(hbar / 2 P0) X(t), pointwise")

        wmax = 2.0 * max(comb.frequencies.max(), params.omega0)
        wgrid = np.linspace(0.0, wmax, 4001)
        sm = spectra.smoothed_spectrum(comb, epsilon, wgrid)
        fd = spectra.fdt_spectrum(form, wgrid, epsilon)
        if not spectra.fdt_comparison_in_window(epsilon, params):
            _skip(checks, ["spectra.route_equivalence"],
                  f"smoothing width {epsilon:.3g} is not small against the "
                  f"resonance {params.omega0:.3g}; the broadened-comb comparison "
                  "needs W0 >> eps")
        else:
            err = np.abs(fd.values - sm.values).max() / max(sm.values.max(), 1e-300)
            _record(checks, "spectra.route_equivalence", err, 0.12,
                    "resolvent route vs broadened strength comb, relative L-inf")
        neg = min(float(sm.values.min()), float(fd.values.min()))
        floor = -1e-12 * float(sm.values.max())
        _record(checks, "spectra.positivity", neg, floor,
                "smoothed spectra stay nonnegative", passed=neg >= floor)
    else:
        _skip(checks, ["spectra.comb_total_equals_correlator_at_zero",
                       "spectra.strength_sum_rule", "spectra.classical_quantum_link",
                       "spectra.route_equivalence", "spectra.positivity"],
              "collective coordinate is unbound")

    return checks
