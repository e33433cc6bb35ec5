"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here and are not to be loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_frequency,
    collective_mapping,
    collective_sector_modes,
    convolution_power_spectrum,
    correlator_S,
    damping_kernel,
    decoupling_indicator,
    evolve_exact,
    fdt_spectrum,
    is_point_coupling,
    mean_bath_spacing,
    ohmic_spectrum,
    sector_eigenvalues,
    smoothed_spectrum,
    solve_volterra,
    strength_comb,
)
from collective_mode.dynamics import OscillatorParams, omega0_squared
from collective_mode.spectra import SpectrumTable
from oracles import full_potential_matrix, phonon_spectrum


def report(number, name, detail):
    print(f"ACCEPTANCE {number:2d} {name}: {detail}  PASS")


def shifted_form(model, target_omega0=1.0):
    form = caldeira_leggett_form(model)[0]
    gz = damping_kernel(form, 0.0)
    k0 = (target_omega0**2 + gz) / 2.0 * form.mass - form.k_tilde_11
    return replace(form, k_tilde_11=form.k_tilde_11 + k0)


def test_criterion_1_oracle_equivalence():
    # bath elimination is exact: the memory-kernel route reproduces the
    # normal-mode route to quadrature accuracy
    start = time.time()
    worst = 0.0
    for n in (8, 32, 64):
        for alpha in (0.2, 1.0):
            model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
            form = caldeira_leggett_form(model)[0]
            params = collective_frequency(form)
            h = 0.02 / form.bath_freqs.max()
            t_max = min(20.0 / params.gamma0, float(n))  # recurrence/2 = N
            t = np.arange(int(round(t_max / h)) + 1) * h
            volt = solve_volterra(form, 1.0, t)
            exact = evolve_exact(collective_sector_modes(form), 1.0, t)
            scale = 1.0 / np.sqrt(params.omega0_sq)
            err = np.abs(volt.positions - exact.positions).max() / scale
            assert err < 1e-4, f"N={n} alpha={alpha}: {err:.3e} >= 1e-4"
            worst = max(worst, err)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, "oracle equivalence",
           f"max rel err {worst:.2e} < 1e-4 over 6 models, {elapsed:.1f}s")


def test_criterion_2_decoupling_theorem():
    n, c = 8, 0.4
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((n, n), c), mass=1.0)
    form = caldeira_leggett_form(model)[0]
    khat_scale = model.row_coupling_sums.max()
    k_norm = np.abs(decoupling_indicator(model)[0]).max()
    assert k_norm < 1e-12 * khat_scale
    t = np.linspace(0.0, 60.0, 6001)
    g_max = np.abs(damping_kernel(form, t)).max()
    assert g_max < 1e-12 * khat_scale
    omega_x = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    x = evolve_exact(collective_sector_modes(form), 1.0, t).positions
    ref = np.sin(omega_x * t) / omega_x
    sin_err = np.abs(x - ref).max() / np.abs(ref).max()
    assert sin_err < 1e-8
    report(2, "decoupling theorem",
           f"|k|/max khat {k_norm / khat_scale:.1e}, kernel {g_max:.1e}, "
           f"sinusoid err {sin_err:.1e}")


def test_criterion_3_classical_quantum_link():
    model = build_next_neighbor_model(32, 1.0, 1.0, 1.0)
    modes = collective_sector_modes(caldeira_leggett_form(model)[0])
    t = np.linspace(0.0, 64.0, 10000)
    p0 = 1.0
    x = evolve_exact(modes, p0, t).positions
    s = correlator_S(modes, t)
    err = np.abs(s.imag + 0.5 / p0 * x).max()
    assert err < 1e-12
    report(3, "classical-quantum link", f"pointwise err {err:.2e} < 1e-12")


def test_criterion_4_secular_cross_check():
    worst = 0.0
    for n in (2, 8, 32):
        chain = phonon_spectrum(
            build_next_neighbor_model(n, 1.0, 1.0, 0.0)).frequencies
        for alpha in (0.1, 1.0, 10.0):
            model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
            form = caldeira_leggett_form(model)[0]
            assert is_point_coupling(model)  # the secular route
            secular = collective_mapping(model)[0]
            freqs, c_n = secular.bath_freqs, secular.couplings_l
            err = max(
                np.abs(freqs - form.bath_freqs).max(),
                np.abs(np.abs(c_n) - np.abs(form.couplings_l)).max(),
            )
            assert err < 1e-8, f"N={n} alpha={alpha}: {err:.3e}"
            worst = max(worst, err)
            for j in range(n - 2):
                assert chain[j + 1] < freqs[j] < chain[j + 2]
            assert freqs[-1] > chain[-1]
    report(4, "secular cross-check",
           f"max err {worst:.2e} < 1e-8, interlacing exact, 9 configs")


def test_criterion_5_spectrum_preservation():
    # union of mapped sector frequencies vs the full 2N eigensolve,
    # compared as squared frequencies (the eigensolve scaled by 2/m)
    worst = 0.0
    for n, alpha in ((8, 1.0), (32, 0.5), (64, 1.0)):
        model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
        form = caldeira_leggett_form(model)[0]
        anti = collective_sector_modes(form).frequencies
        sym_sq = 2.0 * sector_eigenvalues(model)[0] / model.mass
        mapped_sq = np.sort(np.concatenate([anti**2, sym_sq]))
        full_sq = 2.0 * scipy.linalg.eigvalsh(
            full_potential_matrix(model)) / model.mass
        err = np.abs(mapped_sq - full_sq).max() / full_sq[-1]
        assert err < 1e-8, f"N={n}: {err:.3e}"
        worst = max(worst, err)
    report(5, "spectrum preservation", f"max rel err {worst:.2e} < 1e-8")


def test_criterion_6_route_equivalence():
    # two routes to the smoothed strength spectrum, resonance mid-band;
    # the constant-friction closed form is compared at the epsilon-
    # dressed parameters (the exact flat-kernel reduction of the
    # resolvent at omega + i eps)
    model = build_next_neighbor_model(64, 1.0, 1.0, 1.0)
    form = shifted_form(model, 1.0)
    params = collective_frequency(form)
    assert params.regime == "underdamped"
    assert np.sqrt(params.omega0_sq) > 20.0 * params.gamma_bar  # strongly
    eps = 5.0 * mean_bath_spacing(form)
    w = np.linspace(0.0, 4.0, 4001)
    modes = collective_sector_modes(form)
    sm = smoothed_spectrum(strength_comb(modes), eps, w)
    fd = fdt_spectrum(form, w, eps)
    err_routes = np.abs(fd.values - sm.values).max() / sm.values.max()
    assert err_routes < 0.05, f"{err_routes:.3f} >= 5%"

    g_d = params.gamma0 + 2.0 * eps
    w0_sq_d = params.omega0_sq + eps**2 + eps * params.gamma0
    dressed = OscillatorParams(w0_sq_d, g_d)
    oh = ohmic_spectrum(dressed, w, form.hbar, form.mass)
    mask = np.abs(w - np.sqrt(params.omega0_sq)) < 3.0 * g_d / 2.0
    scale = oh.values.max()
    err_sm = np.abs(oh.values[mask] - sm.values[mask]).max() / scale
    err_fd = np.abs(oh.values[mask] - fd.values[mask]).max() / scale
    assert err_sm < 0.10, f"comb vs ohmic {err_sm:.3f} >= 10%"
    assert err_fd < 0.10, f"fdt vs ohmic {err_fd:.3f} >= 10%"
    report(6, "route equivalence",
           f"comb-vs-fdt {err_routes:.3f} < 0.05; ohmic near peak "
           f"{max(err_sm, err_fd):.3f} < 0.10")


def test_criterion_7_figure_reproduction():
    start = time.time()
    omega_bar, gamma_bar = 1.0, 0.1
    g0 = 2.0 * gamma_bar
    params = OscillatorParams(omega_bar**2 + g0**2 / 4.0, g0)
    w = np.linspace(0.0, 4.0, 2000)
    s = ohmic_spectrum(params, w, 1.0, 1.0)
    s2 = convolution_power_spectrum(s, 2)

    peak1 = w[np.argmax(s.values)]
    peak2 = w[np.argmax(s2.values)]
    assert abs(peak1 - 1.0) < 0.01
    assert abs(peak2 - 2.0) < 0.05
    value_at_1 = float(np.interp(1.0, w, s.values))
    assert abs(value_at_1 - 1.5876) < 1e-3

    def fwhm(vals):
        i = np.argmax(vals)
        half = vals[i] / 2.0
        left = np.where(vals[:i] < half)[0]
        right = np.where(vals[i:] < half)[0]
        return w[i + right[0]] - w[left[-1]]

    ratio = fwhm(s2.values) / fwhm(s.values)
    assert abs(ratio - 2.0) < 0.3  # 2 x (1 +- 15%)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(7, "figure reproduction",
           f"peaks {peak1:.3f}/{peak2:.3f}, S(1)={value_at_1:.4f}, "
           f"width ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_8_wick_identity():
    model = build_next_neighbor_model(16, 1.0, 1.0, 1.0)
    modes = collective_sector_modes(shifted_form(model, 1.0))
    comb = strength_comb(modes)
    sig = 0.04
    dw = sig / 8.0
    w = np.arange(0.0, 2.4 * comb.frequencies.max(), dw)
    gauss = np.exp(-0.5 * ((w[:, None] - comb.frequencies[None, :]) / sig) ** 2)
    sm = SpectrumTable(omegas=w,
                       values=gauss @ comb.weights / (sig * np.sqrt(2 * np.pi)))
    conv = convolution_power_spectrum(sm, 2)

    dt = 0.003
    t = np.arange(0.0, np.sqrt(72.0) / sig, dt)
    f = 2.0 * correlator_S(modes, t) ** 2 * np.exp(-(t * sig) ** 2)
    time_route = np.empty_like(w)
    for i in range(0, w.size, 400):
        phase = np.exp(1j * np.outer(w[i:i + 400], t))
        vals = (phase * f).real
        vals[:, 0] *= 0.5
        vals[:, -1] *= 0.5
        time_route[i:i + 400] = vals.sum(axis=1) * dt / np.pi
    err = np.abs(time_route - conv.values).max() / np.abs(conv.values).max()
    assert err < 1e-3
    report(8, "Wick identity", f"time vs frequency route {err:.2e} < 1e-3")


def test_criterion_9_recurrence():
    model = build_next_neighbor_model(16, 1.0, 1.0, 1.0)
    form = shifted_form(model, 1.0)
    params = collective_frequency(form)
    h = 0.05 / form.bath_freqs.max()
    t = np.arange(int(round(120.0 / h)) + 1) * h
    x = solve_volterra(form, 1.0, t).positions
    block = int(round(np.pi / params.omega_bar / h))
    env = np.abs(x[: x.size // block * block]).reshape(-1, block).max(axis=1)
    imin = int(np.argmin(env[: env.size // 2]))
    decay = env[0] / env[imin]
    regrow = env[imin:].max() / env[imin]
    assert decay > 2.0
    assert regrow >= 2.0
    report(9, "finite-size recurrence",
           f"decay x{decay:.1f}, regrowth x{regrow:.1f} >= 2 at t~{t[imin * block]:.0f}")


def test_criterion_10_convergence_order():
    model = build_next_neighbor_model(32, 1.0, 1.0, 1.0)
    form = caldeira_leggett_form(model)[0]
    errs = []
    for h_frac in (0.02, 0.01):
        h = h_frac / form.bath_freqs.max()
        t = np.arange(int(round(32.0 / h)) + 1) * h
        volt = solve_volterra(form, 1.0, t)
        exact = evolve_exact(collective_sector_modes(form), 1.0, t)
        errs.append(np.abs(volt.positions - exact.positions).max())
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5
    report(10, "second-order convergence", f"error ratio {ratio:.2f} in [3.5, 4.5]")


def test_criterion_11_clamped_end_limit():
    # At fixed alpha, rho' N = 2 alpha N / (m omega0^2) grows without bound
    # and clamps the coupled end of the antisymmetric block: its lines tend
    # to those of a chain with one clamped and one free end, (k + 1/2) pi
    # omega0 / N, X's weights c_k^2 to 8 / (pi^2 (2k + 1)^2), and
    # Omega0^2 N^2 / omega0^2 to 3.  Each relative error is fitted as
    # a / N + b / N^2 through N = 1e3 and 1e4; at N = 1e5, which only the
    # O(N) mapping of the recipe-only chain reaches, it must follow the fit.
    k = np.arange(5)
    sizes = (10**3, 10**4, 10**5)
    worst = 0.0
    for alpha in (0.5, 10.0):
        errs = []
        for n in sizes:
            form, modes = collective_mapping(build_next_neighbor_model(n, 1.0, 1.0, alpha))
            errs.append(np.concatenate([
                modes.frequencies[:5] / ((k + 0.5) * np.pi / n),
                modes.x_coefficients[:5] ** 2 / (8.0 / (np.pi**2 * (2 * k + 1) ** 2)),
                [omega0_squared(form) * n**2 / 3.0],
            ]) - 1.0)
        powers = np.array([[1.0 / n, 1.0 / n**2] for n in sizes])
        coeffs = np.linalg.solve(powers[:2], np.array(errs[:2]))
        fitted = powers[2] @ coeffs
        assert (np.abs(errs[2]) < 1e-4).all()
        miss = np.abs(errs[2] - fitted) / np.abs(fitted)
        assert (miss < 1e-3).all(), f"alpha={alpha}: {miss.max():.2e} >= 1e-3"
        worst = max(worst, miss.max())
    report(11, "clamped-end limit",
           f"N=1e5 remainders within {worst:.1e} of the 1e3/1e4 fit (< 1e-3)")
