import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    DeltaComb,
    SpectrumTable,
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_frequency,
    collective_mapping,
    collective_sector_modes,
    convolution_power_spectrum,
    correlator_S,
    damping_kernel,
    evolve_exact,
    fdt_spectrum,
    gamma_transform,
    mean_bath_spacing,
    next_neighbor_frequencies,
    observable_spectrum,
    ohmic_spectrum,
    sigma_comb,
    sigma_phonon_approximation,
    smoothed_spectrum,
    strength_comb,
)
from collective_mode import dynamics, spectra
from collective_mode.dynamics import OscillatorParams, omega0_squared
from collective_mode.mapping import _chain_units
from collective_mode.spectra import smoothing_in_window, tail_fraction
from collective_mode.verify import run_checks
from oracles import (correlator_exp, disordered_model, full_potential_matrix,
                     long_double_chain_fdt, one_shot_correlator_S,
                     one_shot_damping_kernel, one_shot_gamma_transform,
                     one_shot_smoothed_values, phonon_coupling_row,
                     standing_wave_basis)


def point_model(n, alpha):
    return build_next_neighbor_model(n, 1.0, 1.0, alpha)


def constant_k_model(n=6, c=0.4):
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    return build_general_model(w, np.full((n, n), c), mass=1.0)


def shifted_form(model, target_omega0=1.0):
    """Move the collective resonance into the band; bath untouched."""
    form = caldeira_leggett_form(model)[0]
    gz = damping_kernel(form, 0.0)
    k0 = (target_omega0**2 + gz) / 2.0 * form.mass - form.k_tilde_11
    return replace(form, k_tilde_11=form.k_tilde_11 + k0)


def nonuniform(x):
    """A 1-d grid squared (x^2 / 4), so from three points on it is no
    longer uniform; scalars pass through."""
    return np.square(x) / 4.0 if np.ndim(x) == 1 else x


def kernel_pairs(form, modes, epsilon):
    """(chunked kernel, one-shot oracle) pairs, each taking the grid.

    correlator_S sums a uniform grid from 0 by the blocked split, so it
    gets the grid squared, which takes its chunked direct-phase route.
    """
    comb = strength_comb(modes)
    return [
        (lambda x: damping_kernel(form, x),
         lambda x: one_shot_damping_kernel(form, x)),
        (lambda x: gamma_transform(form, x, epsilon),
         lambda x: one_shot_gamma_transform(form, x, epsilon)),
        (lambda x: correlator_S(modes, nonuniform(x)),
         lambda x: one_shot_correlator_S(modes, nonuniform(x))),
        (lambda x: smoothed_spectrum(comb, epsilon, np.atleast_1d(x)).values,
         lambda x: one_shot_smoothed_values(comb, epsilon, np.atleast_1d(x))),
    ]


# ------------------------------------------------------- grid x lines kernels

@pytest.mark.parametrize("grid_points", [199, 193, 16, 1, 0])
def test_chunked_kernels_match_one_shot_bitwise(monkeypatch, grid_points):
    # 16-row chunks over 20 or 21 lines: 199 rows end in a ragged chunk of
    # 7, and the single row left over from 193 joins the last chunk.  Each
    # product stays below OpenBLAS's threading threshold, so BLAS threads
    # cannot regroup its rows.
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 16 * 21)
    form, modes = collective_mapping(point_model(21, 0.5))
    grid = np.linspace(0.0, 4.0, grid_points)
    for chunked, one_shot in kernel_pairs(form, modes, 0.3):
        for x in (grid, 1.7, np.float64(1.7), np.array(1.7)):
            got, ref = chunked(x), one_shot(x)
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_chunked_kernels_match_one_shot_at_benchmark_size():
    # with one BLAS thread, as the benchmark runs, chain-large's 1023 bath
    # lines split the grid into 256-row chunks, bit for bit the one-shot
    # products; 2049 points leave one row over, which must not go to dot
    code = """
import numpy as np
from collective_mode import build_next_neighbor_model, collective_mapping
from test_spectra import kernel_pairs
form, modes = collective_mapping(build_next_neighbor_model(1024, 1.0, 1.0, 0.5))
for n_grid in (2000, 2049, 3201):
    grid = np.linspace(0.0, 4.0, n_grid)
    for chunked, one_shot in kernel_pairs(form, modes, 0.01):
        assert chunked(grid).tobytes() == one_shot(grid).tobytes()
"""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_grid_rows_reuses_one_work_buffer(monkeypatch):
    # 16-row chunks over 21 lines: 193 points make eleven chunks of 16
    # rows and a last one of 17, which takes the single row left over
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 16 * 21)
    seen = []

    def row_values(x, work):
        seen.append((x.size, work))
        return 2.0 * x

    grid = np.linspace(0.0, 4.0, 193)
    assert dynamics._grid_rows(row_values, grid, 21).tobytes() == (2.0 * grid).tobytes()
    assert [rows for rows, _ in seen] == [16] * 11 + [17]
    for rows, work in seen:
        assert work.shape == (rows, 21) and work.dtype == float
        assert work.flags.c_contiguous
        assert np.shares_memory(work, seen[0][1])
    seen.clear()
    assert dynamics._grid_rows(row_values, grid[:40], 21, complex).shape == (40,)
    assert all(work.dtype == complex for _, work in seen)
    assert all(np.shares_memory(work, seen[0][1]) for _, work in seen)
    for grid, shape in ((np.empty(0), (0,)), (np.array([1.5]), (1,))):
        assert dynamics._grid_rows(row_values, grid, 21).shape == shape
    assert type(dynamics._grid_rows(row_values, np.array(1.5), 21)) is float


def test_spectral_kernels_stay_within_the_chunk_budget():
    # at N = 2e4 one 2000 x N complex array is 640 MB and W alone 3.2 GB;
    # the mapping and both kernels peak at a few complex chunks
    n = 20_000
    tracemalloc.start()
    try:
        model = build_next_neighbor_model(n, 1.0, 1.0, 0.5)
        form, modes = collective_mapping(model)
        grid = np.linspace(0.0, 4.0, 2000)
        eps = dynamics.default_epsilon(form)
        gamma_transform(form, grid, eps)
        smoothed_spectrum(strength_comb(modes), eps, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * dynamics._CHUNK_ELEMENTS
    assert {"w_matrix", "k_matrix"}.isdisjoint(vars(model))


# ---------------------------------------------------------------- sigma

def test_sigma_comb_n2_hand_value():
    # single line at sqrt(3) with weight (2 l)^2 / (2 m w) = 1/(2 sqrt(3))
    comb = sigma_comb(caldeira_leggett_form(point_model(2, 1.0))[0])
    assert comb.frequencies[0] == pytest.approx(np.sqrt(3.0), abs=1e-13)
    assert comb.weights[0] == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-12)


def test_sigma_comb_decoupled():
    comb = sigma_comb(caldeira_leggett_form(constant_k_model())[0])
    assert comb.weights.max() < 1e-25


def test_sigma_comb_matches_termwise_smoothing():
    # reference bath block built here from the chain's closed-form modes
    # and solved by scipy, independent of the package's mapping; the
    # comb's lines, Lorentzian-broadened with the 1/(2 m w) prefactor
    # taken at w, against the same sum over the reference lines
    n, m = 8, 1.0
    model = point_model(n, 1.0)
    a = standing_wave_basis(n)
    k_tilde = a @ (np.diag(model.row_coupling_sums) + model.k_matrix) @ a.T
    freqs = next_neighbor_frequencies(n, 1.0)
    evals, u = scipy.linalg.eigh(k_tilde[1:, 1:] + np.diag(m * freqs[1:] ** 2 / 2.0))
    bath_freqs = np.sqrt(2.0 * evals / m)
    couplings_l = u.T @ k_tilde[0, 1:]
    comb = sigma_comb(caldeira_leggett_form(model)[0])
    eps = 0.05
    for w in np.linspace(0.2, 2.2, 9):
        val = (comb.weights * comb.frequencies
               * (eps / np.pi) / ((w - comb.frequencies) ** 2 + eps**2)).sum() / w
        lor = (eps / np.pi) / ((w - bath_freqs) ** 2 + eps**2)
        ref = ((2 * couplings_l) ** 2 * lor).sum() / (2 * m * w)
        assert abs(val - ref) < 1e-8 * max(abs(ref), 1e-6)


def test_sigma_phonon_approximation_small_fluctuations():
    # constant coupling kappa plus a tiny unstructured fluctuation: the
    # lines sit at sqrt(w_n^2 + 2 N kappa / m) and the weights track the
    # fluctuating part alone
    rng = np.random.default_rng(5)
    n, kappa = 16, 0.05
    delta = 1e-4 * rng.uniform(0.0, 1.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    base = build_next_neighbor_model(n, 1.0, 1.0, 0.0)
    model = build_general_model(base.w_matrix, kappa + delta, mass=1.0)
    exact = sigma_comb(caldeira_leggett_form(model)[0])
    approx = sigma_phonon_approximation(model)
    assert np.abs(exact.frequencies - approx.frequencies).max() < 1e-3
    scale = exact.weights.max()
    assert np.abs(exact.weights - approx.weights).max() < 0.05 * scale


def test_sigma_phonon_approximation_weights_match_phonon_row():
    # the weights from the site-space coupling vector equal those of the
    # coupling row formed in the phonon basis
    model = disordered_model(64, 3)
    approx = sigma_phonon_approximation(model)
    k_vec = 2.0 * phonon_coupling_row(model)
    ref = k_vec**2 / (2.0 * model.mass * approx.frequencies)
    assert np.abs(approx.weights - ref).max() <= 1e-14 * ref.max()


# ------------------------------------------------------------- strengths

def test_strength_comb_decoupled_single_line():
    form = caldeira_leggett_form(constant_k_model(6, 0.4))[0]
    modes = collective_sector_modes(form)
    comb = strength_comb(modes)
    omega0 = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    i = np.argmax(comb.weights)
    assert comb.frequencies[i] == pytest.approx(omega0, rel=1e-12)
    assert comb.weights[i] == pytest.approx(0.5 / omega0, rel=1e-12)
    rest = np.delete(comb.weights, i)
    assert rest.max() < 1e-25


def test_strength_comb_n2_hand_values():
    modes = collective_sector_modes(caldeira_leggett_form(point_model(2, 1.0))[0])
    comb = strength_comb(modes)
    # sector matrix [[1, 1], [1, 3]]: frequencies sqrt(2 -+ sqrt(2)),
    # X weights (2 + sqrt(2))/4 and (2 - sqrt(2))/4
    w_lo = np.sqrt(2.0 - np.sqrt(2.0))
    w_hi = np.sqrt(2.0 + np.sqrt(2.0))
    c_lo = (2.0 + np.sqrt(2.0)) / 4.0
    c_hi = (2.0 - np.sqrt(2.0)) / 4.0
    assert np.allclose(comb.frequencies, [w_lo, w_hi], atol=1e-12)
    assert np.allclose(comb.weights, [0.5 * c_lo / w_lo, 0.5 * c_hi / w_hi],
                       atol=1e-12)


def test_strength_sum_rule():
    # sum of weight * frequency = hbar / 2m, from the normalization of
    # the X coefficients
    for n, alpha in ((4, 0.5), (16, 2.0)):
        modes = collective_sector_modes(caldeira_leggett_form(point_model(n, alpha))[0])
        comb = strength_comb(modes)
        assert (comb.weights * comb.frequencies).sum() == pytest.approx(0.5, abs=1e-12)


def test_strength_comb_rejects_unbound_mode():
    model = point_model(8, 0.0)      # no coupling: X is free
    modes = collective_sector_modes(caldeira_leggett_form(model)[0])
    with pytest.raises(ValueError):
        strength_comb(modes)


def test_correlator_at_zero_equals_total_weight():
    modes = collective_sector_modes(caldeira_leggett_form(point_model(8, 1.0))[0])
    comb = strength_comb(modes)
    s0 = correlator_S(modes, 0.0)
    assert s0.imag == 0.0
    assert s0.real == pytest.approx(comb.total_weight, rel=1e-14)


def test_correlator_bounded():
    modes = collective_sector_modes(caldeira_leggett_form(point_model(8, 1.0))[0])
    t = np.linspace(0.0, 200.0, 2000)
    s = correlator_S(modes, t)
    assert (np.abs(s) <= np.abs(correlator_S(modes, 0.0)) + 1e-12).all()


def test_correlator_imaginary_part_is_classical_trajectory():
    # Im S(t) = -(hbar / 2 P0) X(t), pointwise at machine precision
    model = point_model(32, 1.0)
    modes = collective_sector_modes(caldeira_leggett_form(model)[0])
    t = np.linspace(0.0, 80.0, 10000)
    p0 = 1.7
    x = evolve_exact(modes, p0, t).positions
    s = correlator_S(modes, t)
    assert np.abs(s.imag + 0.5 / p0 * x).max() < 1e-12


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_correlator_matches_complex_exponential_oracle(seed):
    # cos and sin sums against the complex exponential sum, over the
    # verify grid of a disordered model and at scalar times
    modes = collective_sector_modes(caldeira_leggett_form(disordered_model(64, seed))[0])
    t = np.linspace(0.0, 32.0, 2001)
    ref = correlator_exp(modes, t)
    assert np.abs(correlator_S(modes, t) - ref).max() <= 1e-13 * np.abs(ref).max()
    for t0 in (0.0, 7.25, 31.5):
        s0 = correlator_S(modes, t0)
        assert type(s0) is complex
        assert abs(s0 - correlator_exp(modes, t0)) <= 1e-13 * abs(ref[0])


@pytest.mark.parametrize("n_points", [2, 63, 64, 65, 2001])
@pytest.mark.parametrize("kind", ["chain", "disordered"])
def test_correlator_split_route_matches_direct_phases(kind, n_points):
    # a uniform grid from 0 takes the blocked angle-addition split; on
    # grids ending inside, at and just past a block it matches the
    # direct-phase sums to round-off
    model = point_model(64, 0.5) if kind == "chain" else disordered_model(64, 3)
    modes = collective_sector_modes(caldeira_leggett_form(model)[0])
    t = np.linspace(0.0, 32.0, n_points)
    s = correlator_S(modes, t)
    ref = one_shot_correlator_S(modes, t)
    assert s.shape == (n_points,) and s.dtype == complex
    assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_verify_correlator_checks_on_disordered_model(seed):
    # the verify checks that read the correlator stay inside their bounds
    # on the benchmark's kind of disordered model, at N = 64
    checks = {c.name: c for c in run_checks(disordered_model(64, seed), p0=1.0,
                                             t_max=32.0, steps=3200)}
    for name in ("spectra.comb_total_equals_correlator_at_zero",
                 "spectra.classical_quantum_link"):
        assert checks[name].tolerance == 1e-12
        assert checks[name].passed, (name, checks[name].measured)


# ------------------------------------------------------------- smoothing

def test_smoothed_spectrum_single_line_peak():
    comb = DeltaComb(frequencies=np.array([1.3]), weights=np.array([0.7]))
    w = np.linspace(0.0, 3.0, 3001)
    table = smoothed_spectrum(comb, 0.02, w)
    i = np.argmax(table.values)
    assert w[i] == pytest.approx(1.3, abs=2e-3)
    assert table.values[i] == pytest.approx(0.7 / (np.pi * 0.02), rel=1e-3)


def test_smoothed_spectrum_integral_preserves_weight():
    modes = collective_sector_modes(caldeira_leggett_form(point_model(16, 1.0))[0])
    comb = strength_comb(modes)
    eps = 3.0 * mean_bath_spacing(caldeira_leggett_form(point_model(16, 1.0))[0])
    w = np.linspace(-40.0, 44.0, 120001)
    table = smoothed_spectrum(comb, eps, w)
    integral = np.trapezoid(table.values, w)
    assert integral == pytest.approx(comb.total_weight, rel=0.01)


def test_smoothed_spectrum_resolves_separated_lines():
    comb = DeltaComb(frequencies=np.array([1.0, 2.0]), weights=np.array([1.0, 1.0]))
    w = np.linspace(0.0, 3.0, 3001)
    table = smoothed_spectrum(comb, 0.2, w)   # eps < separation / 4
    v = table.values
    maxima = np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0]
    assert maxima.size == 2


def test_smoothing_in_window():
    # eleven lines 0.1 apart up to 2.0: the window is 0.2 <= eps <= 1.0
    comb = DeltaComb(frequencies=np.linspace(1.0, 2.0, 11),
                     weights=np.ones(11))
    assert not smoothing_in_window(comb, 0.05)   # spiky
    assert not smoothing_in_window(comb, 1.5)    # washed out
    assert smoothing_in_window(comb, 0.3)
    # both ends are inclusive
    assert smoothing_in_window(comb, 0.2) and smoothing_in_window(comb, 1.0)
    assert not smoothing_in_window(comb, np.nextafter(0.2, 0.0))
    assert not smoothing_in_window(comb, np.nextafter(1.0, 2.0))
    # a single line has no spacing, an empty comb no shape
    line = DeltaComb(frequencies=np.array([1.3]), weights=np.array([0.7]))
    assert smoothing_in_window(line, 0.02) and not smoothing_in_window(line, 1.0)
    assert not smoothing_in_window(DeltaComb(np.empty(0), np.empty(0)), 0.3)
    with pytest.raises(ValueError):
        smoothed_spectrum(comb, 0.0, np.linspace(0.0, 3.0, 301))


# ------------------------------------------------------------- ohmic

def ohmic_params(omega_bar=1.0, gamma_bar=0.1):
    g0 = 2.0 * gamma_bar
    w0_sq = omega_bar**2 + g0**2 / 4.0
    return OscillatorParams(w0_sq, g0)


def test_ohmic_spectrum_reference_value():
    # (0.1 / 2 pi) (1/0.01 - 1/4.01) at omega = 1
    params = ohmic_params()
    table = ohmic_spectrum(params, np.array([1.0]), 1.0, 1.0)
    assert table.values[0] == pytest.approx(1.5875804, abs=1e-6)


def test_ohmic_spectrum_vanishes_at_nonpositive_frequency():
    params = ohmic_params()
    table = ohmic_spectrum(params, np.array([-1.0, 0.0, 1.0]), 1.0, 1.0)
    assert table.values[0] == 0.0
    assert table.values[1] == 0.0
    assert table.values[2] > 0.0


def test_ohmic_spectrum_peak_near_omega_bar():
    params = ohmic_params(1.0, 0.08)
    w = np.linspace(0.0, 4.0, 8001)
    table = ohmic_spectrum(params, w, 1.0, 1.0)
    assert abs(w[np.argmax(table.values)] - 1.0) < 0.08


def test_ohmic_spectrum_sum_rule_in_weak_damping_limit():
    # integrated weight tends to the free-oscillator value hbar/(2 m W0)
    params = ohmic_params(1.0, 1e-3)
    w = np.linspace(0.0, 60.0, 600001)
    table = ohmic_spectrum(params, w, 1.0, 1.0)
    integral = np.trapezoid(table.values, w)
    assert integral == pytest.approx(0.5, rel=1e-2)


@pytest.mark.parametrize("omega_bar, gamma_bar", [
    (1.0, 0.1), (1.0, 1e-3), (0.3, 0.25), (2.0, 1.5)])
def test_ohmic_two_lorentzian_form_matches_constant_friction_form(omega_bar, gamma_bar):
    # oracle: the paper's underdamped form, two Lorentzians in
    # (omega_bar, gamma_bar); the product of their denominators is
    # (W0^2 - w^2)^2 + (w g0)^2, the one ohmic_spectrum evaluates
    params = ohmic_params(omega_bar, gamma_bar)
    hbar, mass = 0.7, 1.3
    w = np.linspace(-1.0, 8.0, 9001)
    values = ohmic_spectrum(params, w, hbar, mass).values
    pos = w > 0
    wp, wb, gb = w[pos], params.omega_bar, params.gamma_bar
    two_lorentzian = hbar * gb / (2.0 * np.pi * mass * wb) * (
        1.0 / ((wp - wb) ** 2 + gb**2) - 1.0 / ((wp + wb) ** 2 + gb**2))
    assert np.abs(values[pos] - two_lorentzian).max() <= 1e-10 * two_lorentzian.max()
    assert (values[~pos] == 0.0).all()


# --------------------------------------------------------- convolutions

def test_convolution_power_identity():
    w = np.linspace(0.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.exp(-((w - 1.0) ** 2) / 0.02))
    out = convolution_power_spectrum(base, 1)
    assert np.array_equal(out.values, base.values)


def test_convolution_power_one_returns_a_heavy_tailed_base_unchanged():
    # the tail refusal guards powers n >= 2 only: n = 1 convolves nothing,
    # so a base with most of its mass in the grid's last 1 % comes back as is
    w = np.linspace(0.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.where(w > 3.97, 1.0, 1e-3))
    assert tail_fraction(base) > 0.4
    out = convolution_power_spectrum(base, 1)
    assert np.array_equal(out.omegas, w)
    assert np.array_equal(out.values, base.values)


def test_convolution_power_refuses_a_power_below_one():
    w = np.linspace(0.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.exp(-w))
    with pytest.raises(ValueError, match="power must be >= 1, got 0"):
        convolution_power_spectrum(base, 0)


def test_convolution_power_double_frequency_peak():
    params = ohmic_params()
    w = np.linspace(0.0, 4.0, 2000)
    base = ohmic_spectrum(params, w, 1.0, 1.0)
    out = convolution_power_spectrum(base, 2)
    assert abs(w[np.argmax(out.values)] - 2.0) < 0.05


def test_convolution_power_width_doubles():
    params = ohmic_params()
    w = np.linspace(0.0, 4.0, 2000)
    base = ohmic_spectrum(params, w, 1.0, 1.0)
    out = convolution_power_spectrum(base, 2)

    def fwhm(vals):
        i = np.argmax(vals)
        half = vals[i] / 2.0
        left = np.where(vals[:i] < half)[0]
        right = np.where(vals[i:] < half)[0]
        return w[i + right[0]] - w[left[-1]]

    ratio = fwhm(out.values) / fwhm(base.values)
    assert abs(ratio - 2.0) < 0.3


def test_convolution_power_gaussian_oracle():
    # Gaussians convolve in closed form: variance adds, n! prefactor
    w = np.linspace(0.0, 12.0, 6000)
    sig = 0.15
    mu = 1.2
    base = SpectrumTable(
        omegas=w,
        values=np.exp(-((w - mu) ** 2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi)),
    )
    out = convolution_power_spectrum(base, 3)
    ref = 6.0 * np.exp(-((w - 3 * mu) ** 2) / (6 * sig**2)) / (
        sig * np.sqrt(3.0) * np.sqrt(2 * np.pi))
    assert np.abs(out.values - ref).max() < 1e-3 * ref.max()


def test_convolution_power_wick_time_domain_cross_check():
    # Fourier transform of 2 S(t)^2 against 2 (S~ * S~) on the same
    # grid, with a Gaussian window shared between the two routes; the
    # resonance sits mid-band so every line is well above the window tail
    modes = collective_sector_modes(shifted_form(point_model(16, 1.0)))
    comb = strength_comb(modes)
    sig = 0.04
    dw = sig / 8.0
    w = np.arange(0.0, 2.4 * comb.frequencies.max(), dw)
    gauss = np.exp(-0.5 * ((w[:, None] - comb.frequencies[None, :]) / sig) ** 2)
    sm = SpectrumTable(omegas=w, values=gauss @ comb.weights / (sig * np.sqrt(2 * np.pi)))
    conv = convolution_power_spectrum(sm, 2)

    t = np.arange(0.0, np.sqrt(72.0) / sig, 0.003)
    s_t = correlator_S(modes, t)
    f = 2.0 * s_t**2 * np.exp(-(t * sig) ** 2)
    time_route = np.empty_like(w)
    for i in range(0, w.size, 400):
        phase = np.exp(1j * np.outer(w[i:i + 400], t))
        vals = (phase * f).real
        vals[:, 0] *= 0.5
        vals[:, -1] *= 0.5
        time_route[i:i + 400] = vals.sum(axis=1) * 0.003 / np.pi
    assert np.abs(time_route - conv.values).max() < 1e-3 * np.abs(conv.values).max()


def test_convolution_power_refuses_heavy_tail():
    w = np.linspace(0.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=w.copy())  # growing toward the end
    with pytest.raises(ValueError, match="grid too narrow"):
        convolution_power_spectrum(base, 2)


@pytest.mark.parametrize("grid_points, heavy", [(2000, False), (1000, True)])
def test_tail_fraction_is_the_share_of_the_last_bins(grid_points, heavy):
    # the ohmic spectrum on the default grid, and the growing spectrum
    # that convolution refuses
    w = np.linspace(0.0, 4.0, grid_points)
    base = SpectrumTable(omegas=w, values=w.copy() if heavy
                         else ohmic_spectrum(ohmic_params(), w).values)
    h = w[1] - w[0]
    bins = max(grid_points // 100, 2)
    ratio = float(base.values[-bins:].sum() * h) / float(base.values.sum() * h)
    assert tail_fraction(base) == pytest.approx(ratio, rel=1e-15)
    assert (tail_fraction(base) > 1e-2) is heavy


def test_tail_fraction_needs_mass_on_a_uniform_grid():
    w = np.linspace(0.0, 4.0, 100)
    with pytest.raises(ValueError, match="no mass"):
        tail_fraction(SpectrumTable(omegas=w, values=np.zeros_like(w)))
    with pytest.raises(ValueError, match="uniform"):
        tail_fraction(SpectrumTable(omegas=w**2, values=np.ones_like(w)))


def test_spectra_functions_do_not_warn():
    # outside the smoothing window and with a tail between 1e-6 and 1e-2
    # both functions return quietly; the predicates are the check
    comb = DeltaComb(frequencies=np.linspace(1.0, 2.0, 11), weights=np.ones(11))
    w = np.linspace(0.0, 4.0, 2000)
    base = ohmic_spectrum(ohmic_params(), w)
    assert 1e-6 < tail_fraction(base) < 1e-2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.05, 1.5):
            smoothed_spectrum(comb, eps, w)
        convolution_power_spectrum(base, 2)


def test_convolution_power_requires_grid_from_zero():
    w = np.linspace(1.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.exp(-w))
    with pytest.raises(ValueError, match="start at 0"):
        convolution_power_spectrum(base, 2)


def test_spectrum_grid_must_increase():
    # a constant or descending grid has no positive step to integrate with
    for w in (np.zeros(5), -np.linspace(0.0, 4.0, 1000)):
        base = SpectrumTable(omegas=w, values=np.exp(-np.abs(w)))
        with pytest.raises(ValueError, match="uniform and increasing"):
            observable_spectrum(base, {2: 1.0})


def test_observable_spectrum_combines_powers():
    w = np.linspace(0.0, 12.0, 4000)
    sig = 0.2
    base = SpectrumTable(
        omegas=w,
        values=np.exp(-((w - 1.5) ** 2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi)),
    )
    h = w[1] - w[0]
    conv2 = np.convolve(base.values, base.values)[: w.size] * h
    out = observable_spectrum(base, {1: 0.3, 2: 2.0})
    ref = 0.3 * base.values + 2.0 * conv2
    assert np.abs(out.values - ref).max() < 1e-12 * ref.max()
    # a zero coefficient is skipped, the power it names included
    for coefficients in ({1: 0.0, 2: 2.0}, {2: 2.0, 3: 0.0}):
        assert np.array_equal(observable_spectrum(base, coefficients).values,
                              observable_spectrum(base, {2: 2.0}).values)
    with pytest.raises(ValueError):
        observable_spectrum(base, {0: 1.0})


# ------------------------------------------------------------------ fdt

def test_fdt_free_oscillator_line():
    form = caldeira_leggett_form(constant_k_model(6, 0.4))[0]
    omega0 = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    eps = 1e-3 * omega0
    w = np.linspace(0.0, 8.0 * omega0, 400001)
    table = fdt_spectrum(form, w, eps)
    i = np.argmax(table.values)
    assert w[i] == pytest.approx(omega0, abs=2 * eps)
    integral = np.trapezoid(table.values, w)
    assert integral == pytest.approx(0.5 / omega0, rel=1e-2)


def test_fdt_agrees_with_smoothed_comb():
    # the module's central cross-validation: resolvent route vs
    # broadened line route, resonance mid-band
    form = shifted_form(point_model(32, 1.0))
    eps = 5.0 * mean_bath_spacing(form)
    modes = collective_sector_modes(form)
    comb = strength_comb(modes)
    w = np.linspace(0.0, 4.0, 4001)
    sm = smoothed_spectrum(comb, eps, w)
    fd = fdt_spectrum(form, w, eps)
    assert np.abs(fd.values - sm.values).max() < 0.12 * sm.values.max()


def test_fdt_agrees_with_dressed_ohmic_closed_form():
    # with a flat kernel the resolvent at omega + i eps equals the
    # constant-friction spectrum at (W0^2 + eps^2 + eps g0, g0 + 2 eps)
    form = shifted_form(point_model(64, 1.0))
    params = collective_frequency(form)
    eps = 5.0 * mean_bath_spacing(form)
    w = np.linspace(0.0, 4.0, 4001)
    fd = fdt_spectrum(form, w, eps)
    g_d = params.gamma0 + 2.0 * eps
    w0_sq_d = params.omega0_sq + eps**2 + eps * params.gamma0
    dressed = OscillatorParams(w0_sq_d, g_d)
    oh = ohmic_spectrum(dressed, w, form.hbar, form.mass)
    mask = np.abs(w - np.sqrt(params.omega0_sq)) < 3.0 * g_d / 2.0
    scale = oh.values.max()
    assert np.abs(fd.values[mask] - oh.values[mask]).max() < 0.10 * scale


def test_fdt_positive_and_zero_below_cutoff():
    form = shifted_form(point_model(16, 1.0))
    w = np.linspace(-1.0, 4.0, 2001)
    table = fdt_spectrum(form, w, 0.3)
    assert (table.values[w <= 0] == 0.0).all()
    assert table.values.min() >= -1e-12 * table.values.max()


def chain_resolvent_case(n, alpha, spacings, mass, omega0):
    """(form, grid, eps, oracle values) of a point-coupled chain: eps in
    mean bath spacings, 401 points from 0 to 1.5 x the top sector line,
    which covers the band edge 2 omega0 and an isolated top line."""
    form, modes = collective_mapping(build_next_neighbor_model(n, mass, omega0, alpha))
    eps = spacings * mean_bath_spacing(form)
    w = np.linspace(0.0, 1.5 * modes.frequencies[-1], 401)
    rho, w0_sq = _chain_units(form)
    return form, w, eps, long_double_chain_fdt(n, rho, w0_sq, mass, form.hbar, w, eps)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the oracle needs an extended-precision long double")
@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (1.3, 0.8)])
@pytest.mark.parametrize("spacings", [0.2, 5.0, 50.0])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 1000.0])
@pytest.mark.parametrize("n", [2, 3, 16, 64, 257, 1024, 4096])
def test_chain_resolvent_matches_long_double_pole_sum(n, alpha, spacings, mass, omega0):
    # the closed form of a chain form's recipe against the resolvent
    # summed over the chain's poles in extended precision
    form, w, eps, ref = chain_resolvent_case(n, alpha, spacings, mass, omega0)
    err = np.abs(fdt_spectrum(form, w, eps).values - ref).max()
    assert err <= 1e-12 * np.abs(ref).max()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the oracle needs an extended-precision long double")
@pytest.mark.parametrize("n, alpha", [(3, 1000.0), (64, 0.01), (257, 0.5)])
def test_chain_resolvent_bound_catches_a_perturbed_rho(n, alpha):
    # alpha, and so rho, off by a relative 1e-9 moves these spectra by
    # 1e-11 to 1e-9 of the maximum (at N = 1024, alpha = 1000 by only
    # 2e-13: there the resolvent barely depends on rho)
    form, w, eps, ref = chain_resolvent_case(n, alpha, 0.2, 1.3, 0.8)
    bad = replace(form)
    object.__setattr__(bad, "_chain", form._chain._replace(alpha=alpha * (1 + 1e-9)))
    err = np.abs(fdt_spectrum(bad, w, eps).values - ref).max()
    assert err > 1e-12 * np.abs(ref).max()


def line_sum_fdt(form, w, eps):
    """fdt_spectrum as the sum over the form's bath lines."""
    z = w + 1j * eps
    denom = omega0_squared(form) - z**2 - 1j * z * gamma_transform(form, w, eps)
    return np.where(w > 0, form.hbar / (form.mass * np.pi) * (1.0 / denom).imag, 0.0)


def test_copied_chain_form_keeps_the_line_sum(monkeypatch):
    form, _ = collective_mapping(build_next_neighbor_model(64, 1.3, 0.8, 0.5))
    w = np.linspace(0.0, 3.0, 777)
    eps = 5.0 * mean_bath_spacing(form)
    for copy in (replace(form), replace(form, k_tilde_11=form.k_tilde_11 + 0.3)):
        assert copy._chain is None
        assert np.array_equal(fdt_spectrum(copy, w, eps).values,
                              line_sum_fdt(copy, w, eps))
    lines = line_sum_fdt(form, w, eps)
    # the mapped form itself sums no line
    monkeypatch.setattr(spectra, "gamma_transform", None)
    values = fdt_spectrum(form, w, eps).values
    assert 0 < np.abs(values - lines).max() <= 1e-12 * values.max()


def test_chain_resolvent_rejects_nonpositive_width_and_is_zero_below():
    form, _ = collective_mapping(build_next_neighbor_model(16, 1.0, 1.0, 0.5))
    w = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    for eps in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            fdt_spectrum(form, w, eps)
    values = fdt_spectrum(form, w, 0.2).values
    assert (values[:3] == 0.0).all() and (values[3:] > 0).all()


# ------------------------------------------------------------- sparsity

def test_most_full_system_modes_carry_no_strength():
    # the symmetric sector (half of all 2N modes) is orthogonal to X
    model = point_model(8, 1.0)
    n = model.n_particles
    q = full_potential_matrix(model)
    evals, evecs = scipy.linalg.eigh(2.0 * q / model.mass)
    u = np.zeros(2 * n)
    u[:n] = 1.0
    u[n:] = -1.0
    u /= np.sqrt(2 * n)
    c_full = evecs.T @ u
    strengths = c_full**2
    assert (strengths < 1e-20).sum() >= n


def test_delta_comb_validation():
    with pytest.raises(ValueError):
        DeltaComb(frequencies=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DeltaComb(frequencies=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="frequencies and weights must be matching 1-d"):
        DeltaComb(frequencies=np.array([1.0]), weights=np.array([1.0, 2.0]))


def test_spectrum_table_validation():
    with pytest.raises(ValueError, match="non-finite"):
        SpectrumTable(omegas=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="omegas and values must be matching 1-d"):
        SpectrumTable(omegas=np.array([0.0, 1.0]), values=np.array([1.0]))


def test_positivity_across_spectra():
    form = shifted_form(point_model(16, 1.0))
    modes = collective_sector_modes(form)
    comb = strength_comb(modes)
    assert (comb.weights >= 0).all()
    assert (sigma_comb(form).weights >= 0).all()
    w = np.linspace(0.0, 4.0, 2001)
    eps = 5.0 * mean_bath_spacing(form)
    assert smoothed_spectrum(comb, eps, w).values.min() >= 0.0
    params = collective_frequency(form)
    assert ohmic_spectrum(params, w, 1.0, 1.0).values.min() >= 0.0
