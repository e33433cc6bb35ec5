import warnings

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    DeltaComb,
    SpectrumTable,
    SystemModel,
    UnstableModelError,
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_frequency,
    collective_sector_modes,
    convolution_power_spectrum,
    correlator_S,
    damping_kernel,
    evolve_exact,
    fdt_spectrum,
    full_potential_matrix,
    mean_bath_spacing,
    observable_spectrum,
    ohmic_spectrum,
    shift_collective_potential,
    sigma_comb,
    sigma_phonon_approximation,
    sigma_resolvent,
    smoothed_spectrum,
    strength_comb,
)
from collective_mode.dynamics import OscillatorParams


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
    return shift_collective_potential(form, k0)


# ---------------------------------------------------------------- sigma

def test_sigma_comb_n2_hand_value():
    # single line at sqrt(3) with weight (2 l)^2 / (2 m w) = 1/(2 sqrt(3))
    comb = sigma_comb(caldeira_leggett_form(point_model(2, 1.0))[0])
    assert comb.frequencies[0] == pytest.approx(np.sqrt(3.0), abs=1e-13)
    assert comb.weights[0] == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-12)


def test_sigma_comb_decoupled():
    comb = sigma_comb(caldeira_leggett_form(constant_k_model())[0])
    assert comb.weights.max() < 1e-25


def test_sigma_resolvent_matches_termwise_smoothing():
    model = point_model(8, 1.0)
    form = caldeira_leggett_form(model)[0]
    eps = 0.05
    for w in np.linspace(0.2, 2.2, 9):
        val = sigma_resolvent(model, w, eps)
        lor = (eps / np.pi) / ((w - form.bath_freqs) ** 2 + eps**2)
        ref = ((2 * form.couplings_l) ** 2 * lor).sum() / (2 * form.mass * w)
        assert abs(val - ref) < 1e-8 * max(abs(ref), 1e-6)


def test_sigma_resolvent_peak_height():
    model = point_model(8, 1.0)
    form = caldeira_leggett_form(model)[0]
    comb = sigma_comb(form)
    eps = 1e-4
    peak = sigma_resolvent(model, form.bath_freqs[0], eps)
    assert peak == pytest.approx(comb.weights[0] / (np.pi * eps), rel=1e-4)


def test_sigma_resolvent_below_band():
    model = point_model(8, 1.0)
    form = caldeira_leggett_form(model)[0]
    w1 = form.bath_freqs[0]
    val = sigma_resolvent(model, 0.01 * w1, 0.1 * w1)
    comb = sigma_comb(form)
    lor = (0.1 * w1 / np.pi) / ((0.01 * w1 - comb.frequencies) ** 2 + (0.1 * w1) ** 2)
    tail = ((2 * form.couplings_l) ** 2 * lor).sum() / (2 * form.mass * 0.01 * w1)
    assert abs(val) < tail + 1e-10


def test_sigma_resolvent_rejects_zero_frequency():
    with pytest.raises(ValueError):
        sigma_resolvent(point_model(4, 1.0), 0.0, 0.1)


def test_sigma_resolvent_rejects_unstable_bath():
    # the negative coupling of test_mapping's unstable bath (bypasses
    # validation) gives the bath block a negative mode
    w = build_next_neighbor_model(2, 1.0, 1.0, 0.0).w_matrix
    k = np.zeros((2, 2))
    k[0, 0] = -2.0
    with pytest.raises(UnstableModelError, match="bath block"):
        sigma_resolvent(SystemModel(2, 1.0, w, k), 1.0, 0.1)


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


# ------------------------------------------------------------- smoothing

def test_smoothed_spectrum_single_line_peak():
    comb = DeltaComb(frequencies=np.array([1.3]), weights=np.array([0.7]))
    w = np.linspace(0.0, 3.0, 3001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = smoothed_spectrum(comb, 0.2, w)   # eps < separation / 4
    v = table.values
    maxima = np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0]
    assert maxima.size == 2


def test_smoothed_spectrum_window_warnings():
    comb = DeltaComb(frequencies=np.linspace(1.0, 2.0, 11),
                     weights=np.ones(11))
    w = np.linspace(0.0, 3.0, 301)
    with pytest.warns(UserWarning, match="spiky"):
        smoothed_spectrum(comb, 0.05, w)
    with pytest.warns(UserWarning, match="washed out"):
        smoothed_spectrum(comb, 1.5, w)
    with pytest.raises(ValueError):
        smoothed_spectrum(comb, 0.0, w)


# ------------------------------------------------------------- ohmic

def ohmic_params(omega_bar=1.0, gamma_bar=0.1):
    g0 = 2.0 * gamma_bar
    w0_sq = omega_bar**2 + g0**2 / 4.0
    return OscillatorParams(w0_sq, g0, omega_bar, gamma_bar, "underdamped")


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


# --------------------------------------------------------- convolutions

def test_convolution_power_identity():
    w = np.linspace(0.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.exp(-((w - 1.0) ** 2) / 0.02))
    out = convolution_power_spectrum(base, 1)
    assert np.array_equal(out.values, base.values)


def test_convolution_power_double_frequency_peak():
    params = ohmic_params()
    w = np.linspace(0.0, 4.0, 2000)
    base = ohmic_spectrum(params, w, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = convolution_power_spectrum(base, 2)
    assert abs(w[np.argmax(out.values)] - 2.0) < 0.05


def test_convolution_power_width_doubles():
    params = ohmic_params()
    w = np.linspace(0.0, 4.0, 2000)
    base = ohmic_spectrum(params, w, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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


def test_convolution_power_requires_grid_from_zero():
    w = np.linspace(1.0, 4.0, 1000)
    base = SpectrumTable(omegas=w, values=np.exp(-w))
    with pytest.raises(ValueError, match="start at 0"):
        convolution_power_spectrum(base, 2)


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
    dressed = OscillatorParams(
        w0_sq_d, g_d, np.sqrt(w0_sq_d - g_d**2 / 4.0), g_d / 2.0, "underdamped")
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
    with pytest.raises(ValueError):
        DeltaComb(frequencies=np.array([1.0]), weights=np.array([1.0, 2.0]))


def test_spectrum_table_validation():
    with pytest.raises(ValueError):
        SpectrumTable(omegas=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
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
