"""Transition strengths and spectral functions of the collective mode.

The quantum side: the spectral density of the bath, the strength comb
of the ground-state transitions induced by X, the time correlator, the
Lorentzian-smoothed spectra, the fluctuation-dissipation route to the
same smoothed spectrum, the constant-friction closed forms, and the
convolution powers describing observables X^n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    OscillatorParams, _check_uniform_grid, _grid_rows, _grid_step, _split_sums,
    gamma_transform, omega0_squared,
)
from .mapping import (
    CollectiveForm, QuantumModes, decoupling_indicator,
)
from .model import SystemModel, phonon_spectrum

__all__ = [
    "DeltaComb", "SpectrumTable",
    "sigma_comb", "sigma_phonon_approximation",
    "strength_comb", "correlator_S", "smoothed_spectrum",
    "ohmic_spectrum", "convolution_power_spectrum", "observable_spectrum",
    "fdt_spectrum", "fdt_comparison_in_window", "smoothing_in_window",
    "tail_fraction",
]


@dataclass(frozen=True)
class DeltaComb:
    """Finite line spectrum: ascending frequencies with nonnegative weights."""

    frequencies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if f.shape != w.shape or f.ndim != 1:
            raise ValueError("frequencies and weights must be matching 1-d arrays")
        if f.size >= 2 and (np.diff(f) < 0).any():
            raise ValueError("frequencies must be sorted ascending")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "weights", w)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class SpectrumTable:
    """Real spectrum sampled on a frequency grid."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if o.shape != v.shape or o.ndim != 1:
            raise ValueError("omegas and values must be matching 1-d arrays")
        if not np.isfinite(v).all():
            raise ValueError("spectrum contains non-finite values")
        object.__setattr__(self, "omegas", o)
        object.__setattr__(self, "values", v)


def sigma_comb(form: CollectiveForm) -> DeltaComb:
    """Spectral density of the bath: weight (2 l_n)^2 / (2 m w_n) per line.

    The equations of motion couple X to each bath mode with twice the
    stored l (cross terms of the quadratic form), so the dissipative
    weights carry (2 l_n)^2.
    """
    w = form.bath_freqs
    return DeltaComb(
        frequencies=w,
        weights=(2.0 * form.couplings_l) ** 2 / (2.0 * form.mass * w),
    )


def sigma_phonon_approximation(model: SystemModel) -> DeltaComb:
    """Weak-fluctuation approximation of the spectral density.

    Places weight k_n^2 / (2 m w) at the shifted chain frequencies
    sqrt(w_{n+1}^2 + 2 N kappa / m), where kappa, the constant part of
    the coupling, is the mean entry of K, and the k_n are set by the
    fluctuating part alone.  Diagnostic companion to sigma_comb, valid
    when the fluctuations are small against the level spacing.
    """
    kappa = float(model.k_matrix.mean())
    phonons = phonon_spectrum(model)
    n = model.n_particles
    m = model.mass
    shifted = np.sqrt(phonons.frequencies[1:] ** 2 + 2.0 * n * kappa / m)
    # equations-of-motion coupling, rotated into the phonon basis
    k_vec = 2.0 * (phonons.basis[1:] @ decoupling_indicator(model)[0])
    return DeltaComb(frequencies=shifted, weights=k_vec**2 / (2.0 * m * shifted))


def strength_comb(modes: QuantumModes) -> DeltaComb:
    """Ground-state transition strengths induced by X.

    One line per sector mode: weight (hbar / 2 m) c_n^2 / w_n at w_n.
    """
    w = modes.frequencies
    if (w <= 0).any():
        raise ValueError(
            "strength comb needs strictly positive mode frequencies "
            "(the collective coordinate is unbound)"
        )
    weights = modes.hbar / (2.0 * modes.mass) * modes.x_coefficients**2 / w
    return DeltaComb(frequencies=w, weights=weights)


def correlator_S(modes: QuantumModes, t):
    """Ground-state time correlator of X:
    (hbar / 2 m) sum_n c_n^2 / w_n exp(-i w_n t).

    On a uniform 1-d grid from 0 both parts come from one product of the
    blocked angle-addition split (trig on (T / 64 + 64) N phases for T
    points); a scalar or any other grid sums the phases directly, a chunk
    of rows at a time.
    """
    comb = strength_comb(modes)   # the weights and their positivity guard
    w, coeff = comb.frequencies, comb.weights
    x = np.asarray(t, dtype=float)
    h = _grid_step(x)
    if h is not None:
        sin_sum, cos_sum = _split_sums(w, h, x.size, coeff, coeff)
        return cos_sum - 1j * sin_sum

    def row_values(t, work):
        # the phases are formed again for sin, so cos can take their place
        re = np.cos(np.multiply.outer(t, w, out=work), out=work) @ coeff
        return re - 1j * (np.sin(np.multiply.outer(t, w, out=work), out=work) @ coeff)
    return _grid_rows(row_values, t, w.size)


def smoothed_spectrum(comb: DeltaComb, epsilon, omegas) -> SpectrumTable:
    """Lorentzian broadening of a line spectrum, termwise and exact.

    Any positive epsilon is accepted; smoothing_in_window says whether
    it resolves the comb's shape.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    f = comb.frequencies
    w = np.asarray(omegas, dtype=float)

    def row_values(x, lorentz):
        np.square(np.subtract(x[:, None], f, out=lorentz), out=lorentz)
        lorentz += epsilon**2
        return np.divide(epsilon / np.pi, lorentz, out=lorentz) @ comb.weights
    return SpectrumTable(omegas=w, values=_grid_rows(row_values, w, f.size))


def ohmic_spectrum(params: OscillatorParams, omegas, hbar=1.0, mass=1.0) -> SpectrumTable:
    """Smoothed strength spectrum for a constant (memoryless) friction:
    (hbar / m pi) w g0 / ((W0^2 - w^2)^2 + (w g0)^2) for w > 0, 0 below.

    In the underdamped regime this is the paper's pair of Lorentzians
    in (omega_bar, gamma_bar); the product of their denominators is the
    one above.
    """
    w = np.asarray(omegas, dtype=float)
    pos = w > 0
    wp = w[pos]
    values = np.zeros_like(w)
    g0 = params.gamma0
    denom = (params.omega0_sq - wp**2) ** 2 + (wp * g0) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        values[pos] = hbar / (mass * np.pi) * wp * g0 / denom
    return SpectrumTable(omegas=w, values=values)


def convolution_power_spectrum(base: SpectrumTable, n: int) -> SpectrumTable:
    """n-fold self-convolution of a spectrum, scaled by n!.

    The factorial counts the fully crossed pairings of n identical
    factors (2 for n = 2).  The convolution is observable_spectrum's
    n-fold term; the grid must start at 0, and for n >= 2 a tail_fraction
    above 1e-2 is refused.  For spectra supported on w >= 0 the
    convolution below a grid point never reaches past the grid, so a
    lighter tail only makes the far end of the result approximate.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    w, _ = _check_uniform_grid(base.omegas, "frequency")
    if n == 1:
        return SpectrumTable(omegas=w, values=base.values.copy())

    tail = tail_fraction(base)
    if tail > 1e-2:
        # The share of a 1/w^2 tail in the last 1 % falls as 1/omega_max:
        # aim at 1e-3, a tenth of the refusal bound.
        required = w[-1] * tail / 1e-3
        raise ValueError(
            f"grid too narrow: tail mass fraction {tail:.2e} exceeds 1e-2; "
            f"extend the grid to about omega_max = {required:.3g}"
        )

    out = observable_spectrum(base, {n: 1.0})
    return SpectrumTable(omegas=w, values=math.factorial(n) * out.values)


def observable_spectrum(base: SpectrumTable, coefficients) -> SpectrumTable:
    """Spectrum induced by a general observable of X.

    ``coefficients`` maps the power n >= 1 to its weight beta_n in the
    correlator expansion sum_n beta_n S(t)^n; the result is the matching
    sum of bare n-fold convolutions (no factorials here; they belong to
    the beta_n).  The n = 0 term is a static offset with no transition
    content and is rejected.
    """
    w, h = _check_uniform_grid(base.omegas, "frequency")
    out = np.zeros_like(base.values)
    items = sorted(coefficients.items())
    if any(n < 1 for n, _ in items):
        raise ValueError("powers must be >= 1 (n = 0 carries no transitions)")
    conv = None
    power = 0
    for n, beta in items:
        if beta == 0:
            continue
        if conv is None:
            conv = base.values.copy()
            power = 1
        while power < n:
            conv = np.convolve(conv, base.values)[: w.size] * h
            power += 1
        out += beta * conv
    return SpectrumTable(omegas=w, values=out)


def fdt_spectrum(form: CollectiveForm, omegas, epsilon) -> SpectrumTable:
    """Smoothed strength spectrum via the linear-response resolvent.

    (hbar / m pi) theta(w) Im 1 / (W0^2 - z^2 - i z g_eps(w)) with
    z = w + i eps, the half-plane continuation consistent with the
    e^{+i w t} transform of the causal kernel (this is what makes the
    result a positive Lorentzian broadening).
    """
    w = np.asarray(omegas, dtype=float)
    m = form.mass
    z = w + 1j * epsilon
    denom = omega0_squared(form) - z**2 - 1j * z * gamma_transform(form, w, epsilon)
    values = form.hbar / (m * np.pi) * (1.0 / denom).imag
    values = np.where(w > 0, values, 0.0)
    return SpectrumTable(omegas=w, values=values)


def fdt_comparison_in_window(epsilon, params: OscillatorParams) -> bool:
    """Whether the resolvent route is comparable with the broadened
    strength comb: the smoothing width must be small against the
    resonance, eps <= W0 / 2."""
    return bool(epsilon <= 0.5 * params.omega0)


def smoothing_in_window(comb: DeltaComb, epsilon) -> bool:
    """Whether a Lorentzian width resolves the comb's shape: large
    against the mean line spacing and small against the band,
    2 x spacing <= eps <= top line / 2.  Below the window the smoothed
    spectrum stays spiky, above it features are washed out.  A single
    line has no spacing; an empty comb has no shape to resolve."""
    f = comb.frequencies
    if f.size == 0:
        return False
    spacing = (f[-1] - f[0]) / (f.size - 1) if f.size >= 2 else 0.0
    return bool(2.0 * spacing <= epsilon <= 0.5 * f[-1])


def tail_fraction(spectrum: SpectrumTable) -> float:
    """Share of the spectral mass in the last max(G // 100, 2) points of
    a G-point uniform grid from 0, the gauge of what the grid's cut-off
    misses."""
    _check_uniform_grid(spectrum.omegas, "frequency")  # equal bins, equal weight
    values = spectrum.values
    total = float(values.sum())
    if total <= 0:
        raise ValueError("spectrum carries no mass")
    return float(values[-max(values.size // 100, 2):].sum()) / total
