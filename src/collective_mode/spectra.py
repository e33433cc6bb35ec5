"""Transition strengths and spectral functions of the collective mode.

The quantum side: the spectral density of the bath, the strength comb
of the ground-state transitions induced by X, the time correlator, the
Lorentzian-smoothed spectra, the fluctuation-dissipation route to the
same smoothed spectrum, the constant-friction closed forms, and the
convolution powers describing observables X^n.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, gamma_transform, omega0_squared
from .mapping import CollectiveForm, QuantumModes, interaction_in_phonon_basis
from .model import SystemModel, _psd_eigh, phonon_spectrum

__all__ = [
    "DeltaComb", "SpectrumTable",
    "sigma_comb", "sigma_resolvent", "sigma_phonon_approximation",
    "strength_comb", "correlator_S", "smoothed_spectrum",
    "ohmic_spectrum", "convolution_power_spectrum", "observable_spectrum",
    "fdt_spectrum", "fdt_comparison_in_window",
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


def sigma_resolvent(model: SystemModel, omega, epsilon) -> float:
    """Spectral density from the resolvent of the bath-block square root.

    Evaluates -(1 / 2 pi m w) Im (k, [w - sqrt(Wr^2 + (2/m) Kr) + i eps]^-1 k)
    through the eigendecomposition of the matrix square root.  For small
    epsilon this is the Lorentzian-broadened line spectrum (with the
    1/w prefactor taken at the evaluation point).  Raises
    UnstableModelError when the bath block has a negative mode.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if omega == 0:
        raise ValueError("omega = 0 is singular (1/omega prefactor)")
    phonons = phonon_spectrum(model)
    k_tilde = interaction_in_phonon_basis(model, phonons)
    m = model.mass

    mat = np.diag(phonons.frequencies[1:] ** 2) + 2.0 / m * k_tilde[1:, 1:]
    evals, evecs = _psd_eigh(mat, "bath block")
    roots = np.sqrt(evals)
    k_vec = 2.0 * k_tilde[0, 1:]   # equations-of-motion coupling
    proj = evecs.T @ k_vec
    resolvent = np.sum(proj**2 / (omega - roots + 1j * epsilon))
    return float(-resolvent.imag / (2.0 * np.pi * m * omega))


def sigma_phonon_approximation(model: SystemModel, kappa=None) -> DeltaComb:
    """Weak-fluctuation approximation of the spectral density.

    Places weight k_n^2 / (2 m w) at the shifted chain frequencies
    sqrt(w_{n+1}^2 + 2 N kappa / m), where kappa is the constant part of
    the coupling (mean entry by default) and the k_n are set by the
    fluctuating part alone.  Diagnostic companion to sigma_comb, valid
    when the fluctuations are small against the level spacing.
    """
    if kappa is None:
        kappa = float(model.k_matrix.mean())
    phonons = phonon_spectrum(model)
    k_tilde = interaction_in_phonon_basis(model, phonons)
    n = model.n_particles
    m = model.mass
    shifted = np.sqrt(phonons.frequencies[1:] ** 2 + 2.0 * n * kappa / m)
    k_vec = 2.0 * k_tilde[0, 1:]   # equations-of-motion coupling
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
    (hbar / 2 m) sum_n c_n^2 / w_n exp(-i w_n t)."""
    w = modes.frequencies
    if (w <= 0).any():
        raise ValueError("correlator needs strictly positive mode frequencies")
    t_arr = np.asarray(t, dtype=float)
    coeff = modes.hbar / (2.0 * modes.mass) * modes.x_coefficients**2 / w
    out = np.exp(-1j * np.multiply.outer(t_arr, w)) @ coeff
    return complex(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def smoothed_spectrum(comb: DeltaComb, epsilon, omegas) -> SpectrumTable:
    """Lorentzian broadening of a line spectrum, termwise and exact.

    Warns when epsilon falls outside the resolution window (it should be
    large against the line spacing and small against the band).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    f = comb.frequencies
    if f.size >= 2:
        spacing = (f[-1] - f[0]) / (f.size - 1)
        if epsilon < 2.0 * spacing:
            warnings.warn(
                f"epsilon = {epsilon:.3g} is not large against the mean line "
                f"spacing {spacing:.3g}; the smoothed spectrum will stay spiky",
                stacklevel=2,
            )
        if epsilon > 0.5 * f[-1]:
            warnings.warn(
                f"epsilon = {epsilon:.3g} is not small against the band "
                f"{f[-1]:.3g}; features will be washed out",
                stacklevel=2,
            )
    w = np.asarray(omegas, dtype=float)
    lorentz = (epsilon / np.pi) / ((w[:, None] - f[None, :]) ** 2 + epsilon**2)
    return SpectrumTable(omegas=w, values=lorentz @ comb.weights)


def ohmic_spectrum(params: OscillatorParams, omegas, hbar=1.0, mass=1.0) -> SpectrumTable:
    """Smoothed strength spectrum for a constant (memoryless) friction.

    Evaluates (hbar / m pi) w g0 / ((W0^2 - w^2)^2 + (w g0)^2) for w > 0.
    In the underdamped regime the equivalent two-Lorentzian form in
    (omega_bar, gamma_bar) is evaluated as well and cross-checked; the
    two are one algebraic identity apart.
    """
    w = np.asarray(omegas, dtype=float)
    g0 = params.gamma0
    w0_sq = params.omega0_sq
    pos = w > 0
    values = np.zeros_like(w)
    denom = (w0_sq - w[pos] ** 2) ** 2 + (w[pos] * g0) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        values[pos] = hbar / (mass * np.pi) * w[pos] * g0 / denom

    if params.regime == "underdamped":
        wb, gb = params.omega_bar, params.gamma_bar
        pref = hbar * gb / (2.0 * np.pi * mass * wb)
        two_lorentz = pref * (
            1.0 / ((w[pos] - wb) ** 2 + gb**2) - 1.0 / ((w[pos] + wb) ** 2 + gb**2)
        )
        scale = max(np.abs(values[pos]).max(initial=0.0), 1e-300)
        mismatch = np.abs(two_lorentz - values[pos]).max(initial=0.0)
        if mismatch > 1e-10 * scale:  # pragma: no cover - algebraic identity
            raise AssertionError(
                f"two-Lorentzian form deviates by {mismatch:.3e} (relative to {scale:.3e})"
            )
        values[pos] = two_lorentz
    return SpectrumTable(omegas=w, values=values)


def _check_uniform_from_zero(omegas):
    w = np.asarray(omegas, dtype=float)
    if w.size < 2:
        raise ValueError("need at least two grid points")
    steps = np.diff(w)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("frequency grid must be uniform")
    if abs(w[0]) > 1e-9 * h:
        raise ValueError(f"frequency grid must start at 0, got {w[0]}")
    return w, float(h)


def convolution_power_spectrum(base: SpectrumTable, n: int) -> SpectrumTable:
    """n-fold self-convolution of a spectrum, scaled by n!.

    The factorial counts the fully crossed pairings of n identical
    factors (2 for n = 2).  Direct quadrature on the uniform grid; the
    grid must start at 0 and carry essentially all the spectral mass.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    w, h = _check_uniform_from_zero(base.omegas)
    values = base.values
    if n == 1:
        return SpectrumTable(omegas=w, values=values.copy())

    total = float(values.sum() * h)
    tail_bins = max(w.size // 100, 2)
    tail = float(values[-tail_bins:].sum() * h)
    if total <= 0:
        raise ValueError("spectrum carries no mass to convolve")
    if tail > 1e-2 * total:
        # A 1/w^2 tail falls below budget around c / (budget * total).
        c = values[-1] * w[-1] ** 2
        required = c / (1e-6 * total) if c > 0 else 2 * w[-1]
        raise ValueError(
            f"grid too narrow: tail mass fraction {tail / total:.2e} exceeds 1e-2; "
            f"extend the grid to about omega_max = {required:.3g}"
        )
    if tail > 1e-6 * total:
        # For spectra supported on w >= 0 the convolution below any grid
        # point never reaches past the grid, so a light tail only means
        # the far end of the result is approximate.
        warnings.warn(
            f"spectral tail carries {tail / total:.2e} of the total mass; "
            "convolution values near the end of the grid underestimate the truth",
            stacklevel=2,
        )

    out = values.copy()
    for _ in range(n - 1):
        out = np.convolve(out, values)[: w.size] * h
    return SpectrumTable(omegas=w, values=math.factorial(n) * out)


def observable_spectrum(base: SpectrumTable, coefficients) -> SpectrumTable:
    """Spectrum induced by a general observable of X.

    ``coefficients`` maps the power n >= 1 to its weight beta_n in the
    correlator expansion sum_n beta_n S(t)^n; the result is the matching
    sum of bare n-fold convolutions (no factorials here; they belong to
    the beta_n).  The n = 0 term is a static offset with no transition
    content and is rejected.
    """
    w, h = _check_uniform_from_zero(base.omegas)
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


def fdt_comparison_in_window(epsilon, omega0_sq) -> bool:
    """Whether the resolvent route is comparable with the broadened
    strength comb: the smoothing width must be small against the
    resonance, eps <= W0 / 2."""
    return bool(epsilon <= 0.5 * np.sqrt(max(omega0_sq, 0.0)))
