"""Time evolution of the collective coordinate.

Three independent routes: exact normal-mode evolution (the oracle), the
memory-kernel integro-differential equation (an exact reformulation,
integrated numerically), and the closed-form damped oscillator valid in
the underdamped regime.  The damping kernel is always evaluated as an
exact cosine sum over the bath lines, never by quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .mapping import CollectiveForm, QuantumModes, collective_sector_modes
from .model import PhononSpectrum, SystemModel, full_potential_matrix
from ._kernels import BLOCK, volterra_path

__all__ = [
    "TrajectoryTable", "OscillatorParams",
    "damping_kernel", "gamma_transform", "omega0_squared",
    "default_epsilon", "collective_frequency",
    "evolve_exact", "solve_volterra", "fourier_solution",
    "underdamped_closed_form", "linear_response",
    "reconstruct_full_trajectory", "total_energy",
]


@dataclass(frozen=True)
class TrajectoryTable:
    """Uniformly sampled trajectory of the collective coordinate.

    positions holds X(t); momenta, when present, holds m * Xdot(t).
    """

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.ndim != 1 or x.shape != t.shape:
            raise ValueError("times and positions must be matching 1-d arrays")
        if t.size >= 2 and not (np.diff(t) > 0).all():
            raise ValueError("time grid must be strictly increasing")
        if not np.isfinite(x).all():
            raise ValueError("trajectory contains non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)
        if self.momenta is not None:
            p = np.asarray(self.momenta, dtype=float)
            if p.shape != t.shape:
                raise ValueError("momenta shape does not match times")
            object.__setattr__(self, "momenta", p)


@dataclass(frozen=True)
class OscillatorParams:
    """Damped-oscillator parameters of the collective mode.

    omega0_sq : squared collective frequency (stiffness minus the
                kernel-at-zero renormalization); may be <= 0 for an
                unstable choice of collective coordinate
    gamma0    : friction coefficient from the flat-kernel fit
    omega_bar : reduced frequency sqrt(omega0_sq - gamma0^2/4); NaN
                outside the underdamped/critical regimes
    gamma_bar : gamma0 / 2
    regime    : "underdamped" | "overdamped" | "critical"
    """

    omega0_sq: float
    gamma0: float
    omega_bar: float
    gamma_bar: float
    regime: str


def _line_weights(form: CollectiveForm):
    """Kernel weight (2 l_n)^2 / (m^2 w_n^2) of each bath line.

    The effective coupling of the equations of motion is twice the
    stored l (the cross terms of the quadratic form).  All weights are
    nonnegative, so the kernel peaks at gamma(0) = sum of the weights.
    """
    return (2.0 * form.couplings_l) ** 2 / (form.mass**2 * form.bath_freqs**2)


def damping_kernel(form: CollectiveForm, t):
    """Memory kernel: (1/m^2) sum_n ((2 l_n)^2 / w_n^2) cos(w_n t).

    Exact cosine sum over the bath lines; accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.cos(np.multiply.outer(t_arr, form.bath_freqs)) @ _line_weights(form)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def gamma_transform(form: CollectiveForm, omega, epsilon):
    """Half-line Fourier transform of the kernel, regularized by epsilon.

    Termwise closed form of int_0^inf e^((i w - eps) t) cos(w_n t) dt =
    (eps - i w) / ((eps - i w)^2 + w_n^2); no quadrature involved.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    omega_arr = np.asarray(omega, dtype=float)
    s = epsilon - 1j * omega_arr[..., None]
    terms = s**2 + form.bath_freqs**2
    out = np.divide(s, terms, out=terms) @ _line_weights(form)
    return complex(out) if np.isscalar(omega) or omega_arr.ndim == 0 else out


def omega0_squared(form: CollectiveForm) -> float:
    """Renormalized collective stiffness Omega0^2 = 2 Ktilde_11 / m - gamma(0)
    of the equation of motion."""
    return 2.0 * form.k_tilde_11 / form.mass - damping_kernel(form, 0.0)


def mean_bath_spacing(form: CollectiveForm) -> float:
    """Mean gap between adjacent bath lines (the line frequency itself
    when there is only one line)."""
    w = form.bath_freqs
    if w.size < 2:
        return float(w[0])
    return float((w[-1] - w[0]) / (w.size - 1))


def default_epsilon(form: CollectiveForm) -> float:
    """Default smoothing width: five mean bath spacings."""
    return 5.0 * mean_bath_spacing(form)


_REGIME_TOL = 1e-12


def collective_frequency(form: CollectiveForm) -> OscillatorParams:
    """Collective frequency and friction of the damped-oscillator picture.

    omega0_sq = 2 Ktilde_11 / m - gamma(0).  The friction gamma0 is read
    off as Re of the regularized kernel transform at resonance, at the
    default smoothing width.  A nonpositive omega0_sq is flagged as
    overdamped (the params are still returned).
    """
    omega0_sq = omega0_squared(form)
    epsilon = default_epsilon(form)

    omega_probe = np.sqrt(abs(omega0_sq))
    if epsilon > 0:
        gamma0 = float(gamma_transform(form, omega_probe, epsilon).real)
    else:  # decoupled bath with a single zero-weight line
        gamma0 = 0.0

    if omega0_sq < 0:
        regime = "overdamped"
    else:
        omega0 = np.sqrt(omega0_sq)
        scale = max(omega0, gamma0 / 2.0)
        if scale == 0.0 or abs(omega0 - gamma0 / 2.0) <= _REGIME_TOL * scale:
            # includes the free coordinate (both rates zero): the
            # critical closed form degenerates to ballistic motion
            regime = "critical"
        elif omega0 > gamma0 / 2.0:
            regime = "underdamped"
        else:
            regime = "overdamped"

    disc = omega0_sq - gamma0**2 / 4.0
    omega_bar = np.sqrt(disc) if regime in ("underdamped", "critical") and disc >= 0 else float("nan")
    if regime == "critical":
        omega_bar = 0.0
    return OscillatorParams(
        omega0_sq=float(omega0_sq),
        gamma0=gamma0,
        omega_bar=float(omega_bar),
        gamma_bar=gamma0 / 2.0,
        regime=regime,
    )


def _mode_trajectory(modes, p0, h, n_points):
    """X(t) = (P0/m) sum_n c_n^2 sin(w_n t)/w_n, with the w -> 0 limit t,
    and its velocity, on the grid t = k h, k < n_points.

    With k = a BLOCK + b, angle addition splits each phase into a coarse
    and a fine part, so trig runs on (n_points / BLOCK + BLOCK) N phases
    and both sums are one product of (S_a | C_a) with
    X = S_a diag(c^2/w) C_b^T + C_a diag(c^2/w) S_b^T,
    V = C_a diag(c^2) C_b^T - S_a diag(c^2) S_b^T.
    """
    w = modes.frequencies
    c_sq = modes.x_coefficients**2
    free = w == 0.0
    scale = p0 / modes.mass
    g = (scale * c_sq / np.where(free, 1.0, w))[:, None]
    c = (scale * c_sq)[:, None]
    fine = np.multiply.outer(w, np.arange(BLOCK) * h)
    c_b, s_b = np.cos(fine), np.sin(fine)
    right = np.block([[g * c_b, -c * s_b], [g * s_b, c * c_b]])
    phase = np.multiply.outer(np.arange(-(-n_points // BLOCK)) * (BLOCK * h), w)
    xv = np.hstack([np.sin(phase), np.cos(phase)]) @ right
    x = xv[:, :BLOCK].ravel()[:n_points]
    v = xv[:, BLOCK:].ravel()[:n_points]
    return x + (scale * c_sq[free].sum() * h) * np.arange(n_points), v


def evolve_exact(modes: QuantumModes, p0, times) -> TrajectoryTable:
    """Exact collective trajectory after a momentum kick P0 at t = 0.

    Sums the collective-sector modes (from collective_sector_modes) in
    closed form on a uniform grid from 0; no time stepping, exact to
    machine precision.
    """
    t, h = _check_uniform_grid(times)
    x, v = _mode_trajectory(modes, p0, h, t.size)
    return TrajectoryTable(times=t, positions=x, momenta=modes.mass * v)


def _stepper_weights(form, omega0_sq):
    """Line weights for the stepper, with a decoupled fast path.

    A coupling that is zero up to round-off leaves a kernel of order
    1e-30 whose dynamical effect is far below double precision; zeroing
    it lets the stepper skip the history sum.  The weights are
    nonnegative, so max |gamma| on a grid from 0 is their sum.
    """
    weights = _line_weights(form)
    scale = max(abs(omega0_sq), form.bath_freqs.max() ** 2, 1e-300)
    if weights.sum() < 1e-20 * scale:
        return np.zeros_like(weights)
    return weights


def _check_uniform_grid(times):
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two time samples")
    if abs(t[0]) > 1e-12:
        raise ValueError(f"time grid must start at 0, got {t[0]}")
    steps = np.diff(t)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform")
    return t, float(h)


def _integrate(form, times, v0, f_over_m=None) -> TrajectoryTable:
    """Memory-kernel stepper from X = 0 with velocity v0 and optional
    force/mass samples on the grid, behind solve_volterra and
    linear_response: grid check, step guard, kernel weights."""
    t, h = _check_uniform_grid(times)
    params_scale = max(
        form.bath_freqs.max(initial=0.0),
        np.sqrt(max(2.0 * form.k_tilde_11 / form.mass, 0.0)),
    )
    if params_scale > 0 and h > 0.1 / params_scale:
        raise ValueError(
            f"time step {h:.6g} too large; need h <= {0.1 / params_scale:.6g}"
        )
    omega0_sq = omega0_squared(form)
    weights = _stepper_weights(form, omega0_sq)
    x, v = volterra_path(omega0_sq, form.bath_freqs, weights, h, t.size,
                         f_over_m, v0=v0)
    return TrajectoryTable(times=t, positions=x, momenta=form.mass * v)


def solve_volterra(form: CollectiveForm, p0, times) -> TrajectoryTable:
    """Integrate the memory-kernel equation of motion after a kick.

    Second-order stepping with a trapezoidal history sum, carried in one
    accumulator per bath line: O(T N) cost for T steps and N lines.
    Refuses steps larger than 0.1 / max(bath frequency, collective
    frequency), for which the scheme is no longer trustworthy.
    """
    return _integrate(form, times, p0 / form.mass)


def fourier_solution(form: CollectiveForm, p0, omegas, epsilon):
    """Frequency-domain kick solution P0 / (2 pi m (W0^2 - w^2 - i w g(w))).

    Returns the complex amplitude on the given frequency grid.
    """
    w = np.asarray(omegas, dtype=float)
    denom = omega0_squared(form) - w**2 - 1j * w * gamma_transform(form, w, epsilon)
    return p0 / (2.0 * np.pi * form.mass * denom)


def underdamped_closed_form(params: OscillatorParams, p0, times, mass) -> TrajectoryTable:
    """Damped-oscillator closed form (P0 / m Wbar) e^(-gbar t) sin(Wbar t).

    Valid for the underdamped regime; the critical limit (Wbar -> 0,
    X = (P0/m) t e^(-gbar t)) is included.  Overdamped input is rejected.
    """
    if params.regime == "overdamped":
        raise ValueError("closed form requires the underdamped (or critical) regime")
    t = np.asarray(times, dtype=float)
    wb = params.omega_bar
    gb = params.gamma_bar
    envelope = np.exp(-gb * t)
    x = (p0 / mass) * envelope * t * np.sinc(wb * t / np.pi)
    v = (p0 / mass) * envelope * (np.cos(wb * t) - gb * t * np.sinc(wb * t / np.pi))
    return TrajectoryTable(times=t, positions=x, momenta=mass * v)


def linear_response(form: CollectiveForm, force_samples, times):
    """Drive the collective coordinate with an external force, two ways.

    Integrates the forced memory-kernel equation from rest, and
    independently predicts the displacement as the convolution of the
    response function (the unit-momentum kick trajectory) with the
    force.  Forces are treated as constant over each step (left node).
    The stepper refuses the same steps as in solve_volterra.  Returns
    (forced, predicted) trajectory tables.
    """
    force = np.asarray(force_samples, dtype=float)
    if force.shape != np.shape(times):
        raise ValueError(
            f"force samples shape {force.shape} does not match grid {np.shape(times)}"
        )
    forced = _integrate(form, times, 0.0, force / form.mass)
    t = forced.times
    h = t[1] - t[0]

    modes = collective_sector_modes(form)
    chi, _ = _mode_trajectory(modes, 1.0, h, t.size)  # response to a unit kick
    predicted = h * np.convolve(chi, force)[: t.size]
    return forced, TrajectoryTable(times=t, positions=predicted)


def reconstruct_full_trajectory(form: CollectiveForm, sector, bath_transform,
                                phonons: PhononSpectrum, p0, times):
    """Full-phase-space trajectory (z, zdot) behind evolve_exact.

    Takes the form, its sector eigensystem (frequencies, mode_matrix)
    from collective_sector_eigensystem, the orthogonal U that
    diagonalized its bath block and the chain phonons it was mapped
    from.  The kick excites only the antisymmetric sector; the
    symmetric sector stays at rest.  Returns (times, z, zdot) with
    z = (x, xbar) of shape (T, 2N).  Used to check energy conservation
    along the exact route.
    """
    t = np.asarray(times, dtype=float)
    m = form.mass

    # Normal coordinates q_n(t) = (P0 c_n / m) sin(w_n t)/w_n.
    w, v_modes = sector
    c = v_modes[0, :]
    amp = p0 / m * c
    phase = np.multiply.outer(t, w)
    free = w == 0.0
    q = np.sin(phase) * (amp / np.where(free, 1.0, w))
    q[:, free] = np.outer(t, amp[free])
    qdot = np.cos(phase) * amp

    # One N x N map from the normal coordinates to the chain: q -> (X, xi)
    # through the sector modes; X is the first antisymmetric phonon
    # coordinate d_1 itself and the bath coordinates rotate back to d
    # through U; then c = d/sqrt(2), cbar = -c and x = A^T c.
    to_phonons = np.vstack([v_modes[:1], bath_transform @ v_modes[1:]])
    to_chain = to_phonons.T @ (phonons.basis / np.sqrt(2.0))
    x = q @ to_chain
    xd = qdot @ to_chain
    return t, np.hstack([x, -x]), np.hstack([xd, -xd])


def total_energy(model: SystemModel, z, zdot):
    """Total energy (kinetic + potential) along a full trajectory."""
    q = full_potential_matrix(model)
    kinetic = 0.5 * model.mass * (zdot**2).sum(axis=-1)
    potential = ((z @ q) * z).sum(axis=-1)
    return kinetic + potential
