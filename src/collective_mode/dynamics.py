"""Time evolution of the collective coordinate.

Three independent routes: exact normal-mode evolution (the oracle), the
memory-kernel integro-differential equation (an exact reformulation,
integrated numerically), and the closed-form damped oscillator valid in
the underdamped regime.  The damping kernel is always evaluated as an
exact cosine sum over the bath lines, never by quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .mapping import CollectiveForm, QuantumModes
from .model import NumericalError, SystemModel, _float_pair, antisymmetric_block
from ._kernels import BLOCK, volterra_path

# The grid x lines sums evaluate about this many (grid point, line)
# terms at a time, so their temporaries stay a few MB at any N.
_CHUNK_ELEMENTS = 2**18


class StepSizeError(NumericalError, ValueError):
    """Raised when the time step is too large for the memory-kernel stepper."""


def _grid_rows(row_values, grid, n_lines, dtype=float):
    """row_values(x, work) at every point of ``grid``, evaluated on chunks of rows.

    row_values maps a 1-d slice x of the flattened grid to its values,
    each a sum over n_lines lines, writing its terms into work, a
    C-contiguous (len(x), n_lines) view of the one ``dtype`` array all
    chunks reuse.  A chunk holds the largest power of two rows, at least
    4, within _CHUNK_ELEMENTS terms, and a single row left over joins
    the last chunk.  OpenBLAS's gemv sums rows in groups of four and
    numpy hands a one-row product to dot, so with one BLAS thread each
    row meets the same kernel as in one product over the whole grid and
    every value is bitwise that product's.  Returns the grid's shape, or
    a Python scalar for a 0-d grid.
    """
    x = np.asarray(grid, dtype=float)
    flat = x.reshape(-1)
    rows = 1 << max(2, (_CHUNK_ELEMENTS // max(n_lines, 1)).bit_length() - 1)
    edges = [*range(0, max(flat.size - 1, 1), rows), flat.size]
    work = np.empty((min(rows + 1, flat.size), n_lines), dtype)
    out = np.concatenate([row_values(flat[a:b], work[:b - a])
                          for a, b in zip(edges, edges[1:])])
    return out.item() if x.ndim == 0 else out.reshape(x.shape)


@dataclass(frozen=True)
class TrajectoryTable:
    """Uniformly sampled trajectory X(t) of the collective coordinate."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        t, x = _float_pair(self, "times", "positions")
        if t.size >= 2 and not (np.diff(t) > 0).all():
            raise ValueError("time grid must be strictly increasing")
        if not np.isfinite(x).all():
            raise ValueError("trajectory contains non-finite values")


_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    """Damped-oscillator parameters of the collective mode.

    omega0_sq : squared collective frequency (stiffness minus the
                kernel-at-zero renormalization); may be <= 0 for an
                unstable choice of collective coordinate
    gamma0    : friction coefficient from the flat-kernel fit

    The frequency W0, the half-width gamma_bar, the regime and the
    reduced frequency omega_bar follow from these two.
    """

    omega0_sq: float
    gamma0: float

    @property
    def omega0(self) -> float:
        """W0 = sqrt(omega0_sq), and 0 when omega0_sq < 0."""
        return float(np.sqrt(max(self.omega0_sq, 0.0)))

    @property
    def gamma_bar(self) -> float:
        return self.gamma0 / 2.0

    @property
    def regime(self) -> str:
        """Overdamped for a negative omega0_sq; critical when W0 and
        gamma_bar agree to a relative 1e-12, or both are zero (the free
        coordinate, whose critical closed form is ballistic motion);
        otherwise underdamped if W0 > gamma_bar, else overdamped."""
        if self.omega0_sq < 0:
            return "overdamped"
        w0, gb = self.omega0, self.gamma_bar
        scale = max(w0, gb)
        if scale == 0.0 or abs(w0 - gb) <= _REGIME_TOL * scale:
            return "critical"
        return "underdamped" if w0 > gb else "overdamped"

    @property
    def omega_bar(self) -> float:
        """sqrt(omega0_sq - gamma0^2/4): 0 when critical, NaN when overdamped."""
        regime = self.regime
        if regime == "critical":
            return 0.0
        disc = self.omega0_sq - self.gamma0**2 / 4.0
        return float(np.sqrt(disc)) if regime == "underdamped" and disc >= 0 else float("nan")


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
    w, weights = form.bath_freqs, _line_weights(form)
    return _grid_rows(lambda t, work: np.cos(np.multiply.outer(
        t, w, out=work), out=work) @ weights, t, w.size)


def gamma_transform(form: CollectiveForm, omega, epsilon):
    """Half-line Fourier transform of the kernel, regularized by epsilon.

    Termwise closed form of int_0^inf e^((i w - eps) t) cos(w_n t) dt =
    (eps - i w) / ((eps - i w)^2 + w_n^2); no quadrature involved.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w_sq, weights = form.bath_freqs**2, _line_weights(form)

    def row_values(omega, terms):
        s = epsilon - 1j * omega[:, None]
        np.add(s**2, w_sq, out=terms)
        return np.divide(s, terms, out=terms) @ weights
    return _grid_rows(row_values, omega, w_sq.size, complex)


def omega0_squared(form: CollectiveForm) -> float:
    """Renormalized collective stiffness Omega0^2 = 2 Ktilde_11 / m - gamma(0)
    of the equation of motion."""
    return form.bare_omega_sq - damping_kernel(form, 0.0)


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


def collective_frequency(form: CollectiveForm) -> OscillatorParams:
    """Collective frequency and friction of the damped-oscillator picture.

    omega0_sq = 2 Ktilde_11 / m - gamma(0).  The friction gamma0 is read
    off as Re of the regularized kernel transform at resonance, at the
    default smoothing width.  The params are returned for every
    omega0_sq; a negative one reads as the overdamped regime.
    """
    omega0_sq = omega0_squared(form)
    epsilon = default_epsilon(form)
    if epsilon > 0:
        gamma0 = float(gamma_transform(form, np.sqrt(abs(omega0_sq)), epsilon).real)
    else:  # every bath line at one frequency: no spacing to smooth over
        gamma0 = 0.0
    return OscillatorParams(omega0_sq=float(omega0_sq), gamma0=gamma0)


def _split_trig(w, h, n_points):
    """sin and cos of w t on the grid t = k h, k < n_points, by angle addition.

    With k = a BLOCK + b, each phase splits into a coarse part a BLOCK h w
    and a fine part b h w, so trig runs on (n_points / BLOCK + BLOCK) N
    phases only.  Returns left = (S_a | C_a), the (ceil(n_points / BLOCK),
    2N) sines and cosines of the coarse phases, and fine = [c_b; s_b], the
    (2N, BLOCK) cosines and sines of the fine ones:
    sin(w t) = S_a c_b + C_a s_b and cos(w t) = C_a c_b - S_a s_b.
    Each table takes its phases in its second half, then cos and sin in
    place, so no separate phase array is held.
    """
    n = w.size
    fine = np.empty((2 * n, BLOCK))
    np.multiply.outer(w, np.arange(BLOCK) * h, out=fine[n:])
    np.cos(fine[n:], out=fine[:n])
    np.sin(fine[n:], out=fine[n:])
    left = np.empty((-(-n_points // BLOCK), 2 * n))
    np.multiply.outer(np.arange(left.shape[0]) * (BLOCK * h), w, out=left[:, n:])
    np.sin(left[:, n:], out=left[:, :n])
    np.cos(left[:, n:], out=left[:, n:])
    return left, fine


def _mode_sums(w, weights, h, n_points, cos=False):
    """sum_n weights_n sin(w_n t) on the grid t = k h, k < n_points, and
    with ``cos`` the cosine sum too: one product of the tables of
    _split_trig, the fine one scaled in place by the weights.  The sine
    columns take the fine table as it is, S_a c_b + C_a s_b; the cosine
    ones C_a c_b - S_a s_b take it with its halves swapped and the sines
    negated.
    """
    left, fine = _split_trig(w, h, n_points)
    fine *= np.tile(weights, 2)[:, None]
    if not cos:
        return (left @ fine).ravel()[:n_points]
    n = w.size
    right = np.empty((2 * n, 2 * BLOCK))
    right[:, :BLOCK] = fine
    np.negative(fine[n:], out=right[:n, BLOCK:])
    right[n:, BLOCK:] = fine[:n]
    sc = left @ right
    return sc[:, :BLOCK].ravel()[:n_points], sc[:, BLOCK:].ravel()[:n_points]


def _grid_step(x):
    """Step h of a 1-d grid x_k = k h from 0, or None if x is not one.

    Every point must lie within 1e-9 h plus 4 eps |x_k| (four to eight
    ulps) of k h, so a grid whose steps drift slowly is refused even
    when each step is close to the first; linspace and arange grids stay
    within one ulp.
    """
    if x.ndim != 1 or x.size < 2:
        return None
    h = x[1] - x[0]
    drift = np.abs(x - np.arange(x.size) * h)
    if h > 0 and (drift <= 1e-9 * h + 4.0 * np.finfo(float).eps * np.abs(x)).all():
        return float(h)
    return None


def _check_uniform_grid(grid, name):
    """(grid, step) of a uniform, increasing grid from 0.

    Every point may miss k h by round-off only (see _grid_step), the
    start 0 included.
    """
    x = np.asarray(grid, dtype=float)
    if x.size < 2:
        raise ValueError(f"{name} grid needs at least two points")
    h = _grid_step(x)
    if h is None:
        if abs(x[0]) > 1e-9 * abs(x[1] - x[0]):
            raise ValueError(f"{name} grid must start at 0, got {x[0]}")
        raise ValueError(f"{name} grid must be uniform and increasing")
    return x, h


def evolve_exact(modes: QuantumModes, p0, times) -> TrajectoryTable:
    """Exact collective trajectory X(t) after a momentum kick P0 at t = 0.

    Sums the collective-sector modes (from collective_sector_modes) in
    closed form on a uniform grid from 0, X(t) = (P0/m) sum_n c_n^2
    sin(w_n t)/w_n with the w -> 0 limit t; no time stepping, exact to
    machine precision.
    """
    t, h = _check_uniform_grid(times, "time")
    w, c_sq = modes.frequencies, modes.x_coefficients**2
    free = w == 0.0
    scale = p0 / modes.mass
    x = _mode_sums(w, scale * c_sq / np.where(free, 1.0, w), h, t.size)
    x += (scale * c_sq[free].sum() * h) * np.arange(t.size)
    return TrajectoryTable(times=t, positions=x)


def solve_volterra(form: CollectiveForm, p0, times) -> TrajectoryTable:
    """Integrate the memory-kernel equation of motion after a kick.

    Second-order stepping with a trapezoidal history sum, carried in one
    accumulator per bath line: O(T N) cost for T steps and N lines.
    Returns X(t); the stepper's velocity is its internal state only.
    Refuses steps larger than 0.1 / max(bath frequency, collective
    frequency), for which the scheme is no longer trustworthy.
    """
    t, h = _check_uniform_grid(times, "time")
    params_scale = max(
        form.bath_freqs.max(initial=0.0),
        np.sqrt(max(form.bare_omega_sq, 0.0)),
    )
    if params_scale > 0 and h > 0.1 / params_scale:
        raise StepSizeError(
            f"time step {h:.6g} too large; need h <= {0.1 / params_scale:.6g}"
        )
    x, _ = volterra_path(omega0_squared(form), form.bath_freqs,
                         _line_weights(form), h, t.size, p0 / form.mass)
    return TrajectoryTable(times=t, positions=x)


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
    sinc = np.sinc(wb * t / np.pi)
    x = (p0 / mass) * envelope * t * sinc
    return TrajectoryTable(times=t, positions=x)


def total_energy(model: SystemModel, sector, basis, p0, times):
    """Total energy of the two chains along the exact kicked trajectory.

    Takes the sector eigensystem (frequencies, mode_matrix) from
    collective_sector_eigensystem and the orthogonal site-space basis
    [u | C U] that caldeira_leggett_form returns with the form, on a
    uniform grid from 0.  The kick excites only the antisymmetric sector
    a = (x - xbar)/sqrt(2); the symmetric sector stays at rest and
    carries no energy.  The normal coordinates q(t) map to a = q M, so
    the energy is (m/2) qdot (M M^T) qdot + q (M anti M^T) q with the
    antisymmetric block of the full quadratic form.  q and qdot are
    built a few blocks of BLOCK grid points at a time from the
    angle-addition split of the mode sum (_split_trig), so no grid x
    modes array is held.  Used to check energy conservation along the
    exact route.
    """
    t, h = _check_uniform_grid(times, "time")
    m = model.mass

    # Normal coordinates q_n(t) = (P0 c_n / m) sin(w_n t)/w_n, and
    # q_n = (P0 c_n / m) t for a free mode.
    w, v_modes = sector
    amp = p0 / m * v_modes[0, :]
    free = w == 0.0
    left, fine = _split_trig(w, h, t.size)
    n = w.size
    # (BLOCK, N) fine factors with the amplitudes folded in
    fine = np.ascontiguousarray(fine.T)
    c_b, s_b = fine[:, :n], fine[:, n:]
    g = amp / np.where(free, 1.0, w)
    q_c, q_s = g * c_b, g * s_b
    v_c, v_s = amp * c_b, amp * s_b

    # M: q -> (X, xi) through the sector modes, then the basis takes
    # (X, xi) to the site coordinates a.
    to_anti = v_modes.T @ basis.T
    kinetic_form = (0.5 * m) * (to_anti @ to_anti.T)
    potential_form = to_anti @ antisymmetric_block(model) @ to_anti.T

    # passes of whole coarse blocks, half the chunk budget per buffer: one
    # product over a few hundred rows runs faster than one per block
    blocks = left.shape[0]
    group = max(1, _CHUNK_ELEMENTS // (2 * BLOCK * n))
    energy = np.empty(blocks * BLOCK)
    coords, prod, work = (np.empty((group * BLOCK, n)) for _ in range(3))
    for lo in range(0, blocks, group):
        hi = min(lo + group, blocks)
        rows = slice(lo * BLOCK, hi * BLOCK)
        sin_a, cos_a = left[lo:hi, None, :n], left[lo:hi, None, n:]
        c, p, wk = (x[:(hi - lo) * BLOCK] for x in (coords, prod, work))
        c3, w3 = (x.reshape(hi - lo, BLOCK, n) for x in (c, wk))
        np.multiply(v_c, cos_a, out=c3)   # qdot
        c3 -= np.multiply(v_s, sin_a, out=w3)
        np.matmul(c, kinetic_form, out=p)
        p *= c
        p.sum(axis=-1, out=energy[rows])
        np.multiply(q_c, sin_a, out=c3)   # q
        c3 += np.multiply(q_s, cos_a, out=w3)
        c[:, free] = np.multiply.outer(np.arange(rows.start, rows.stop) * h, amp[free])
        np.matmul(c, potential_form, out=p)
        p *= c
        energy[rows] += p.sum(axis=-1)
    return energy[:t.size]
