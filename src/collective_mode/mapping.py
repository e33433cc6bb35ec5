"""Change of variables from two coupled chains to one collective
coordinate coupled to an internal bath of relative phonons.

The collective coordinate X is the scaled difference of the two chains'
center-of-mass coordinates.  In the phonon basis the antisymmetric
sector splits into X plus N-1 bath coordinates; the bath block B is
diagonalized once more, leaving X coupled linearly to N-1 harmonic
modes.  For the single-point next-neighbor coupling the bath block and
the whole collective sector are a diagonal matrix plus one rank-one
term, so the same data follows in O(N^2) from secular equations; the
dense route serves general models and stays the oracle of the
structured one.
"""

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    PhononSpectrum,
    SystemModel,
    UnstableModelError,
    _freeze,
    _psd_eigh,
    next_neighbor_frequencies,
    phonon_spectrum,
)

_SECULAR_MAX_ITER = 100


@dataclass(frozen=True)
class CollectiveForm:
    """Collective coordinate + internal bath data.

    k_tilde_11     : stiffness of the bare collective coordinate
    bath_freqs     : (N-1,) bath frequencies, ascending, > 0
    couplings_l    : (N-1,) couplings of X to the diagonal bath modes
    coupling_k     : (N-1,) couplings of X to the undiagonalized bath
    """

    k_tilde_11: float
    bath_freqs: np.ndarray
    couplings_l: np.ndarray
    coupling_k: np.ndarray
    mass: float
    hbar: float

    def __post_init__(self):
        _freeze(self, "bath_freqs", "couplings_l", "coupling_k")


@dataclass(frozen=True)
class QuantumModes:
    """Normal modes of the collective sector.

    frequencies    : (N,) mode frequencies (ascending, nonnegative)
    x_coefficients : (N,) components of X along each mode; sum of squares 1
    """

    frequencies: np.ndarray
    x_coefficients: np.ndarray
    mass: float
    hbar: float

    def __post_init__(self):
        _freeze(self, "frequencies", "x_coefficients")


def interaction_in_phonon_basis(model: SystemModel, phonons: PhononSpectrum):
    """Coupling of the antisymmetric (relative) sector in the phonon
    basis: Ktilde = A diag(khat) A^T + A K A^T.

    A is the mode basis (rows are modes) and khat_i the row sums of K.
    """
    a = phonons.basis
    if a.shape[0] != model.n_particles:
        raise ValueError(
            f"basis size {a.shape[0]} does not match model N = {model.n_particles}"
        )
    khat = model.row_coupling_sums
    k_alpha = (a * khat) @ a.T
    k_beta = a @ model.k_matrix @ a.T
    k_tilde = k_alpha + k_beta
    return (k_tilde + k_tilde.T) / 2.0


def caldeira_leggett_form(model: SystemModel, phonons: PhononSpectrum | None = None):
    """Map a validated model onto the collective + internal-bath form by
    dense eigensolves: (form, U).

    Builds B_{nm} = Ktilde_{n+1,m+1} + (m/2) omega_{n+1}^2 delta_{nm}
    from the model's phonons (computed here unless passed in),
    diagonalizes it, and projects the coupling row of Ktilde onto the
    bath eigenmodes.  U is orthogonal with
    U^T B U = (m/2) diag(bath_freqs^2); the energy reconstruction needs it.
    """
    if phonons is None:
        phonons = phonon_spectrum(model)
    k_tilde = interaction_in_phonon_basis(model, phonons)
    m = model.mass

    b = k_tilde[1:, 1:] + np.diag(m * phonons.frequencies[1:] ** 2 / 2.0)
    evals, u = _psd_eigh(b, "bath block")
    if (evals == 0.0).any():
        raise UnstableModelError(
            "bath block has a zero mode; bath frequencies must be positive"
        )

    k_vec = k_tilde[0, 1:].copy()
    form = CollectiveForm(
        k_tilde_11=float(k_tilde[0, 0]),
        bath_freqs=np.sqrt(2.0 * evals / m),
        couplings_l=u.T @ k_vec,
        coupling_k=k_vec,
        mass=m,
        hbar=model.hbar,
    )
    return form, u


def decoupling_indicator(model: SystemModel, phonons: PhononSpectrum):
    """Coupling vector of X to the bath, by two routes, plus a flag.

    Route one projects the row sums khat onto the nonuniform phonon
    modes (k_i = (2/sqrt(N)) sum_j khat_j A_{j,i+1}); route two forms
    the first row of Ktilde = A diag(khat) A^T + A K A^T by two
    matrix-vector products.  They agree identically for symmetric K;
    both are computed and compared here as a safeguard.  The flag is
    true when the coupling vanishes, i.e. when all khat_i are equal
    (constant row sums give no damping).  Takes the model's phonons.
    """
    khat = model.row_coupling_sums
    n = model.n_particles
    a = phonons.basis

    k_closed = (2.0 / np.sqrt(n)) * (a[1:] @ khat)
    k_generic = (a[1:] * khat) @ a[0] + a[1:] @ (model.k_matrix @ a[0])
    residual = np.abs(k_closed - k_generic).max()
    tol = 1e-12 * max(np.abs(khat).max(), 1.0)
    if residual > tol:  # pragma: no cover - identities verified in tests
        raise AssertionError(
            f"coupling-vector routes disagree by {residual:.3e}"
        )

    khat_scale = np.abs(khat).max()
    decoupled = np.abs(k_generic).max() < 1e-12 * max(khat_scale, 1e-300)
    return k_generic, bool(decoupled)


def shift_collective_potential(form: CollectiveForm, k0: float) -> CollectiveForm:
    """Add a direct X^2 stiffness without touching the bath.

    Shifts only the collective stiffness; the bath frequencies and the
    couplings are unchanged, so the spectral density is unchanged.
    """
    return replace(form, k_tilde_11=form.k_tilde_11 + float(k0))


def _secular_roots(poles, pw):
    """Roots of the rank-one secular equation sum_k pw_k / (lam - d_k) = 1.

    The poles d_k must be strictly ascending and the weights pw_k
    positive, so one root lies in each gap between poles and one in
    (d_top, d_top + sum pw].  Each root is written lam = d_o + delta
    with o the nearer pole of its bracket, so delta keeps full relative
    precision next to a pole.  All offsets are solved at once by Newton
    steps on the smooth F(delta) = delta (1 - R(delta)) - pw_o
    (R: the sum without pole o), with bisection whenever a step leaves
    the bracket.  Returns (lam, s2), lam ascending and
    s2 = sum_k pw_k / (lam - d_k)^2, both from the stored offsets.
    """
    n = poles.size
    # The sign of the secular function at a gap midpoint tells which pole
    # the root is nearer to; the top root is measured from the top pole.
    half = np.diff(poles) / 2.0
    mid_minus_poles = poles[:-1, None] + half[:, None] - poles
    upper = (1.0 / mid_minus_poles) @ pw > 1.0
    gap = np.arange(n - 1)
    o = np.append(np.where(upper, gap + 1, gap), n - 1)
    lo = np.append(np.where(upper, -half, 0.0), 0.0)
    hi = np.append(np.where(upper, 0.0, half), pw.sum())

    shifts = poles[o, None] - poles          # d_o - d_k
    shifts[np.arange(n), o] = np.inf         # leaves pole o out of R
    pw_o = pw[o]
    # One-pole start; the top bound is closed (it is the root for n = 1).
    delta = pw_o / (1.0 - (1.0 / shifts) @ pw)
    delta = np.where((lo < delta) & (delta <= hi), delta, (lo + hi) / 2.0)

    todo = np.arange(n)
    for _ in range(_SECULAR_MAX_ITER):
        d = delta[todo]
        inv = 1.0 / (shifts[todo] + d[:, None])
        one_minus_r = 1.0 - inv @ pw
        f = d * one_minus_r - pw_o[todo]
        # F has the sign of the secular function times -delta, and the
        # secular function falls across each bracket.
        right = f * d < 0
        a = np.where(right, d, lo[todo])
        b = np.where(right, hi[todo], d)
        lo[todo], hi[todo] = a, b
        step = f / (one_minus_r + d * ((inv * inv) @ pw))
        new = d - step
        converged = np.abs(step) <= 2.0 * np.spacing(np.abs(d))
        inside = (a < new) & (new < b)
        delta[todo] = np.where(inside | converged, new, (a + b) / 2.0)
        todo = todo[~(converged | (np.nextafter(a, b) >= b))]
        if todo.size == 0:
            break
    else:
        raise RuntimeError(
            f"secular roots not converged after {_SECULAR_MAX_ITER} "
            f"iterations for {todo.size} of {n} brackets"
        )

    inv = 1.0 / (shifts + delta[:, None])
    s2 = pw_o / delta**2 + (inv * inv) @ pw
    return poles[o] + delta, s2


def _first_site_weights(n):
    """Squared first-site amplitudes v_k of the chain modes, k = 0..N-1
    (sum v = 1)."""
    v = (2.0 / n) * np.cos(np.pi * np.arange(n) / (2 * n)) ** 2
    v[0] = 1.0 / n
    return v


def _bath_modes(poles, v, alpha, mass):
    """Bath frequencies and couplings from the secular equation over the
    nonuniform chain poles; poles and v include mode 0."""
    rho = 2.0 * alpha / mass
    lam, s2 = _secular_roots(poles[1:], rho * v[1:])
    # The coupling alpha a_0 sum_k a_k^2 / (lam - d_k) / sqrt(s2 / rho)
    # reduces at a root, where the sum is 1 / rho, to m / (2 sqrt(N s2 / rho)).
    return np.sqrt(lam), mass / (2.0 * np.sqrt(poles.size * s2 / rho))


def point_coupling_secular(n_particles, omega0, alpha, mass=1.0):
    """Bath frequencies and couplings of the point-coupled chain pair,
    from the rank-one secular equation instead of a dense eigensolve.

    The bath block is (m/2)(diag(d) + rho a a^T) over the nonuniform
    chain modes, with d the squared chain frequencies, rho = 2 alpha / m
    and a_k the first-site amplitude of mode k; its eigenvalues
    (m/2) lam solve rho sum_k a_k^2 / (lam - d_k) = 1.  Returns
    (bath_freqs, c) with bath_freqs ascending and c aligned.
    """
    n = int(n_particles)
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    if alpha <= 0:
        raise ValueError(f"secular path needs alpha > 0, got {alpha}")
    if omega0 <= 0 or mass <= 0:
        raise ValueError("omega0 and mass must be positive")
    poles = next_neighbor_frequencies(n, omega0) ** 2
    return _bath_modes(poles, _first_site_weights(n), alpha, mass)


def is_point_coupling(model: SystemModel) -> bool:
    """True for a next-neighbor chain pair coupled only by K_11 > 0."""
    k = model.k_matrix
    single = np.count_nonzero(k) == 1 and k[0, 0] > 0
    return bool(single and model.omega0 is not None)


def collective_sector_matrix(form: CollectiveForm):
    """Frequency-squared matrix of the coupled (X, bath) sector.

    2*Ktilde_11/m sits in the corner and the bath frequencies squared on
    the rest of the diagonal.  The off-diagonal coupling row is 2 l/m:
    expanding the quadratic form (d, Ktilde d) produces the cross terms
    2 X sum_n Ktilde_1n d_n, so the force of the bath on X (and vice
    versa) carries twice the stored coupling vector.  This is what makes
    the mapped sector reproduce the full-system spectrum exactly.
    """
    m = form.mass
    nb = form.bath_freqs.size
    mat = np.zeros((nb + 1, nb + 1))
    mat[0, 0] = 2.0 * form.k_tilde_11 / m
    mat[0, 1:] = 2.0 * form.couplings_l / m
    mat[1:, 0] = 2.0 * form.couplings_l / m
    mat[np.arange(1, nb + 1), np.arange(1, nb + 1)] = form.bath_freqs**2
    return mat


def collective_sector_eigensystem(form: CollectiveForm):
    """Eigensolve of the sector matrix: (frequencies, mode_matrix).

    mode_matrix is orthogonal with columns as modes; frequencies are
    ascending.  Raises when the sector has a genuinely negative mode;
    a zero mode (free collective coordinate, no direct stiffness) is
    kept as frequency 0.
    """
    evals, modes = _psd_eigh(collective_sector_matrix(form), "collective sector")
    return np.sqrt(evals), modes


def collective_sector_modes(form: CollectiveForm) -> QuantumModes:
    """Normal modes of the coupled (X, bath) sector.

    The X components of the eigenvectors are the mode coefficients of X
    (their squares sum to 1 by orthogonality).
    """
    freqs, modes = collective_sector_eigensystem(form)
    return QuantumModes(
        frequencies=freqs,
        x_coefficients=modes[0, :],
        mass=form.mass,
        hbar=form.hbar,
    )


def _point_coupled_mapping(model: SystemModel):
    """(form, modes) of a point-coupled chain pair in O(N^2).

    In the phonon basis the antisymmetric sector's frequency-squared
    matrix is diag(d) + rho a a^T with a_0^2 = 1/N, so Ktilde_11 =
    alpha/N and k_k = alpha a_0 a_k in closed form, and the sector modes
    are the roots of its secular equation over all N poles.  X is phonon
    mode 0, so its weight in the mode at lam is
    (a_0 / lam)^2 / sum_k a_k^2 / (lam - d_k)^2 = rho a_0^2 / (lam^2 s2).
    """
    n, m = model.n_particles, model.mass
    alpha = 2.0 * float(model.k_matrix[0, 0])
    poles = next_neighbor_frequencies(n, model.omega0) ** 2
    v = _first_site_weights(n)
    bath_freqs, couplings_l = _bath_modes(poles, v, alpha, m)
    form = CollectiveForm(
        k_tilde_11=alpha / n,
        bath_freqs=bath_freqs,
        couplings_l=couplings_l,
        coupling_k=alpha * np.sqrt(v[0] * v[1:]),
        mass=m,
        hbar=model.hbar,
    )
    pw = (2.0 * alpha / m) * v
    lam, s2 = _secular_roots(poles, pw)
    modes = QuantumModes(
        frequencies=np.sqrt(lam),
        x_coefficients=np.sqrt(pw[0] / (lam**2 * s2)),
        mass=m,
        hbar=model.hbar,
    )
    return form, modes


def collective_mapping(model: SystemModel):
    """Collective form and sector modes of a model: (form, modes).

    A point-coupled next-neighbor chain pair takes the O(N^2) secular
    route; every other model takes the dense eigensolves.
    """
    if is_point_coupling(model):
        return _point_coupled_mapping(model)
    form, _ = caldeira_leggett_form(model)
    return form, collective_sector_modes(form)


def symmetric_sector_frequencies(model: SystemModel):
    """Frequencies of the symmetric (center-of-mass) sector.

    That sector never couples to X; its frequency-squared matrix is
    (2/m) (W + diag(khat) - K), whose eigenvalues no change of basis
    alters.  Used to check that the mapped sectors reproduce the full
    2N spectrum.
    """
    block = model.w_matrix + np.diag(model.row_coupling_sums) - model.k_matrix
    evals = np.linalg.eigvalsh((2.0 / model.mass) * block)
    return np.sqrt(np.clip(evals, 0.0, None))
