"""Change of variables from two coupled chains to one collective
coordinate coupled to an internal bath of relative phonons.

The collective coordinate X is the scaled difference of the two chains'
center-of-mass coordinates.  In the phonon basis the antisymmetric
sector splits into X plus N-1 bath coordinates; the bath block B is
diagonalized once more, leaving X coupled linearly to N-1 harmonic
modes.  For the single-point next-neighbor coupling the same data also
follows from a rank-one secular equation, which serves as an
independent cross-check of the generic path.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import PhononSpectrum, SystemModel, phonon_spectrum

_TOL_PSD = 1e-10
_SECULAR_MAX_ITER = 100


class UnstableBathError(RuntimeError):
    """Bath block has a negative mode: the model violates positivity."""


class UnstableSectorError(RuntimeError):
    """Collective sector has a negative mode."""


@dataclass(frozen=True)
class InteractionTransforms:
    """Coupling matrices in the phonon basis.

    k_tilde : antisymmetric-sector coupling (diagonal part + cross part)
    k_bar   : symmetric-sector coupling (diagonal part - cross part)
    """

    k_tilde: np.ndarray
    k_bar: np.ndarray


@dataclass(frozen=True)
class CollectiveForm:
    """Collective coordinate + internal bath data.

    k_tilde_11     : stiffness of the bare collective coordinate
    bath_freqs     : (N-1,) bath frequencies, ascending, > 0
    couplings_l    : (N-1,) couplings of X to the diagonal bath modes
    coupling_k     : (N-1,) couplings of X to the undiagonalized bath
    bath_matrix    : (N-1, N-1) bath block B
    bath_transform : (N-1, N-1) orthogonal U with U^T B U = (m/2) diag(bath_freqs^2)
    """

    k_tilde_11: float
    bath_freqs: np.ndarray
    couplings_l: np.ndarray
    coupling_k: np.ndarray
    bath_matrix: np.ndarray
    bath_transform: np.ndarray
    mass: float
    hbar: float

    def __post_init__(self):
        for name in ("bath_freqs", "couplings_l", "coupling_k",
                     "bath_matrix", "bath_transform"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
        f = np.array(self.frequencies, dtype=float)
        c = np.array(self.x_coefficients, dtype=float)
        f.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "x_coefficients", c)


def interaction_in_phonon_basis(model: SystemModel,
                                phonons: PhononSpectrum) -> InteractionTransforms:
    """Transform the coupling into the phonon basis.

    With A the mode basis (rows are modes) and khat_i the row sums of K,
    the two congruences are A diag(khat) A^T and A K A^T; their sum acts
    on the antisymmetric (relative) sector, their difference on the
    symmetric one.
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
    k_bar = k_alpha - k_beta
    return InteractionTransforms(
        k_tilde=(k_tilde + k_tilde.T) / 2.0,
        k_bar=(k_bar + k_bar.T) / 2.0,
    )


def _fix_column_signs(u):
    out = u.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def caldeira_leggett_form(model: SystemModel) -> CollectiveForm:
    """Map a validated model onto the collective + internal-bath form.

    Builds B_{nm} = Ktilde_{n+1,m+1} + (m/2) omega_{n+1}^2 delta_{nm}
    from the phonon data, diagonalizes it, and projects the coupling row
    of Ktilde onto the bath eigenmodes.
    """
    phonons = phonon_spectrum(model)
    trans = interaction_in_phonon_basis(model, phonons)
    m = model.mass

    omega_sq = phonons.frequencies**2
    b = trans.k_tilde[1:, 1:] + np.diag(m * omega_sq[1:] / 2.0)
    b = (b + b.T) / 2.0

    evals, evecs = scipy.linalg.eigh(b)
    scale = max(abs(evals[-1]), abs(evals[0]), 1e-300)
    if evals[0] < -_TOL_PSD * scale:
        raise UnstableBathError(
            f"bath block has negative eigenvalue {evals[0]:.6e}; "
            "the full potential is not positive semidefinite"
        )
    evals = np.clip(evals, 0.0, None)
    if (evals == 0.0).any():
        raise UnstableBathError(
            "bath block has a zero mode; bath frequencies must be positive"
        )

    u = _fix_column_signs(evecs)
    k_vec = trans.k_tilde[0, 1:].copy()
    return CollectiveForm(
        k_tilde_11=float(trans.k_tilde[0, 0]),
        bath_freqs=np.sqrt(2.0 * evals / m),
        couplings_l=u.T @ k_vec,
        coupling_k=k_vec,
        bath_matrix=b,
        bath_transform=u,
        mass=m,
        hbar=model.hbar,
    )


def decoupling_indicator(model: SystemModel, phonons: PhononSpectrum):
    """Coupling vector of X to the bath, by two routes, plus a flag.

    Route one projects the row sums khat onto the nonuniform phonon
    modes (k_i = (2/sqrt(N)) sum_j khat_j A_{j,i+1}); route two reads
    the first row of Ktilde.  They agree identically for symmetric K;
    both are computed and compared here as a safeguard.  The flag is
    true when the coupling vanishes, i.e. when all khat_i are equal
    (constant row sums give no damping).  Takes the model's phonons.
    """
    khat = model.row_coupling_sums
    n = model.n_particles

    k_closed = (2.0 / np.sqrt(n)) * (phonons.basis[1:] @ khat)
    k_generic = interaction_in_phonon_basis(model, phonons).k_tilde[0, 1:]
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

    Shifts only the collective stiffness; B, the bath frequencies and
    the couplings are unchanged, so the spectral density is unchanged.
    """
    return CollectiveForm(
        k_tilde_11=form.k_tilde_11 + float(k0),
        bath_freqs=form.bath_freqs,
        couplings_l=form.couplings_l,
        coupling_k=form.coupling_k,
        bath_matrix=form.bath_matrix,
        bath_transform=form.bath_transform,
        mass=form.mass,
        hbar=form.hbar,
    )


def point_coupling_secular(n_particles, omega0, alpha, mass=1.0):
    """Bath frequencies and couplings of the point-coupled chain pair,
    from the rank-one secular equation instead of a dense eigensolve.

    Solves p sum_k w_k / (lam - d_k) = 1 for lam = w^2, with
    p = 4 alpha / (N m), poles d_k = (2 omega0 sin(pi k / 2N))^2 and
    weights w_k = cos^2(pi k / 2N), k = 1..N-1.  The poles are strictly ascending, so one root lies in each
    gap between them and one in (d_top, d_top + p sum w].  Each root is
    written lam = d_o + delta with o the nearer pole of its bracket, so
    delta keeps full relative precision next to a pole.  All N-1 offsets
    are solved at once by Newton steps on the smooth
    F(delta) = delta (1 - p R(delta)) - p w_o (R: the sum without pole o),
    with bisection whenever a step leaves the bracket.  Returns
    (bath_freqs, c) with bath_freqs ascending and c aligned.
    """
    n = int(n_particles)
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    if alpha <= 0:
        raise ValueError(f"secular path needs alpha > 0, got {alpha}")
    if omega0 <= 0 or mass <= 0:
        raise ValueError("omega0 and mass must be positive")

    theta = np.pi * np.arange(1, n) / (2 * n)
    poles = (2.0 * omega0 * np.sin(theta)) ** 2
    weights = np.cos(theta) ** 2
    p = 4.0 * alpha / (n * mass)

    # The sign of the secular function at a gap midpoint tells which pole
    # the root is nearer to; the top root is measured from the top pole.
    half = np.diff(poles) / 2.0
    mid_minus_poles = poles[:-1, None] + half[:, None] - poles
    upper = p * ((1.0 / mid_minus_poles) @ weights) > 1.0
    gap = np.arange(n - 2)
    o = np.append(np.where(upper, gap + 1, gap), n - 2)
    lo = np.append(np.where(upper, -half, 0.0), 0.0)
    hi = np.append(np.where(upper, 0.0, half), p * weights.sum())

    shifts = poles[o, None] - poles          # d_o - d_k
    shifts[np.arange(n - 1), o] = np.inf     # leaves pole o out of R
    pw_o = p * weights[o]
    # One-pole start; the top bound is closed (it is the root for N = 2).
    delta = pw_o / (1.0 - p * ((1.0 / shifts) @ weights))
    delta = np.where((lo < delta) & (delta <= hi), delta, (lo + hi) / 2.0)

    todo = np.arange(n - 1)
    for _ in range(_SECULAR_MAX_ITER):
        d = delta[todo]
        inv = 1.0 / (shifts[todo] + d[:, None])
        one_minus_pr = 1.0 - p * (inv @ weights)
        f = d * one_minus_pr - pw_o[todo]
        # F has the sign of the secular function times -delta, and the
        # secular function falls across each bracket.
        right = f * d < 0
        a = np.where(right, d, lo[todo])
        b = np.where(right, hi[todo], d)
        lo[todo], hi[todo] = a, b
        step = f / (one_minus_pr + d * p * ((inv * inv) @ weights))
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
            f"iterations for {todo.size} of {n - 1} brackets"
        )

    # At a root sum_k w_k / (lam - d_k) = 1 / p, so the coupling
    # sqrt(2) alpha / N * s1 / sqrt(s2) reduces to m / (2 sqrt(2 s2)).
    inv = 1.0 / (shifts + delta[:, None])
    s2 = weights[o] / delta**2 + (inv * inv) @ weights
    return np.sqrt(poles[o] + delta), mass / (2.0 * np.sqrt(2.0 * s2))


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
    evals, evecs = scipy.linalg.eigh(collective_sector_matrix(form))
    scale = max(abs(evals[-1]), abs(evals[0]), 1e-300)
    if evals[0] < -_TOL_PSD * scale:
        raise UnstableSectorError(
            f"collective sector has negative mode {evals[0]:.6e}"
        )
    return np.sqrt(np.clip(evals, 0.0, None)), _fix_column_signs(evecs)


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


def symmetric_sector_frequencies(model: SystemModel, phonons: PhononSpectrum):
    """Frequencies of the symmetric (center-of-mass) sector.

    That sector never couples to X; its frequency-squared matrix is
    omega_k^2 + (2/m) Kbar in the basis of the model's phonons.  Used to
    check that the mapped sectors reproduce the full 2N spectrum.
    """
    trans = interaction_in_phonon_basis(model, phonons)
    m = model.mass
    mat = np.diag(phonons.frequencies**2) + 2.0 * trans.k_bar / m
    evals = scipy.linalg.eigvalsh((mat + mat.T) / 2.0)
    return np.sqrt(np.clip(evals, 0.0, None))
