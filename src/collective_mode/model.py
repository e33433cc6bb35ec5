"""Two coupled oscillator chains: construction, validation, phonons.

The system is a pair of identical chains of N particles with intra-chain
potential (x, W x) per chain (the quadratic form carries no extra 1/2;
the factor convention is fixed here and used consistently downstream) and
an inter-chain coupling sum_ij K_ij (x_i - xbar_j)^2 with nonnegative
symmetric K.
"""

from dataclasses import dataclass

import numpy as np


class ModelValidationError(ValueError):
    """Raised when a model violates its structural invariants.

    The ``violations`` attribute holds (name, message) pairs, one per
    violated invariant.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{name}: {msg}" for name, msg in self.violations)
        super().__init__(f"invalid model: {lines}")


class UnstableModelError(RuntimeError):
    """Raised when an eigensolve exposes an unstable (negative) sector."""


# Relative tolerances for the structural checks.
_TOL_ROWSUM = 1e-12
_TOL_PSD = 1e-10


def _freeze(obj, *names):
    """Replace the named fields of a frozen dataclass by read-only float
    copies, so no caller's array can change them afterwards."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=float)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class SystemModel:
    """Validated two-chain model.

    n_particles : particles per chain (N >= 2)
    mass        : particle mass m > 0
    w_matrix    : (N, N) intra-chain quadratic form W
    k_matrix    : (N, N) inter-chain coupling constants K_ij >= 0
    hbar        : reduced Planck constant (natural units default)
    omega0      : bare next-neighbor frequency, set by the factory only
    """

    n_particles: int
    mass: float
    w_matrix: np.ndarray
    k_matrix: np.ndarray
    hbar: float = 1.0
    omega0: float | None = None

    def __post_init__(self):
        _freeze(self, "w_matrix", "k_matrix")

    @property
    def row_coupling_sums(self):
        """khat_i = sum_j K_ij."""
        return self.k_matrix.sum(axis=1)


@dataclass(frozen=True)
class PhononSpectrum:
    """Normal modes of a single free chain.

    frequencies : (N,) nondecreasing, frequencies[0] == 0 (uniform mode)
    basis       : (N, N) orthogonal, rows are modes:
                  basis @ W @ basis.T == (m/2) diag(frequencies**2)
    """

    frequencies: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        _freeze(self, "frequencies", "basis")


def validate_model(w_matrix, k_matrix, mass, hbar=1.0):
    """Check all structural invariants; return [(name, message), ...].

    An empty list means the model is valid.  Checks are reported
    individually so callers can tell a symmetry problem from a row-sum
    or positivity problem.  W need not be circulant: the mapping only
    needs W symmetric with vanishing row sums (the uniform vector must
    be a zero mode), which the free-ended next-neighbor chain satisfies.
    """
    violations = []
    w = np.asarray(w_matrix, dtype=float)
    k = np.asarray(k_matrix, dtype=float)

    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return [("shape", f"W must be square, got {w.shape}")]
    if k.shape != w.shape:
        return [("shape", f"K shape {k.shape} does not match W shape {w.shape}")]
    n = w.shape[0]
    if n < 2:
        violations.append(("size", f"need N >= 2 particles per chain, got {n}"))
    for name, value in (("mass", mass), ("hbar", hbar)):
        if not (value > 0 and np.isfinite(value)):
            violations.append((name, f"{name} must be positive and finite, got {value}"))
    if not (np.isfinite(w).all() and np.isfinite(k).all()):
        violations.append(("non_finite", "W and K must have finite entries"))
    if violations:
        return violations

    scale = max(np.abs(w).max(), 1e-300)

    if not np.array_equal(w, w.T):
        violations.append(("w_symmetry", "W is not symmetric"))
    if not np.array_equal(k, k.T):
        violations.append(("k_symmetry", "K is not symmetric"))
    if (k < 0).any():
        i, j = np.argwhere(k < 0)[0]
        violations.append(
            ("k_negative", f"K[{i},{j}] = {k[i, j]} is negative")
        )

    rowsum = np.abs(w.sum(axis=0)).max()
    if rowsum > _TOL_ROWSUM * scale:
        violations.append(
            ("row_sum", f"max |sum_i W_ij| = {rowsum:.3e} exceeds {_TOL_ROWSUM:.0e} * max|W|")
        )

    if not any(name in ("w_symmetry", "k_symmetry", "k_negative") for name, _ in violations):
        # For symmetric K the rotation (x +- xbar)/sqrt(2) splits the full
        # form into the sector blocks W + diag(khat) -+ K.  Finite entries
        # can still overflow there, and LAPACK turns an inf or NaN into
        # meaningless eigenvalues instead of an error.
        with np.errstate(over="ignore", invalid="ignore"):
            block = w + np.diag(k.sum(axis=1))
            sectors = np.stack([block - k, block + k])
        if not (np.isfinite(sectors).all()
                and np.isfinite(eigs := np.linalg.eigvalsh(sectors)).all()):
            violations.append(
                ("non_finite", "the sector blocks W + diag(khat) -+ K "
                               "or their eigenvalues overflow")
            )
        elif (lowest := eigs.min()) < -_TOL_PSD * max(eigs.max(), 1e-300):
            violations.append(
                ("full_potential_indefinite",
                 f"min eigenvalue {lowest:.3e} of the full quadratic form is negative")
            )

    return violations


def build_general_model(w_matrix, k_matrix, mass, hbar=1.0):
    """Validate user-supplied (W, K) and wrap them in a SystemModel.

    Raises ModelValidationError carrying the full violation list when an
    invariant fails.
    """
    violations = validate_model(w_matrix, k_matrix, mass, hbar)
    if violations:
        raise ModelValidationError(violations)
    w = np.asarray(w_matrix, dtype=float)
    return SystemModel(
        n_particles=w.shape[0],
        mass=float(mass),
        w_matrix=w,
        k_matrix=np.asarray(k_matrix, dtype=float),
        hbar=float(hbar),
    )


def build_next_neighbor_model(n_particles, mass=1.0, omega0=1.0, alpha=0.0, hbar=1.0):
    """Two next-neighbor chains coupled at their first sites.

    The intra-chain potential is (m omega0^2 / 2) sum_j (x_j - x_{j+1})^2
    over the N-1 bonds of a free-ended chain, whose normal modes are the
    standing waves with frequencies 2 omega0 |sin(pi (k-1) / 2N)|.  The
    coupling matrix has the single entry K_11 = alpha / 2.  The output
    is valid by construction, so only the scalar inputs are checked.
    """
    n = int(n_particles)
    if n < 2:
        raise ValueError(f"n_particles must be >= 2 (one particle has no bath), got {n}")
    for name, value in (("mass", mass), ("omega0", omega0), ("hbar", hbar)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")

    c = mass * omega0**2 / 2.0
    lap = np.zeros((n, n))
    idx = np.arange(n - 1)
    lap[idx, idx] += 1.0
    lap[idx + 1, idx + 1] += 1.0
    lap[idx, idx + 1] -= 1.0
    lap[idx + 1, idx] -= 1.0
    w = c * lap

    k = np.zeros((n, n))
    k[0, 0] = alpha / 2.0

    return SystemModel(
        n_particles=n, mass=float(mass), w_matrix=w, k_matrix=k,
        hbar=float(hbar), omega0=float(omega0),
    )


def next_neighbor_frequencies(n_particles, omega0):
    """Closed-form chain frequencies 2 omega0 |sin(pi (k-1) / 2N)|, k=1..N."""
    k = np.arange(n_particles)
    return 2.0 * omega0 * np.abs(np.sin(np.pi * k / (2 * n_particles)))


def standing_wave_basis(n_particles):
    """Closed-form orthogonal mode basis of the free next-neighbor chain.

    Row k (k >= 1) is sqrt(2/N) cos(pi k (j + 1/2) / N) over sites j;
    row 0 is the uniform zero mode.
    """
    n = n_particles
    j = np.arange(n)
    basis = np.empty((n, n))
    basis[0] = 1.0 / np.sqrt(n)
    for k in range(1, n):
        basis[k] = np.sqrt(2.0 / n) * np.cos(np.pi * k * (j + 0.5) / n)
    return basis


def _fix_signs(modes):
    """Make the first nonzero component of every column nonnegative, in
    place; returns ``modes``.  Row-wise modes go in transposed."""
    mag = np.abs(modes)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = modes[first, np.arange(modes.shape[1])] < 0
    np.negative(modes, out=modes, where=flip)
    return modes


def _psd_eigh(mat, what):
    """Eigenpairs of a block that must be positive semidefinite.

    Symmetrizes ``mat`` and solves it; returns (eigenvalues ascending
    and clipped at 0, modes as sign-fixed columns).  A failed solve or a
    mode below -_TOL_PSD times the spectral scale raises
    UnstableModelError naming the block ``what``.
    """
    try:
        evals, evecs = np.linalg.eigh((mat + mat.T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise UnstableModelError(f"{what} eigensolve failed: {exc}") from exc
    scale = max(abs(evals[-1]), abs(evals[0]), 1e-300)
    if evals[0] < -_TOL_PSD * scale:
        raise UnstableModelError(
            f"{what} has a negative mode ({evals[0]:.6e}); "
            "the potential is not positive semidefinite"
        )
    return np.clip(evals, 0.0, None), _fix_signs(evecs)


def phonon_spectrum(model: SystemModel) -> PhononSpectrum:
    """Diagonalize the chain: frequencies and the orthogonal mode basis.

    The uniform zero mode is deflated analytically (W has vanishing row
    sums, so the uniform vector is an exact null vector); the remaining
    modes come from a dense symmetric eigensolve on its orthogonal
    complement.  Frequencies are sorted ascending with the zero mode
    first and mode signs are fixed for reproducibility.
    """
    n = model.n_particles
    w = model.w_matrix
    m = model.mass

    uniform = np.full(n, 1.0 / np.sqrt(n))
    # Orthonormal basis of the complement of the uniform vector.
    full = np.eye(n)
    full[:, 0] = uniform
    q, _ = np.linalg.qr(full)
    # QR can flip the first column's sign; realign with the uniform vector.
    if q[:, 0] @ uniform < 0:
        q[:, 0] = -q[:, 0]
    comp = q[:, 1:]

    evals, evecs = _psd_eigh(comp.T @ w @ comp, "chain potential W")

    freqs = np.empty(n)
    freqs[0] = 0.0
    freqs[1:] = np.sqrt(2.0 * evals / m)
    basis = np.empty((n, n))
    basis[0] = uniform
    basis[1:] = (comp @ evecs).T
    return PhononSpectrum(frequencies=freqs, basis=_fix_signs(basis.T).T)


def _full_potential(w, k):
    n = w.shape[0]
    khat = k.sum(axis=1)
    q = np.zeros((2 * n, 2 * n))
    diag_block = w + np.diag(khat)
    q[:n, :n] = diag_block
    q[n:, n:] = diag_block
    q[:n, n:] = -k
    q[n:, :n] = -k.T
    return q


def full_potential_matrix(model: SystemModel):
    """Quadratic form Q of the total potential: V(z) = z^T Q z, z = (x, xbar).

    Diagonal blocks W + diag(khat), off-diagonal blocks -K.
    """
    return _full_potential(model.w_matrix, model.k_matrix)


def potential_energy(model: SystemModel, x, xbar):
    """Total potential evaluated from its definition (independent of Q).

    (x, W x) + (xbar, W xbar) + sum_ij K_ij (x_i - xbar_j)^2.
    """
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    w = model.w_matrix
    k = model.k_matrix
    diff = x[:, None] - xbar[None, :]
    return float(x @ w @ x + xbar @ w @ xbar + (k * diff**2).sum())
