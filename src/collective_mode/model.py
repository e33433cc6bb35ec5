"""Two coupled oscillator chains: construction, validation, eigensolves.

The system is a pair of identical chains of N particles with intra-chain
potential (x, W x) per chain (the quadratic form carries no extra 1/2;
the factor convention is fixed here and used consistently downstream) and
an inter-chain coupling sum_ij K_ij (x_i - xbar_j)^2 with nonnegative
symmetric K.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class NumericalError(Exception):
    """Base of the package's numerical failures: an unstable sector, a
    refused time step, a root solve that does not converge.  Each raising
    site's subclass also derives from the builtin error it raised before."""


class ModelValidationError(ValueError):
    """Raised when a model violates its structural invariants.

    The ``violations`` attribute holds (name, message) pairs, one per
    violated invariant.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{name}: {msg}" for name, msg in self.violations)
        super().__init__(f"invalid model: {lines}")


class UnstableModelError(NumericalError, RuntimeError):
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


def _float_pair(obj, first, second):
    """Store the two named fields of a frozen dataclass as float arrays,
    without a copy where they already are, and return them; ValueError
    unless they are matching 1-d arrays."""
    a, b = (np.asarray(getattr(obj, name), dtype=float) for name in (first, second))
    if a.ndim != 1 or b.shape != a.shape:
        raise ValueError(f"{first} and {second} must be matching 1-d arrays")
    object.__setattr__(obj, first, a)
    object.__setattr__(obj, second, b)
    return a, b


class _Chain(NamedTuple):
    """Recipe of a next-neighbor chain pair: its W and K follow from
    these and the model's N and m."""

    omega0: float
    alpha: float


@dataclass(frozen=True)
class SystemModel:
    """Validated two-chain model.

    n_particles : particles per chain (N >= 2)
    mass        : particle mass m > 0
    w_matrix    : (N, N) intra-chain quadratic form W
    k_matrix    : (N, N) inter-chain coupling constants K_ij >= 0
    hbar        : reduced Planck constant (natural units default)

    A model built from arrays, dataclasses.replace included, is a
    general model.  build_next_neighbor_model keeps the chain's recipe
    instead and forms W and K only when a dense consumer first reads
    them, so a chain costs O(1) memory until then.
    """

    n_particles: int
    mass: float
    w_matrix: np.ndarray = field(repr=False)
    k_matrix: np.ndarray = field(repr=False)
    hbar: float = 1.0
    _chain: _Chain | None = field(default=None, init=False)

    def __post_init__(self):
        _freeze(self, "w_matrix", "k_matrix")

    def __getattr__(self, name):
        # Reached only for attributes missing from the instance: the
        # sector eigenvalues before their first solve and, on a chain
        # model, W or K before their first read.
        if name == "_sector_eigs":
            value = np.linalg.eigvalsh(_sector_blocks(self.w_matrix, self.k_matrix))
        elif self._chain is not None and name in ("w_matrix", "k_matrix"):
            value = _chain_matrix(self, name)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        _freeze(self, name)
        return self.__dict__[name]

    @property
    def omega0(self):
        """Bare next-neighbor frequency of a chain model; None for a
        general one."""
        return None if self._chain is None else self._chain.omega0

    @property
    def row_coupling_sums(self):
        """khat_i = sum_j K_ij."""
        return self.k_matrix.sum(axis=1)


def _sector_blocks(w, k):
    """The two sector blocks of the full quadratic form, stacked (2, N, N).

    For symmetric K the rotation s, a = (x +- xbar)/sqrt(2) splits
    z^T Q z into s^T (W + diag(khat) - K) s + a^T (W + diag(khat) + K) a:
    index 0 is the symmetric (center-of-mass) block, which never couples
    to X, and index 1 the antisymmetric (relative) block, which holds X
    and its bath.
    """
    block = w + np.diag(k.sum(axis=1))
    return np.stack([block - k, block + k])


def antisymmetric_block(model: SystemModel):
    """W + diag(khat) + K, the antisymmetric block of _sector_blocks
    (bit for bit), formed without the symmetric one."""
    return model.w_matrix + np.diag(model.row_coupling_sums) + model.k_matrix


def sector_eigenvalues(model: SystemModel):
    """Eigenvalues of both sector blocks, (2, N) with each row ascending.

    Row 0 is the symmetric and row 1 the antisymmetric block; together
    they are the spectrum of the full 2N quadratic form, and 2/m times
    them are the squared frequencies.  Solved at most once per model;
    the result is read-only.
    """
    return model._sector_eigs


def _validate(w_matrix, k_matrix, mass, hbar):
    """The structural checks of build_general_model: (violations, eigs).

    violations holds one (name, message) pair per violated invariant,
    so a symmetry problem reads apart from a row-sum or positivity one;
    eigs are the positivity check's sector eigenvalues as
    sector_eigenvalues returns them, or None when the checks stop before
    that eigensolve.  W need not be circulant: the mapping only needs W
    symmetric with vanishing row sums (the uniform vector must be a zero
    mode), which the free-ended next-neighbor chain satisfies.
    """
    violations = []
    w = np.asarray(w_matrix, dtype=float)
    k = np.asarray(k_matrix, dtype=float)

    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return [("shape", f"W must be square, got {w.shape}")], None
    if k.shape != w.shape:
        return [("shape", f"K shape {k.shape} does not match W shape {w.shape}")], None
    n = w.shape[0]
    if n < 2:
        violations.append(("size", f"need N >= 2 particles per chain, got {n}"))
    for name, value in (("mass", mass), ("hbar", hbar)):
        if not (value > 0 and np.isfinite(value)):
            violations.append((name, f"{name} must be positive and finite, got {value}"))
    if not (np.isfinite(w).all() and np.isfinite(k).all()):
        violations.append(("non_finite", "W and K must have finite entries"))
    if violations:
        return violations, None

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

    eigs = None
    if not any(name in ("w_symmetry", "k_symmetry", "k_negative") for name, _ in violations):
        # Finite entries can still overflow in the sector blocks, and
        # LAPACK turns an inf or NaN into meaningless eigenvalues instead
        # of an error.
        with np.errstate(over="ignore", invalid="ignore"):
            sectors = _sector_blocks(w, k)
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

    return violations, eigs


def build_general_model(w_matrix, k_matrix, mass, hbar=1.0):
    """Validate user-supplied (W, K) and wrap them in a SystemModel, which
    keeps the sector eigenvalues validation computed.

    Raises ModelValidationError carrying the full violation list when an
    invariant fails.
    """
    violations, eigs = _validate(w_matrix, k_matrix, mass, hbar)
    if violations:
        raise ModelValidationError(violations)
    w = np.asarray(w_matrix, dtype=float)
    model = SystemModel(
        n_particles=w.shape[0],
        mass=float(mass),
        w_matrix=w,
        k_matrix=np.asarray(k_matrix, dtype=float),
        hbar=float(hbar),
    )
    object.__setattr__(model, "_sector_eigs", eigs)
    _freeze(model, "_sector_eigs")
    return model


def build_next_neighbor_model(n_particles, mass=1.0, omega0=1.0, alpha=0.0, hbar=1.0):
    """Two next-neighbor chains coupled at their first sites.

    The intra-chain potential is (m omega0^2 / 2) sum_j (x_j - x_{j+1})^2
    over the N-1 bonds of a free-ended chain, whose normal modes are the
    standing waves with frequencies 2 omega0 |sin(pi (k-1) / 2N)|.  The
    coupling matrix has the single entry K_11 = alpha / 2.  The output
    is valid by construction, so only the scalar inputs are checked.
    The model keeps (N, m, omega0, alpha) and forms W and K on their
    first read.
    """
    n = int(n_particles)
    if n < 2:
        raise ValueError(f"n_particles must be >= 2 (one particle has no bath), got {n}")
    for name, value in (("mass", mass), ("omega0", omega0), ("hbar", hbar)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")

    model = SystemModel.__new__(SystemModel)
    for name, value in (("n_particles", n), ("mass", float(mass)),
                        ("hbar", float(hbar)),
                        ("_chain", _Chain(float(omega0), float(alpha)))):
        object.__setattr__(model, name, value)
    return model


def _chain_matrix(model: SystemModel, name):
    """A chain model's dense W (name "w_matrix") or K ("k_matrix")."""
    n = model.n_particles
    omega0, alpha = model._chain
    if name == "k_matrix":
        k = np.zeros((n, n))
        k[0, 0] = alpha / 2.0
        return k
    lap = np.zeros((n, n))
    idx = np.arange(n - 1)
    lap[idx, idx] += 1.0
    lap[idx + 1, idx + 1] += 1.0
    lap[idx, idx + 1] -= 1.0
    lap[idx + 1, idx] -= 1.0
    return (model.mass * omega0**2 / 2.0) * lap


def next_neighbor_frequencies(n_particles, omega0):
    """Closed-form chain frequencies 2 omega0 |sin(pi (k-1) / 2N)|, k=1..N."""
    k = np.arange(n_particles)
    return 2.0 * omega0 * np.abs(np.sin(np.pi * k / (2 * n_particles)))


def _fix_signs(modes):
    """Make the first nonzero component of every column nonnegative, in
    place; returns ``modes``.  Row-wise modes go in transposed."""
    mag = np.abs(modes)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = modes[first, np.arange(modes.shape[1])] < 0
    np.negative(modes, out=modes, where=flip)
    return modes


def _psd_clip(evals, what):
    """Ascending eigenvalues of a block that must be positive
    semidefinite, clipped at 0.  A mode below -_TOL_PSD times the
    spectral scale raises UnstableModelError naming the block ``what``."""
    scale = max(abs(evals[-1]), abs(evals[0]), 1e-300)
    if evals[0] < -_TOL_PSD * scale:
        raise UnstableModelError(
            f"{what} has a negative mode ({evals[0]:.6e}); "
            "the potential is not positive semidefinite"
        )
    return np.clip(evals, 0.0, None)


def _reflect(x):
    """H x for the Householder reflector H = I - v v^T / v_0, v = u + e_0,
    which swaps e_0 and -u (u the uniform unit vector), so columns 1..N-1
    of H span the complement of u.  A rank-one update, O(N) per column of
    x; H A H for a symmetric A is _reflect(_reflect(A).T)."""
    v = np.full(x.shape[0], 1.0 / np.sqrt(x.shape[0]))
    v[0] += 1.0
    return x - np.multiply.outer(v, v @ x / v[0])


def _deflate(block, what):
    """Split the uniform mode u off a symmetric block: (the eigenvalues
    of C^T block C, the orthogonal site basis [u | C U]).

    H = _reflect sends e_0 to -u and C is its last N-1 columns, so
    C^T block C is the lower block of H block H, which must be positive
    semidefinite.  It is symmetrized and solved; its eigenvalues come
    back ascending and clipped at 0, and its modes U are lifted back
    with each column's first nonzero entry positive.  A failed solve or
    a negative mode (_psd_clip) raises UnstableModelError naming the
    block ``what``.
    """
    n = block.shape[0]
    lower = _reflect(_reflect(block).T)[1:, 1:]
    try:
        evals, modes = np.linalg.eigh((lower + lower.T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise UnstableModelError(f"{what} eigensolve failed: {exc}") from exc
    evals = _psd_clip(evals, what)
    lift = np.zeros((n, n))
    lift[0, 0] = -1.0
    lift[1:, 1:] = modes
    return evals, _fix_signs(_reflect(lift))
