"""Reference constructions the tests check the package against.

None of these is on the package's runtime path: each builds a quantity
from its definition, from a basis the package no longer uses, or as
the package built it before (the eager chain arrays, the collective
sector by a dense eigensolve instead of its secular equation, the grid
x lines kernels in one product instead of row chunks, the mode sum from
freshly allocated arrays, the uniform-mode deflation with a fresh array
for every reflection, the energy check from direct phases, the CSV
table from one '%' format, a chain's resolvent as a pole sum in long
double), so it stays independent of the code under test.
phonon_spectrum is the exception: it returns the chain's phonon modes
from model._deflate of W, the call sigma_phonon_approximation makes, so
the tests that hold it against the standing waves check that call.
disordered_model is the seeded general model these references are
checked on, and split_chain_model one whose bath has a zero mode.
"""

from types import SimpleNamespace

import numpy as np

from collective_mode import SystemModel, antisymmetric_block, build_general_model
from collective_mode._kernels import BLOCK
from collective_mode.model import _deflate, _fix_signs, _psd_clip


def eager_chain_matrices(n, mass, omega0, alpha):
    """(W, K) of a next-neighbor chain pair as the factory built them
    before it kept only the chain's recipe: a free-ended chain Laplacian
    scaled by m omega0^2 / 2, and K_11 = alpha / 2 alone."""
    c = mass * omega0**2 / 2.0
    lap = np.zeros((n, n))
    idx = np.arange(n - 1)
    lap[idx, idx] += 1.0
    lap[idx + 1, idx + 1] += 1.0
    lap[idx, idx + 1] -= 1.0
    lap[idx + 1, idx] -= 1.0
    k = np.zeros((n, n))
    k[0, 0] = alpha / 2.0
    return c * lap, k


def full_potential_matrix(model: SystemModel):
    """Quadratic form Q of the total potential: V(z) = z^T Q z, z = (x, xbar).

    Diagonal blocks W + diag(khat), off-diagonal blocks -K.  The package
    works with its sector blocks instead; Q is the unsplit reference.
    """
    k = model.k_matrix
    diag_block = model.w_matrix + np.diag(model.row_coupling_sums)
    return np.block([[diag_block, -k], [-k.T, diag_block]])


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


def phonon_spectrum(model: SystemModel):
    """Normal modes of a single free chain: frequencies, ascending with
    the uniform zero mode first, and basis, whose rows are the sign-fixed
    modes, so basis @ W @ basis.T == (m/2) diag(frequencies**2).  W has
    vanishing row sums, and _deflate solves the rest on u's complement."""
    evals, basis = _deflate(model.w_matrix.copy(), "chain potential W")
    return SimpleNamespace(frequencies=np.sqrt(2.0 * np.append(0.0, evals) / model.mass),
                           basis=basis.T)


def out_of_place_reflect(x):
    """model._reflect as it was before it worked in place: H x for the
    Householder reflector H = I - v v^T / v_0, v = u + e_0, as one fresh
    N x N outer product subtracted from x into a new array."""
    v = np.full(x.shape[0], 1.0 / np.sqrt(x.shape[0]))
    v[0] += 1.0
    return x - np.multiply.outer(v, v @ x / v[0])


def out_of_place_deflate(block, what):
    """model._deflate as it was before it overwrote its block: every
    reflection, the symmetrized lower block and the lift are fresh
    arrays, and ``block`` is left as it was."""
    n = block.shape[0]
    lower = out_of_place_reflect(out_of_place_reflect(block).T)[1:, 1:]
    evals, modes = np.linalg.eigh((lower + lower.T) / 2.0)
    evals = _psd_clip(evals, what)
    lift = np.zeros((n, n))
    lift[0, 0] = -1.0
    lift[1:, 1:] = modes
    return evals, _fix_signs(out_of_place_reflect(lift))


def sector_matrix(form):
    """The collective sector's frequency-squared matrix: 2 Ktilde_11/m
    in the corner, the bath frequencies squared on the rest of the
    diagonal and the coupling row 2 l/m in its first row and column."""
    mat = np.diag(np.append(form.bare_omega_sq, form.bath_freqs**2))
    mat[0, 1:] = mat[1:, 0] = 2.0 * form.couplings_l / form.mass
    return mat


def dense_sector_eigensystem(form):
    """collective_sector_eigensystem as one dense eigensolve of
    sector_matrix(form), with the package's positivity check and sign
    convention: (frequencies, mode_matrix)."""
    mat = sector_matrix(form)
    evals, modes = np.linalg.eigh((mat + mat.T) / 2.0)
    return np.sqrt(_psd_clip(evals, "collective sector")), _fix_signs(modes)


def phonon_basis_blocks(model: SystemModel):
    """The antisymmetric sector in the chain's phonon basis A: (Ktilde, B).

    Ktilde = A (diag(khat) + K) A^T; its corner is the stiffness of X and
    the rest of its row 0 the coupling row.  The bath block is
    B = Ktilde[1:, 1:] + (m/2) diag(omega_{n+1}^2).
    """
    ph = phonon_spectrum(model)
    a = ph.basis
    k_tilde = a @ (np.diag(model.row_coupling_sums) + model.k_matrix) @ a.T
    k_tilde = (k_tilde + k_tilde.T) / 2.0
    b = k_tilde[1:, 1:] + np.diag(model.mass * ph.frequencies[1:] ** 2 / 2.0)
    return k_tilde, b


def phonon_coupling_row(model: SystemModel):
    """Coupling row of X in the chain's phonon basis A: row 0 of
    Ktilde = A (diag(khat) + K) A^T without its corner, by two
    matrix-vector products with the phonon modes."""
    a = phonon_spectrum(model).basis
    return (a[1:] * model.row_coupling_sums) @ a[0] + a[1:] @ (model.k_matrix @ a[0])


def correlator_exp(modes, t):
    """Ground-state correlator of X summed as complex exponentials:
    (hbar / 2 m) sum_n c_n^2 / w_n exp(-i w_n t)."""
    t_arr = np.asarray(t, dtype=float)
    coeff = modes.hbar / (2.0 * modes.mass) * modes.x_coefficients**2 / modes.frequencies
    out = np.exp(-1j * np.multiply.outer(t_arr, modes.frequencies)) @ coeff
    return complex(out) if t_arr.ndim == 0 else out


def _one_shot(out, grid, complex_out=False):
    """The kernels' scalar convention: a Python number for a scalar grid."""
    if np.ndim(grid) == 0:
        return complex(out) if complex_out else float(out)
    return out


def one_shot_damping_kernel(form, t):
    """damping_kernel as one (grid x lines) product."""
    t_arr = np.asarray(t, dtype=float)
    weights = (2.0 * form.couplings_l) ** 2 / (form.mass**2 * form.bath_freqs**2)
    return _one_shot(np.cos(np.multiply.outer(t_arr, form.bath_freqs)) @ weights, t)


def one_shot_gamma_transform(form, omega, epsilon):
    """gamma_transform as one (grid x lines) product."""
    omega_arr = np.asarray(omega, dtype=float)
    weights = (2.0 * form.couplings_l) ** 2 / (form.mass**2 * form.bath_freqs**2)
    s = epsilon - 1j * omega_arr[..., None]
    terms = s**2 + form.bath_freqs**2
    return _one_shot(np.divide(s, terms, out=terms) @ weights, omega, True)


def one_shot_correlator_S(modes, t):
    """correlator_S as one (grid x lines) product of each part."""
    t_arr = np.asarray(t, dtype=float)
    w = modes.frequencies
    coeff = modes.hbar / (2.0 * modes.mass) * modes.x_coefficients**2 / w
    phase = np.multiply.outer(t_arr, w)
    return _one_shot(np.cos(phase) @ coeff - 1j * (np.sin(phase) @ coeff), t, True)


def one_shot_smoothed_values(comb, epsilon, omegas):
    """smoothed_spectrum's values as one (grid x lines) product."""
    w = np.asarray(omegas, dtype=float)
    f = comb.frequencies
    lorentz = (epsilon / np.pi) / ((w[:, None] - f[None, :]) ** 2 + epsilon**2)
    return lorentz @ comb.weights


def _one_shot_split(w, h, n_points):
    """dynamics._split_trig's (S_a | C_a), c_b and s_b from fresh arrays."""
    fine = np.multiply.outer(w, np.arange(BLOCK) * h)
    phase = np.multiply.outer(np.arange(-(-n_points // BLOCK)) * (BLOCK * h), w)
    return np.hstack([np.sin(phase), np.cos(phase)]), np.cos(fine), np.sin(fine)


def one_shot_mode_trajectory(modes, p0, h, n_points):
    """evolve_exact's X(t) on the grid t = k h, k < n_points, from the
    blocked angle-addition split, with its right factor assembled by
    np.block from fresh arrays."""
    w = modes.frequencies
    c_sq = modes.x_coefficients**2
    free = w == 0.0
    scale = p0 / modes.mass
    g = (scale * c_sq / np.where(free, 1.0, w))[:, None]
    left, c_b, s_b = _one_shot_split(w, h, n_points)
    x = (left @ np.block([[g * c_b], [g * s_b]])).ravel()[:n_points]
    return x + (scale * c_sq[free].sum() * h) * np.arange(n_points)


def one_shot_split_correlator_S(modes, h, n_points):
    """correlator_S on the grid t = k h, k < n_points, from the blocked
    angle-addition split, with its (2N x 2 BLOCK) right factor of sine
    and cosine columns assembled by np.block from fresh arrays."""
    w = modes.frequencies
    coeff = (modes.hbar / (2.0 * modes.mass) * modes.x_coefficients**2 / w)[:, None]
    left, c_b, s_b = _one_shot_split(w, h, n_points)
    sc = left @ np.block([[coeff * c_b, -coeff * s_b], [coeff * s_b, coeff * c_b]])
    return sc[:, BLOCK:].ravel()[:n_points] - 1j * sc[:, :BLOCK].ravel()[:n_points]


def one_shot_total_energy(model, sector, basis, p0, times):
    """dynamics.total_energy from direct phases on the whole grid, with a
    fresh array for every product."""
    t = np.asarray(times, dtype=float)
    m = model.mass
    w, v_modes = sector
    amp = p0 / m * v_modes[0, :]
    phase = np.multiply.outer(t, w)
    free = w == 0.0
    q = np.sin(phase) * (amp / np.where(free, 1.0, w))
    q[:, free] = np.outer(t, amp[free])
    qdot = np.cos(phase) * amp
    to_anti = v_modes.T @ basis.T
    anti = antisymmetric_block(model)
    kinetic = 0.5 * m * ((qdot @ (to_anti @ to_anti.T)) * qdot).sum(axis=-1)
    potential = ((q @ (to_anti @ anti @ to_anti.T)) * q).sum(axis=-1)
    return kinetic + potential


def long_double_chain_fdt(n, rho, w0_sq, mass, hbar, omegas, epsilon):
    """fdt_spectrum of a point-coupled chain, summed pole by pole in
    np.longdouble (80-bit on x86-64 Linux): with zeta = (w + i eps)^2 /
    omega0^2, X's resolvent entry (1 - rho G1) / (rho/N - zeta (1 - rho
    G1)) / omega0^2, where G1 = sum_{k>=1} v_k / (zeta - d_k) over the
    chain's poles d_k = 4 sin^2(pi k / 2N) with weights v_k = (1 + cos(pi
    k / N)) / N.  A chunk of 64 grid points is summed at a time."""
    ld = np.longdouble
    k = np.arange(1, n, dtype=ld)
    theta = np.arccos(ld(-1)) * k / n
    poles = 4 * np.sin(theta / 2) ** 2
    v = (1 + np.cos(theta)) / n
    w0 = np.sqrt(ld(w0_sq))
    omegas = np.asarray(omegas, dtype=float)
    out = np.zeros(omegas.size)
    for i in range(0, omegas.size, 64):
        zeta = ((omegas[i:i + 64].astype(ld) + 1j * ld(epsilon)) / w0) ** 2
        g1 = (v / (zeta[:, None] - poles)).sum(axis=1)
        one = 1 - ld(rho) * g1
        r = one / (ld(rho) / n - zeta * one) / ld(w0_sq)
        out[i:i + 64] = ld(hbar) / (ld(mass) * np.arccos(ld(-1))) * r.imag
    return np.where(omegas > 0, out, 0.0)


def disordered_model(n, seed, mass=1.0):
    """Seeded general model: a free-ended chain with bonds
    (m/2)(1 +- 0.1 u), K_11 near 0.25 and three more K entries of at
    most 0.002 among the first 8 sites, all nonnegative and symmetric."""
    rng = np.random.default_rng(seed)
    bonds = mass / 2.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, n - 1))
    idx = np.arange(n - 1)
    w = np.zeros((n, n))
    w[idx, idx] += bonds
    w[idx + 1, idx + 1] += bonds
    w[idx, idx + 1] -= bonds
    w[idx + 1, idx] -= bonds
    k = np.zeros((n, n))
    k[0, 0] = rng.uniform(0.245, 0.255)
    for _ in range(3):
        i, j = rng.integers(0, min(n, 8), size=2)
        v = rng.uniform(0.0, 0.002)
        k[i, j] += v
        k[j, i] += v * (i != j)
    return build_general_model(w, k, mass)


def split_chain_model(a, b):
    """General model of two free-ended chains of a and b sites with no
    bond between them and K = 0: the pieces' relative displacement is a
    zero mode of the bath block, which round-off leaves at about 1e-16
    of either sign."""
    w = np.zeros((a + b, a + b))
    w[:a, :a] = eager_chain_matrices(a, 1.0, 1.0, 0.0)[0]
    w[a:, a:] = eager_chain_matrices(b, 1.0, 1.0, 0.0)[0]
    return build_general_model(w, np.zeros_like(w), 1.0)


def percent_table(header, columns):
    """CSV bytes of a table as `cli.write_table` formed them before its
    vectorised formatter: one '%.17g' %-format over the whole table.
    Python's '%.17g' is the spec of the number format."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    text = ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    return text.encode()
