"""Reference constructions the tests check the package against.

None of these is on the package's runtime path: each builds a quantity
from its definition or from a basis the package no longer uses, so it
stays independent of the code under test.
"""

import numpy as np

from collective_mode import SystemModel, phonon_spectrum


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
