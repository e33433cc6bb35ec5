import dataclasses

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    SystemModel,
    UnstableModelError,
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_mapping,
    collective_sector_eigensystem,
    collective_sector_modes,
    decoupling_indicator,
    full_potential_matrix,
    interaction_in_phonon_basis,
    is_point_coupling,
    phonon_spectrum,
    point_coupling_secular,
    shift_collective_potential,
    symmetric_sector_frequencies,
)


def point_model(n, alpha, mass=1.0, omega0=1.0):
    return build_next_neighbor_model(n, mass, omega0, alpha)


def dense_bath(model):
    """Dense form, its bath transform U and the bath block B it diagonalized."""
    ph = phonon_spectrum(model)
    form, u = caldeira_leggett_form(model, ph)
    k_tilde = interaction_in_phonon_basis(model, ph)
    b = k_tilde[1:, 1:] + np.diag(model.mass * ph.frequencies[1:] ** 2 / 2.0)
    return form, u, b


def test_point_coupling_k_tilde_rank_one():
    # K~_nm = alpha a_n a_m with a the site-1 profile of the modes
    model = point_model(4, 1.0)
    ph = phonon_spectrum(model)
    k_tilde = interaction_in_phonon_basis(model, ph)
    a = ph.basis[:, 0]
    assert np.abs(k_tilde - np.outer(a, a)).max() < 1e-12
    assert k_tilde[0, 0] == pytest.approx(0.25, abs=1e-13)
    # alpha/2 in each of the two congruences makes the symmetric part vanish
    k_bar = ph.basis @ (np.diag(model.row_coupling_sums) - model.k_matrix) @ ph.basis.T
    assert np.abs(k_bar).max() < 1e-12


def test_zero_coupling_transforms_vanish():
    model = point_model(5, 0.0)
    ph = phonon_spectrum(model)
    assert np.abs(interaction_in_phonon_basis(model, ph)).max() == 0.0
    k_bar = ph.basis @ (np.diag(model.row_coupling_sums) - model.k_matrix) @ ph.basis.T
    assert np.abs(k_bar).max() == 0.0


def test_constant_coupling_single_entry():
    n, c = 6, 0.37
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((n, n), c), mass=1.0)
    a = phonon_spectrum(model).basis
    k_beta = a @ model.k_matrix @ a.T
    assert k_beta[0, 0] == pytest.approx(c * n, rel=1e-12)
    off = k_beta.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-12


def test_caldeira_leggett_n2_hand_values():
    form, _, b = dense_bath(point_model(2, 1.0))
    assert form.k_tilde_11 == pytest.approx(0.5, abs=1e-13)
    assert b[0, 0] == pytest.approx(1.5, abs=1e-13)
    assert form.bath_freqs[0] == pytest.approx(np.sqrt(3.0), abs=1e-13)
    assert form.coupling_k[0] == pytest.approx(0.5, abs=1e-13)
    assert form.couplings_l[0] == pytest.approx(0.5, abs=1e-13)


def test_bath_invariants():
    for n, alpha in ((4, 0.5), (16, 2.0)):
        model = point_model(n, alpha)
        form, u, b = dense_bath(model)
        m = model.mass
        target = (m / 2.0) * np.diag(form.bath_freqs**2)
        assert np.abs(u.T @ u - np.eye(n - 1)).max() < 1e-12
        assert np.abs(u.T @ b @ u - target).max() < 1e-10
        assert np.abs(u.T @ form.coupling_k - form.couplings_l).max() < 1e-12
        assert np.linalg.norm(form.couplings_l) == pytest.approx(
            np.linalg.norm(form.coupling_k), rel=1e-12)
        assert (form.bath_freqs > 0).all()
        assert (np.diff(form.bath_freqs) >= 0).all()


def test_zero_alpha_bath_is_free_phonons():
    model = point_model(8, 0.0)
    ph = phonon_spectrum(model)
    form = caldeira_leggett_form(model)[0]
    assert np.abs(form.coupling_k).max() == 0.0
    assert np.allclose(form.bath_freqs, ph.frequencies[1:], rtol=1e-12)


def test_decoupling_constant_coupling():
    n = 6
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((n, n), 0.4), mass=1.0)
    k, decoupled = decoupling_indicator(model, phonon_spectrum(model))
    assert decoupled
    assert np.abs(k).max() < 1e-12 * model.row_coupling_sums.max()


def test_decoupling_depends_only_on_fluctuating_part():
    rng = np.random.default_rng(3)
    n = 8
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    delta = rng.uniform(0.0, 0.2, size=(n, n))
    delta = (delta + delta.T) / 2.0
    base = build_general_model(w, delta, mass=1.0)
    shifted = build_general_model(w, delta + 0.7, mass=1.0)
    k1, _ = decoupling_indicator(base, phonon_spectrum(base))
    k2, _ = decoupling_indicator(shifted, phonon_spectrum(shifted))
    assert np.abs(k1 - k2).max() < 1e-12


def test_point_coupling_not_decoupled():
    model = point_model(4, 1.0)
    k, decoupled = decoupling_indicator(model, phonon_spectrum(model))
    assert not decoupled
    assert np.linalg.norm(k) > 0.1


def test_secular_n2_hand_value():
    freqs, c = point_coupling_secular(2, 1.0, 1.0, 1.0)
    assert freqs[0] ** 2 == pytest.approx(3.0, rel=1e-12)
    assert abs(c[0]) == pytest.approx(0.5, rel=1e-10)


def test_secular_roots_collapse_for_small_alpha():
    n = 8
    freqs, _ = point_coupling_secular(n, 1.0, 1e-10, 1.0)
    ph = phonon_spectrum(point_model(n, 0.0))
    assert np.allclose(freqs, ph.frequencies[1:], atol=1e-8)


def test_secular_interlacing():
    n, alpha = 8, 0.5
    freqs, _ = point_coupling_secular(n, 1.0, alpha, 1.0)
    chain = phonon_spectrum(point_model(n, 0.0)).frequencies
    for j in range(n - 2):
        assert chain[j + 1] < freqs[j] < chain[j + 2]
    assert freqs[-1] > chain[-1]


def test_secular_matches_generic_pipeline():
    # the spec's central cross-check: two independent routes to (freqs, |l|)
    for n in (2, 8, 32, 64):
        for alpha in (0.1, 1.0, 10.0):
            model = point_model(n, alpha)
            form = caldeira_leggett_form(model)[0]
            freqs, c = point_coupling_secular(n, 1.0, alpha, 1.0)
            assert np.abs(freqs - form.bath_freqs).max() < 1e-12
            assert np.abs(np.abs(c) - np.abs(form.couplings_l)).max() < 1e-12


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", [2, 8, 32, 64, 128, 512, 1024])
def test_structured_mapping_matches_dense(n, mass, omega0):
    # the O(N^2) secular route that `run` takes for point-coupled chains,
    # against the dense eigensolves; sector frequencies squared are
    # compared at the scale of the largest one, which is the dense
    # route's accuracy
    for alpha in (0.1, 0.5, 1.0, 10.0):
        model = point_model(n, alpha, mass, omega0)
        assert is_point_coupling(model)
        form, modes = collective_mapping(model)
        dense = caldeira_leggett_form(model)[0]
        dense_modes = collective_sector_modes(dense)
        assert abs(form.k_tilde_11 - dense.k_tilde_11) < 1e-12
        assert np.abs(form.coupling_k - dense.coupling_k).max() < 1e-12
        assert np.abs(form.bath_freqs - dense.bath_freqs).max() < 1e-12
        assert np.abs(np.abs(form.couplings_l)
                      - np.abs(dense.couplings_l)).max() < 1e-12
        lam, lam_dense = modes.frequencies**2, dense_modes.frequencies**2
        assert np.abs(lam - lam_dense).max() < 1e-12 * lam_dense[-1]
        c_sq = modes.x_coefficients**2
        assert np.abs(c_sq - dense_modes.x_coefficients**2).max() < 1e-9
        assert abs(c_sq.sum() - 1.0) < 1e-14


def test_dense_route_for_other_models():
    # no coupling, a second coupling entry, or no closed-form chain: the
    # mapping falls back to the dense eigensolves
    model = point_model(6, 0.5)
    k = model.k_matrix.copy()
    k[1, 1] = 0.1
    others = [point_model(6, 0.0),
              dataclasses.replace(model, k_matrix=k),
              build_general_model(model.w_matrix, model.k_matrix, 1.0)]
    for other in others:
        assert not is_point_coupling(other)
        form, modes = collective_mapping(other)
        dense = caldeira_leggett_form(other)[0]
        assert np.array_equal(form.bath_freqs, dense.bath_freqs)
        assert np.array_equal(modes.frequencies,
                              collective_sector_modes(dense).frequencies)


def test_secular_rejects_bad_input():
    with pytest.raises(ValueError):
        point_coupling_secular(8, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        point_coupling_secular(1, 1.0, 1.0, 1.0)


def test_sector_modes_n2_hand_values():
    # frequency-squared matrix [[1, 1], [1, 3]] (coupling row 2 l / m):
    # eigenvalues 2 +- sqrt(2); cross-checked by the full 4-coordinate
    # eigensolve in test_spectrum_preservation
    form = caldeira_leggett_form(point_model(2, 1.0))[0]
    modes = collective_sector_modes(form)
    assert np.allclose(modes.frequencies**2,
                       [2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)], atol=1e-12)
    # X weights: eigenvector (1, lam - 1)/norm -> c0^2 = 1/(4 - 2 sqrt(2))
    assert modes.x_coefficients[0] ** 2 == pytest.approx(
        1.0 / (4.0 - 2.0 * np.sqrt(2.0)), abs=1e-12)
    assert (modes.x_coefficients**2).sum() == pytest.approx(1.0, abs=1e-12)


def test_sector_modes_decoupled_limit():
    n, c = 6, 0.4
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((n, n), c), mass=1.0)
    form = caldeira_leggett_form(model)[0]
    modes = collective_sector_modes(form)
    omega_x = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    i = np.argmax(modes.x_coefficients**2)
    assert modes.x_coefficients[i] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert modes.frequencies[i] == pytest.approx(omega_x, rel=1e-12)


def test_sector_x_weight_normalized():
    for n, alpha in ((4, 0.3), (16, 3.0)):
        modes = collective_sector_modes(caldeira_leggett_form(point_model(n, alpha))[0])
        assert (modes.x_coefficients**2).sum() == pytest.approx(1.0, abs=1e-12)


def test_spectrum_preservation():
    # the mapped sectors together must reproduce the full 2N spectrum:
    # the chain of canonical transforms cannot change the frequencies;
    # compared in omega^2 (the eigensolve scaled by 2/m)
    for n, alpha in ((4, 1.0), (8, 0.5), (16, 2.5)):
        model = point_model(n, alpha)
        form = caldeira_leggett_form(model)[0]
        anti = collective_sector_modes(form).frequencies
        sym = symmetric_sector_frequencies(model)
        mapped_sq = np.sort(np.concatenate([anti, sym]) ** 2)
        full_sq = 2.0 * scipy.linalg.eigvalsh(full_potential_matrix(model)) / model.mass
        scale = full_sq[-1]
        assert np.abs(mapped_sq - full_sq).max() < 1e-8 * scale


def test_dense_route_matches_scipy_oracle():
    # the package's eigensolves (numpy, LAPACK syevd) against scipy's
    # syevr on a seeded disordered chain with a few extra couplings; the
    # oracle spectra come from orthonormal-basis-free formulations
    n, mass = 256, 1.0
    rng = np.random.default_rng(7)
    bonds = 0.5 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, n - 1))
    idx = np.arange(n - 1)
    w = np.zeros((n, n))
    w[idx, idx] += bonds
    w[idx + 1, idx + 1] += bonds
    w[idx, idx + 1] -= bonds
    w[idx + 1, idx] -= bonds
    k = np.zeros((n, n))
    k[0, 0] = 0.25
    for _ in range(3):
        i, j = rng.integers(0, 8, size=2)
        v = rng.uniform(0.0, 0.002)
        k[i, j] += v
        k[j, i] += v * (i != j)
    model = build_general_model(w, k, mass)
    phonons = phonon_spectrum(model)
    form, _ = caldeira_leggett_form(model, phonons)
    sector_sq = collective_sector_eigensystem(form)[0] ** 2

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # the bath block is the antisymmetric block on the complement of
    # the uniform vector, in any orthonormal basis of it
    anti = w + np.diag(k.sum(axis=1)) + k
    comp = scipy.linalg.null_space(np.ones((1, n)))
    assert close(phonons.frequencies**2, 2.0 * scipy.linalg.eigvalsh(w) / mass)
    assert close(form.bath_freqs,
                 np.sqrt(2.0 * scipy.linalg.eigvalsh(comp.T @ anti @ comp) / mass))
    assert close(sector_sq, 2.0 * scipy.linalg.eigvalsh(anti) / mass)


def test_stiffness_shift_leaves_bath_alone():
    model = point_model(8, 1.0)
    form = caldeira_leggett_form(model)[0]
    shifted = shift_collective_potential(form, 0.31)
    assert shifted.k_tilde_11 == pytest.approx(form.k_tilde_11 + 0.31, rel=1e-14)
    for field in dataclasses.fields(form):
        if field.name != "k_tilde_11":
            assert np.array_equal(getattr(shifted, field.name),
                                  getattr(form, field.name)), field.name


def test_stiffness_shift_moves_sector_consistently():
    form = caldeira_leggett_form(point_model(6, 1.0))[0]
    k0 = 0.5
    base = collective_sector_modes(form)
    shifted = collective_sector_modes(shift_collective_potential(form, k0))
    # eigenvalue sum gains exactly the trace increment 2 k0 / m
    gain = (shifted.frequencies**2).sum() - (base.frequencies**2).sum()
    assert gain == pytest.approx(2.0 * k0 / form.mass, rel=1e-10)


def test_unstable_bath_rejected():
    # negative coupling (bypasses validation) drives a bath mode negative
    w = build_next_neighbor_model(2, 1.0, 1.0, 0.0).w_matrix
    k = np.zeros((2, 2))
    k[0, 0] = -2.0
    bad = SystemModel(2, 1.0, w, k)
    with pytest.raises(UnstableModelError, match="bath block"):
        caldeira_leggett_form(bad)[0]


def test_unstable_sector_rejected():
    # pulling the collective stiffness far negative breaks positivity of
    # the (X, bath) sector
    form = caldeira_leggett_form(point_model(4, 1.0))[0]
    with pytest.raises(UnstableModelError, match="collective sector"):
        collective_sector_modes(shift_collective_potential(form, -10.0))


def test_coupling_invariant_under_constant_offset():
    # sigma's line strengths l^2 track only the fluctuating part of the
    # coupling; a constant offset stiffens every line but leaves l alone
    n = 8
    model = point_model(n, 1.0)
    w = model.w_matrix
    offset_model = build_general_model(w, model.k_matrix + 0.3, mass=1.0)
    f0 = caldeira_leggett_form(model)[0]
    f1 = caldeira_leggett_form(offset_model)[0]
    assert np.abs(np.sort(np.abs(f0.couplings_l)) -
                  np.sort(np.abs(f1.couplings_l))).max() < 1e-12
    assert np.allclose(f1.bath_freqs**2, f0.bath_freqs**2 + 2 * n * 0.3 / 1.0,
                       rtol=1e-11)
