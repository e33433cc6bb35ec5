"""Randomized cross-route properties over generated models.

Seeded loops over random valid couplings; every drawn model must
satisfy the same exactness identities as the curated cases.
"""

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_frequency,
    collective_mapping,
    collective_sector_modes,
    correlator_S,
    decoupling_indicator,
    evolve_exact,
    is_point_coupling,
    sector_eigenvalues,
    solve_volterra,
    strength_comb,
)
from oracles import full_potential_matrix, phonon_coupling_row, phonon_spectrum


def random_models(count, seed=20240809):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 17))
        omega0 = float(rng.uniform(0.5, 2.0))
        mass = float(rng.uniform(0.5, 2.0))
        w = build_next_neighbor_model(n, mass, omega0, 0.0).w_matrix
        kind = rng.integers(0, 3)
        if kind == 0:       # diagonal couplings
            k = np.diag(rng.uniform(0.0, 0.6, size=n))
        elif kind == 1:     # constant plus fluctuation
            delta = rng.uniform(0.0, 0.2, size=(n, n))
            k = 0.3 + (delta + delta.T) / 2.0
        else:               # sparse symmetric nonnegative
            k = np.zeros((n, n))
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(0, n, size=2)
                v = rng.uniform(0.1, 0.8)
                k[i, j] += v
                k[j, i] += v * (i != j)
        yield build_general_model(w, k, mass), rng


def test_random_models_spectrum_preserved():
    for model, _ in random_models(12):
        form = caldeira_leggett_form(model)[0]
        anti = collective_sector_modes(form).frequencies
        sym_sq = 2.0 * sector_eigenvalues(model)[0] / model.mass
        mapped_sq = np.sort(np.concatenate([anti**2, sym_sq]))
        full_sq = 2.0 * scipy.linalg.eigvalsh(
            full_potential_matrix(model)) / model.mass
        assert np.abs(mapped_sq - full_sq).max() < 1e-8 * max(full_sq[-1], 1e-12)


def test_random_models_coupling_routes_agree():
    # the closed form from the row sums equals (I - u u^T)(diag(khat) + K) u
    # for every K, since khat are K's row sums, and the phonon basis
    # rotates it into the coupling row of A (diag(khat) + K) A^T
    for model, _ in random_models(12, seed=7):
        k, decoupled = decoupling_indicator(model)
        khat = model.row_coupling_sums
        u = np.full(model.n_particles, 1.0 / np.sqrt(model.n_particles))
        k_site = (np.diag(khat) + model.k_matrix) @ u
        k_site -= u * (u @ k_site)
        scale = max(np.abs(khat).max(), 1.0)
        assert np.abs(k - k_site).max() <= 1e-12 * scale
        rotated = phonon_spectrum(model).basis[1:] @ k
        assert np.abs(rotated - phonon_coupling_row(model)).max() <= 1e-12 * scale
        if decoupled:
            assert np.abs(k).max() < 1e-12 * max(model.row_coupling_sums.max(), 1e-300)


def test_random_models_volterra_tracks_exact():
    count = 0
    for model, _ in random_models(8, seed=11):
        form = caldeira_leggett_form(model)[0]
        params = collective_frequency(form)
        if params.omega0_sq <= 0:
            continue
        scale_freq = max(form.bath_freqs.max(), np.sqrt(params.omega0_sq))
        h = 0.01 / scale_freq
        t_max = min(4.0 * model.n_particles / scale_freq, 20.0)
        t = np.arange(int(round(t_max / h)) + 1) * h
        volt = solve_volterra(form, 1.0, t)
        exact = evolve_exact(collective_sector_modes(form), 1.0, t)
        scale = max(np.abs(exact.positions).max(), 1e-12)
        assert np.abs(volt.positions - exact.positions).max() < 1e-4 * scale
        count += 1
    assert count >= 5  # the draw must actually exercise the identity


def test_random_models_quantum_link_and_sum_rule():
    for model, _ in random_models(10, seed=3):
        form = caldeira_leggett_form(model)[0]
        modes = collective_sector_modes(form)
        if (modes.frequencies <= 0).any():
            continue
        comb = strength_comb(modes)
        target = model.hbar / (2.0 * model.mass)
        assert (comb.weights * comb.frequencies).sum() == pytest.approx(
            target, rel=1e-12)
        t = np.linspace(0.0, 10.0, 500)
        s = correlator_S(modes, t)
        x = evolve_exact(modes, 1.0, t).positions
        assert np.abs(s.imag + model.hbar / 2.0 * x).max() < 1e-12 * max(
            1.0, np.abs(x).max())


def test_secular_extreme_couplings():
    # bracketed root-finding stays robust far outside the curated range,
    # for the bath (poles k = 1..N-1) and the whole sector (k = 0..N-1)
    for n in (4, 32, 128, 1024):
        chain_sq = (2.0 * np.sin(np.pi * np.arange(n) / (2 * n))) ** 2
        for alpha in (1e-6, 1e-2, 1e2, 1e6):
            model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
            assert is_point_coupling(model)  # the secular route
            form, modes = collective_mapping(model)
            freqs, c = form.bath_freqs, form.couplings_l
            c_sq = modes.x_coefficients**2
            assert np.isfinite(modes.frequencies).all()
            assert np.isfinite(c_sq).all()
            assert abs(c_sq.sum() - 1.0) < 1e-14
            for roots, poles in ((freqs, chain_sq[1:]),
                                 (modes.frequencies, chain_sq)):
                assert roots.size == poles.size
                assert np.isfinite(roots).all() and np.isfinite(c).all()
                assert (np.diff(roots) > 0).all()
                # gap roots interlace; the top root clears the band
                assert (roots[:-1] ** 2 > poles[:-1]).all()
                assert (roots[:-1] ** 2 < poles[1:]).all()
                assert roots[-1] ** 2 > poles[-1]


def test_secular_matches_generic_at_n128():
    model = build_next_neighbor_model(128, 1.0, 1.0, 2.0)
    form = caldeira_leggett_form(model)[0]
    assert is_point_coupling(model)  # the secular route
    secular = collective_mapping(model)[0]
    freqs, c = secular.bath_freqs, secular.couplings_l
    assert np.abs(freqs - form.bath_freqs).max() < 1e-8
    assert np.abs(np.abs(c) - np.abs(form.couplings_l)).max() < 1e-8
