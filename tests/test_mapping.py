import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    CollectiveForm,
    SystemModel,
    UnstableModelError,
    antisymmetric_block,
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_mapping,
    collective_sector_eigensystem,
    collective_sector_modes,
    decoupling_indicator,
    is_point_coupling,
    next_neighbor_frequencies,
    sector_eigenvalues,
)
from collective_mode import mapping as mapping_mod
from collective_mode import model as model_mod
from collective_mode.verify import run_checks
from oracles import (dense_sector_eigensystem, disordered_model,
                     full_potential_matrix, phonon_basis_blocks,
                     phonon_coupling_row, phonon_spectrum, sector_matrix,
                     split_chain_model)


def point_model(n, alpha, mass=1.0, omega0=1.0):
    return build_next_neighbor_model(n, mass, omega0, alpha)


def secular_bath(n, alpha):
    """Bath frequencies and couplings from the O(N) secular route."""
    model = point_model(n, alpha)
    assert is_point_coupling(model)
    form = collective_mapping(model)[0]
    return form.bath_freqs, form.couplings_l


def first_site_weights(n):
    """Squared first-site amplitudes v_k of the chain modes (sum 1)."""
    v = (2.0 / n) * np.sin(np.pi * (n - np.arange(n)) / (2 * n)) ** 2
    v[0] = 1.0 / n
    return v


def explicit_secular_roots(k, n, omega0, pw):
    """Roots of sum_k pw_k / (lam - d_k) = 1 by explicit pole sums: (lam, s2).

    The solver the mapping used before the chain's closed form, kept as
    the oracle at N in the thousands, where the dense route is slow.  The
    poles are the chain's d_k = 4 omega0^2 sin^2(pi k / 2N) for the
    ascending indices k.  Each root is lam = d_o + delta with o the
    nearer pole of its bracket; Newton steps on
    F(delta) = delta (1 - R(delta)) - pw_o (R: the sum without pole o),
    bisection whenever a step leaves the bracket.  The pole differences
    d_o - d_k are taken in product form, because their float differences
    lose relative precision near the band top (5e-11 of s2 at N = 1024).
    """
    poles = (2.0 * omega0 * np.sin(np.pi * k / (2 * n))) ** 2
    size = k.size
    half = np.diff(poles) / 2.0
    upper = np.array([(1.0 / (poles[i] + half[i] - poles)) @ pw > 1.0
                      for i in range(size - 1)], dtype=bool)
    gap = np.arange(size - 1)
    o = np.append(np.where(upper, gap + 1, gap), size - 1)
    lo = np.append(np.where(upper, -half, 0.0), 0.0)
    hi = np.append(np.where(upper, 0.0, half), pw.sum())
    pw_o = pw[o]
    # d_o - d_k, with pole o left out of R
    j = np.arange(2 * n + 1)
    sines = np.sin(np.pi * np.minimum(j, 2 * n - j) / (2 * n))  # sin(pi j / 2N)
    shifts = np.empty((size, size))
    for start in range(0, size, 256):
        ko = k[o[start:start + 256], None]
        shifts[start:start + 256] = (4.0 * omega0**2 * sines[ko + k]
                                     * sines[np.abs(ko - k)] * np.sign(ko - k))
    shifts[np.arange(size), o] = np.inf

    def sums(rows, d):
        # sum_k pw_k / (d_o - d_k + delta)^p for p = 1, 2
        r1, r2 = np.empty(rows.size), np.empty(rows.size)
        for start in range(0, rows.size, 256):
            blk = slice(start, start + 256)
            inv = 1.0 / (shifts[rows[blk]] + d[blk, None])
            r1[blk], r2[blk] = inv @ pw, (inv * inv) @ pw
        return r1, r2

    # one-pole start; the top bound is closed (it is the root for size 1)
    with np.errstate(divide="ignore"):
        delta = pw_o / (1.0 - sums(np.arange(size), np.zeros(size))[0])
    delta = np.where((lo < delta) & (delta <= hi), delta, (lo + hi) / 2.0)
    todo = np.arange(size)
    for _ in range(100):
        d = delta[todo]
        r1, r2 = sums(todo, d)
        f = d * (1.0 - r1) - pw_o[todo]
        right = f * d < 0
        a = np.where(right, d, lo[todo])
        b = np.where(right, hi[todo], d)
        lo[todo], hi[todo] = a, b
        step = f / (1.0 - r1 + d * r2)
        new = d - step
        converged = np.abs(step) <= 2.0 * np.spacing(np.abs(d))
        inside = (a < new) & (new < b)
        delta[todo] = np.where(inside | converged, new, (a + b) / 2.0)
        todo = todo[~(converged | (np.nextafter(a, b) >= b))]
        if todo.size == 0:
            break
    else:
        raise RuntimeError("explicit secular roots not converged")
    return poles[o] + delta, pw_o / delta**2 + sums(np.arange(size), delta)[1]


def explicit_mapping(n, alpha, mass, omega0):
    """(bath_freqs, |l|, sector lam, c^2) of a point-coupled chain from
    the explicit-sum oracle."""
    rho = 2.0 * alpha / mass
    k = np.arange(n)
    pw = rho * first_site_weights(n)
    lam, s2 = explicit_secular_roots(k[1:], n, omega0, pw[1:])
    freqs, l_abs = np.sqrt(lam), mass / (2.0 * np.sqrt(n * s2 / rho))
    lam, s2 = explicit_secular_roots(k, n, omega0, pw)
    return freqs, l_abs, lam, pw[0] / (lam**2 * s2)


def assert_matches_explicit(model, alpha):
    """The bounds of test_structured_mapping_matches_dense, against the
    explicit-sum oracle."""
    form, modes = collective_mapping(model)
    freqs, l_abs, lam_ref, c_sq_ref = explicit_mapping(
        model.n_particles, alpha, model.mass, model.omega0)
    assert np.abs(form.bath_freqs - freqs).max() < 1e-12
    assert np.abs(np.abs(form.couplings_l) - l_abs).max() < 1e-12
    lam = modes.frequencies**2
    assert np.abs(lam - lam_ref).max() < 1e-12 * lam_ref[-1]
    c_sq = modes.x_coefficients**2
    assert np.abs(c_sq - c_sq_ref).max() < 1e-9
    assert abs(c_sq.sum() - 1.0) < 1e-14
    return form, modes


def dense_bath(model):
    """Dense form, its bath modes U in the phonon basis and the phonon-basis
    bath block B of the oracle, which U must diagonalize."""
    form, basis = caldeira_leggett_form(model)
    u = phonon_spectrum(model).basis[1:] @ basis[:, 1:]
    return form, u, phonon_basis_blocks(model)[1]


def test_point_coupling_k_tilde_rank_one():
    # K~_nm = alpha a_n a_m with a the site-1 profile of the modes
    model = point_model(4, 1.0)
    ph = phonon_spectrum(model)
    k_tilde = phonon_basis_blocks(model)[0]
    a = ph.basis[:, 0]
    assert np.abs(k_tilde - np.outer(a, a)).max() < 1e-12
    assert k_tilde[0, 0] == pytest.approx(0.25, abs=1e-13)
    # alpha/2 in each of the two congruences makes the symmetric part vanish
    k_bar = ph.basis @ (np.diag(model.row_coupling_sums) - model.k_matrix) @ ph.basis.T
    assert np.abs(k_bar).max() < 1e-12


def test_zero_coupling_transforms_vanish():
    model = point_model(5, 0.0)
    ph = phonon_spectrum(model)
    assert np.abs(phonon_basis_blocks(model)[0]).max() == 0.0
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
    model = point_model(2, 1.0)
    form, _, b = dense_bath(model)
    k_vec = phonon_spectrum(model).basis[1:] @ decoupling_indicator(model)[0]
    assert form.k_tilde_11 == pytest.approx(0.5, abs=1e-13)
    assert b[0, 0] == pytest.approx(1.5, abs=1e-13)
    assert form.bath_freqs[0] == pytest.approx(np.sqrt(3.0), abs=1e-13)
    assert k_vec[0] == pytest.approx(0.5, abs=1e-13)
    assert form.couplings_l[0] == pytest.approx(0.5, abs=1e-13)


def test_bath_invariants():
    for n, alpha in ((4, 0.5), (16, 2.0)):
        model = point_model(n, alpha)
        form, u, b = dense_bath(model)
        k_vec = decoupling_indicator(model)[0]
        m = model.mass
        target = (m / 2.0) * np.diag(form.bath_freqs**2)
        assert np.abs(u.T @ u - np.eye(n - 1)).max() < 1e-12
        assert np.abs(u.T @ b @ u - target).max() < 1e-10
        # the site-space coupling vector, rotated into the bath modes C U
        bath = caldeira_leggett_form(model)[1][:, 1:]
        assert np.abs(bath.T @ k_vec - form.couplings_l).max() < 1e-12
        assert np.linalg.norm(form.couplings_l) == pytest.approx(
            np.linalg.norm(k_vec), rel=1e-12)
        assert (form.bath_freqs > 0).all()
        assert (np.diff(form.bath_freqs) >= 0).all()


def test_zero_alpha_bath_is_free_phonons():
    model = point_model(8, 0.0)
    ph = phonon_spectrum(model)
    form = caldeira_leggett_form(model)[0]
    assert np.abs(decoupling_indicator(model)[0]).max() == 0.0
    assert np.allclose(form.bath_freqs, ph.frequencies[1:], rtol=1e-12)


def test_decoupling_constant_coupling():
    n = 6
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((n, n), 0.4), mass=1.0)
    k, decoupled = decoupling_indicator(model)
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
    k1, _ = decoupling_indicator(base)
    k2, _ = decoupling_indicator(shifted)
    assert np.abs(k1 - k2).max() < 1e-12


def test_point_coupling_not_decoupled():
    model = point_model(4, 1.0)
    k, decoupled = decoupling_indicator(model)
    assert not decoupled
    assert np.linalg.norm(k) > 0.1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_decoupling_indicator_rotates_into_phonon_row(seed):
    # the site-space vector, rotated by the nonuniform phonon modes, is
    # the coupling row the phonon basis gives by two matrix-vector products
    model = disordered_model(64, seed)
    rotated = phonon_spectrum(model).basis[1:] @ decoupling_indicator(model)[0]
    ref = phonon_coupling_row(model)
    assert np.abs(rotated - ref).max() <= 1e-14 * np.abs(ref).max()


def test_secular_n2_hand_value():
    freqs, c = secular_bath(2, 1.0)
    assert freqs[0] ** 2 == pytest.approx(3.0, rel=1e-12)
    assert abs(c[0]) == pytest.approx(0.5, rel=1e-10)


def test_secular_roots_collapse_for_small_alpha():
    n = 8
    freqs, _ = secular_bath(n, 1e-10)
    ph = phonon_spectrum(point_model(n, 0.0))
    assert np.allclose(freqs, ph.frequencies[1:], atol=1e-8)


def test_secular_interlacing():
    n, alpha = 8, 0.5
    freqs, _ = secular_bath(n, alpha)
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
            freqs, c = secular_bath(n, alpha)
            assert np.abs(freqs - form.bath_freqs).max() < 1e-12
            assert np.abs(np.abs(c) - np.abs(form.couplings_l)).max() < 1e-12


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", [2, 8, 32, 64, 128, 512, 1024])
def test_structured_mapping_matches_dense(n, mass, omega0):
    # the O(N) secular route that `run` takes for point-coupled chains,
    # against the dense eigensolves of the bath block and the sector;
    # sector frequencies squared are compared at the scale of the
    # largest one, which is the dense route's accuracy
    for alpha in (0.1, 0.5, 1.0, 10.0):
        model = point_model(n, alpha, mass, omega0)
        assert is_point_coupling(model)
        form, modes = collective_mapping(model)
        dense = caldeira_leggett_form(model)[0]
        dense_freqs, dense_modes = dense_sector_eigensystem(dense)
        assert abs(form.k_tilde_11 - dense.k_tilde_11) < 1e-12
        assert np.abs(form.bath_freqs - dense.bath_freqs).max() < 1e-12
        assert np.abs(np.abs(form.couplings_l)
                      - np.abs(dense.couplings_l)).max() < 1e-12
        lam, lam_dense = modes.frequencies**2, dense_freqs**2
        assert np.abs(lam - lam_dense).max() < 1e-12 * lam_dense[-1]
        c_sq = modes.x_coefficients**2
        assert np.abs(c_sq - dense_modes[0] ** 2).max() < 1e-9
        assert abs(c_sq.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", [2048, 4096])
def test_structured_mapping_matches_explicit_sums(n, mass, omega0):
    # the closed-form route against the explicit pole sums, at N where
    # the dense route is slow
    for alpha in (0.1, 0.5, 1.0, 10.0):
        model = point_model(n, alpha, mass, omega0)
        assert is_point_coupling(model)
        assert_matches_explicit(model, alpha)


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", [2, 8, 257])
@pytest.mark.parametrize("alpha", [3.0, 1000.0])
def test_structured_mapping_above_the_band_matches_explicit_sums(alpha, n, mass, omega0):
    # strong couplings against the explicit pole sums at small N; with
    # rho = 2 alpha / (m omega0^2) > 4 the top roots of the bath and of
    # the sector both lie above the band edge 4 omega0^2
    model = point_model(n, alpha, mass, omega0)
    form, modes = assert_matches_explicit(model, alpha)
    if 2.0 * alpha / (mass * omega0**2) > 4.0:
        assert form.bath_freqs[-1] > 2.0 * omega0
        assert modes.frequencies[-1] > 2.0 * omega0


@pytest.mark.parametrize("n", [1024, 10**5])
def test_secular_top_root_converges_in_few_passes(n, monkeypatch):
    # at the benchmark's coupling the top root's one-pole start is within
    # a Newton pass of the root: each top-root solve, the one bracket a
    # _bracketed_newton call holds alone, evaluates its residual at most
    # three times (measured: twice at N = 1024 and N = 10^5)
    solve = mapping_mod._bracketed_newton
    passes = []

    def counting(residual, e, lo, hi):
        calls = []

        def counted(x, idx):
            calls.append(x.size)
            return residual(x, idx)
        out = solve(counted, e, lo, hi)
        if e.size == 1:
            passes.append(len(calls))
        return out
    monkeypatch.setattr(mapping_mod, "_bracketed_newton", counting)
    collective_mapping(point_model(n, 0.5))
    assert len(passes) == 2 and max(passes) <= 3


@pytest.mark.parametrize("n", [5, 64, 1000])
def test_chain_green_function_closed_form(n):
    # G(lam) = sum_k v_k / (lam - d_k) in units of omega0^2, in the band
    # at lam = 4 sin^2(theta/2) and above it at lam = 4 cosh^2(kappa/2).
    # A few ulps of lam move either side by about eps lam |G'(lam)|, and
    # the sum rounds at eps sum_k |v_k / (lam - d_k)|.
    poles = next_neighbor_frequencies(n, 1.0) ** 2
    v = first_site_weights(n)
    for lam in (0.3, 1.7, 3.9, 5.0):
        terms = v / (lam - poles)
        if lam < 4.0:
            theta = 2.0 * np.arcsin(np.sqrt(lam) / 2.0)
            closed = np.cos((n - 0.5) * theta) / (
                2.0 * np.sin(n * theta) * np.sin(theta / 2.0))
        else:
            kappa = 2.0 * np.arccosh(np.sqrt(lam) / 2.0)
            closed = -np.expm1((1 - 2 * n) * kappa) / (
                -np.expm1(-2 * n * kappa) * (np.exp(kappa) + 1.0))
        scale = np.abs(terms).sum() + lam * (terms**2 / v).sum()
        assert abs(closed - terms.sum()) < 8.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", [2, 8, 1024])
@pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0, 1.0 + 1e-12])
@pytest.mark.parametrize("sector", [True, False])
def test_secular_top_root_at_band_edge(sector, scale, n, mass, omega0):
    # the top root reaches the band edge lam = 4 omega0^2 where
    # rho G(4) = 1: G(4) = (2N-1)/(4N) for the sector and (N-1)/(2N) for
    # the bath, with rho = 2 alpha / (m omega0^2)
    crossing = 4 * n / (2 * n - 1) if sector else 2 * n / (n - 1)
    alpha = scale * crossing * mass * omega0**2 / 2.0
    model = point_model(n, alpha, mass, omega0)
    form, modes = assert_matches_explicit(model, alpha)
    chain_sq = next_neighbor_frequencies(n, omega0) ** 2
    for roots, poles in ((form.bath_freqs**2, chain_sq[1:]),
                         (modes.frequencies**2, chain_sq)):
        assert np.isfinite(roots).all()
        assert (np.diff(roots) > 0).all()
        assert (roots[:-1] > poles[:-1]).all() and (roots[:-1] < poles[1:]).all()
        assert roots[-1] > poles[-1]
    top = (modes.frequencies if sector else form.bath_freqs)[-1] ** 2
    assert abs(top - 4.0 * omega0**2) < 1e-10 * omega0**2


def test_secular_top_root_start_at_a_vanishing_denominator():
    # the top root's one-pole start w_t / (1 - R(0)) divides by an exact 0
    # where R(0), the other poles' sum, rounds to 1: at N = 8 one rho an
    # ulp or so from 1 / (R(0) / rho) does.  The start falls back to the
    # bracket's midpoint with no warning, and the roots match the
    # explicit sums.  The search repeats the solver's own expressions.
    n = 8
    gap = np.pi / n
    k = np.arange(n)
    shape = np.where(k > 0, 2.0 * np.sin(gap * (n - k) / 2.0) ** 2, 1.0)
    sep = 4.0 * np.sin(gap * (n - 1 - k) / 2.0) * np.sin(gap * (n + 1 - k) / 2.0)
    rho0 = 1.0 / ((shape / n)[:-1] @ (1.0 / sep[:-1]))
    rhos = [rho0 + d * np.spacing(rho0) for d in range(-64, 65)]
    hits = [r for r in rhos if 1.0 - (r * shape / n)[:-1] @ (1.0 / sep[:-1]) == 0.0]
    assert hits
    assert_matches_explicit(point_model(n, hits[0] / 2.0), hits[0] / 2.0)


def test_dense_route_for_other_models():
    # a second coupling entry, or no closed-form chain: the mapping falls
    # back to the general route, the bath block's dense eigensolve and
    # the sector's arrowhead solve
    model = point_model(6, 0.5)
    k = model.k_matrix.copy()
    k[1, 1] = 0.1
    others = [dataclasses.replace(model, k_matrix=k),
              build_general_model(model.w_matrix, model.k_matrix, 1.0)]
    for other in others:
        assert not is_point_coupling(other)
        form, modes = collective_mapping(other)
        dense = caldeira_leggett_form(other)[0]
        assert np.array_equal(form.bath_freqs, dense.bath_freqs)
        assert np.array_equal(modes.frequencies,
                              collective_sector_modes(dense).frequencies)


def test_uncoupled_chain_maps_in_closed_form_with_no_array(monkeypatch):
    # alpha = 0 takes the free chain's closed form: at N = 10^5 a dense
    # W or K would take 80 GB, so forming one fails the test at once
    def refuse(model, name):
        raise AssertionError(f"formed {name}")
    monkeypatch.setattr(model_mod, "_chain_matrix", refuse)
    model = point_model(10**5, 0.0)
    form, modes = collective_mapping(model)
    assert "w_matrix" not in model.__dict__ and "k_matrix" not in model.__dict__
    assert form.k_tilde_11 == 0.0 and not form.couplings_l.any()
    assert modes.frequencies[0] == 0.0 and modes.x_coefficients[0] == 1.0


@pytest.mark.parametrize("n", [14, 257])
def test_uncoupled_chain_closed_form_matches_dense_route(n):
    # the standing waves against the bath block's eigensolve, to 1e-13 of
    # the top line 2 omega0 (measured: 1.7e-14 of it at N = 257); X's row
    # is exactly 0 on both routes
    model = point_model(n, 0.0, 1.3, 0.8)
    form, modes = collective_mapping(model)
    dense = caldeira_leggett_form(build_general_model(model.w_matrix, model.k_matrix,
                                                      1.3))[0]
    dense_modes = collective_sector_modes(dense)
    top = 2.0 * 0.8
    assert np.abs(form.bath_freqs - dense.bath_freqs).max() <= 1e-13 * top
    assert np.abs(modes.frequencies - dense_modes.frequencies).max() <= 1e-13 * top
    assert form.k_tilde_11 == dense.k_tilde_11 == 0.0
    assert np.array_equal(form.couplings_l, dense.couplings_l)
    assert np.array_equal(modes.x_coefficients, dense_modes.x_coefficients)


@pytest.mark.parametrize("n", [10, 14])
def test_dense_route_maps_an_uncoupled_chain_to_a_free_coordinate(n):
    # W's row sums are exactly 0, so X's row read off them is exactly 0
    # at every N, not round-off of either sign
    w = point_model(n, 0.0).w_matrix
    form, _ = caldeira_leggett_form(build_general_model(w, np.zeros_like(w), 1.0))
    assert form.k_tilde_11 == 0.0
    assert (form.couplings_l == 0.0).all()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_x_row_matches_the_products_with_u(seed):
    # X's row from the antisymmetric block's row sums against u^T A u and
    # B^T (A u), u the basis' first column and B the rest
    model = disordered_model(512, seed)
    form, basis = caldeira_leggett_form(model)
    force = antisymmetric_block(model) @ basis[:, 0]
    k11, couplings = basis[:, 0] @ force, basis[:, 1:].T @ force
    assert abs(form.k_tilde_11 - k11) <= 1e-12 * abs(k11)
    assert np.abs(form.couplings_l - couplings).max() <= 1e-12 * np.abs(couplings).max()


def test_near_zero_row_sums_pass_every_check():
    # W + 5e-13 max|W| I keeps its row sums inside the 1e-12 validation
    # bound; X's row must still come from the block's own row sums, not
    # from khat alone, or the energy check drifts by about 1e-9
    base = disordered_model(512, 1)
    w = base.w_matrix + 5e-13 * np.abs(base.w_matrix).max() * np.eye(512)
    model = build_general_model(w, base.k_matrix, 1.0)
    checks = run_checks(model, p0=1.0, t_max=32.0, steps=3200)
    assert [c.name for c in checks if not c.passed] == []
    (energy,) = [c for c in checks if c.name == "dynamics.energy_conservation"]
    assert energy.measured <= 1e-12


@pytest.mark.parametrize("change", [
    lambda m: {"w_matrix": 2.0 * m.w_matrix},
    lambda m: {"mass": 2.0},
    lambda m: {},
], ids=["stiffer_w", "heavier", "plain_copy"])
def test_copied_chain_model_is_general(change):
    # a copy can change W, K or m behind the chain recipe's back, so only
    # the factory's own model takes the secular route
    model = point_model(16, 0.5)
    copy = dataclasses.replace(model, **change(model))
    assert copy.omega0 is None and not is_point_coupling(copy)
    form, modes = collective_mapping(copy)
    dense = caldeira_leggett_form(copy)[0]
    assert np.array_equal(form.bath_freqs, dense.bath_freqs)
    assert np.array_equal(modes.frequencies,
                          collective_sector_modes(dense).frequencies)
    # and it maps like the chain it really is
    omega0 = np.sqrt(2.0 * copy.w_matrix[0, 0] / copy.mass)
    chain = collective_mapping(point_model(16, 0.5, copy.mass, omega0))[0]
    assert np.abs(chain.bath_freqs - form.bath_freqs).max() < 1e-12 * omega0
    assert np.abs(np.abs(chain.couplings_l)
                  - np.abs(form.couplings_l)).max() < 1e-12 * omega0**2


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
        sym_sq = 2.0 * sector_eigenvalues(model)[0] / model.mass
        mapped_sq = np.sort(np.concatenate([anti**2, sym_sq]))
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
    form, _ = caldeira_leggett_form(model)
    sector_sq = collective_sector_eigensystem(form)[0] ** 2

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # the dense route deflates u by a reflector, not by the phonons: it
    # must match the mapping in the phonon basis, up to each l's sign
    k_tilde, b = phonon_basis_blocks(model)
    b_evals, b_modes = scipy.linalg.eigh(b)
    assert close(form.k_tilde_11, k_tilde[0, 0])
    assert close(form.bath_freqs, np.sqrt(2.0 * b_evals / mass))
    assert close(np.abs(form.couplings_l), np.abs(b_modes.T @ k_tilde[0, 1:]))

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
    shifted = dataclasses.replace(form, k_tilde_11=form.k_tilde_11 + 0.31)
    assert shifted.k_tilde_11 == pytest.approx(form.k_tilde_11 + 0.31, rel=1e-14)
    for field in dataclasses.fields(form):
        if field.name != "k_tilde_11":
            assert np.array_equal(getattr(shifted, field.name),
                                  getattr(form, field.name)), field.name


def test_stiffness_shift_moves_sector_consistently():
    form = caldeira_leggett_form(point_model(6, 1.0))[0]
    k0 = 0.5
    base = collective_sector_modes(form)
    shifted = collective_sector_modes(
        dataclasses.replace(form, k_tilde_11=form.k_tilde_11 + k0))
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


@pytest.mark.parametrize("a, b", [(4, 4), (3, 5), (7, 9), (50, 14)])
def test_bath_zero_mode_rejected_whatever_its_rounding_sign(a, b):
    # 4+4 rounds the zero mode below 0, which _psd_clip sets to 0.0; the
    # others round it above 0, to a bath line near 3e-8
    with pytest.raises(UnstableModelError, match="bath block has a zero mode"):
        caldeira_leggett_form(split_chain_model(a, b))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disordered_bath_clears_the_zero_mode_bound(seed):
    # disorder-verify's model: its lowest bath line sits some five orders
    # above the relative bound that counts a line as a zero mode
    evals = caldeira_leggett_form(disordered_model(512, seed))[0].bath_freqs ** 2
    assert evals[0] > 1e3 * model_mod._TOL_PSD * evals[-1]


def test_unstable_sector_rejected():
    # pulling the collective stiffness far negative breaks positivity of
    # the (X, bath) sector
    form = caldeira_leggett_form(point_model(4, 1.0))[0]
    with pytest.raises(UnstableModelError, match="collective sector"):
        collective_sector_modes(
            dataclasses.replace(form, k_tilde_11=form.k_tilde_11 - 10.0))


def sector_form(bare_omega_sq, bath_freqs, couplings_l, mass=1.3):
    """A collective form given by its arrowhead: corner, bath lines, couplings."""
    return CollectiveForm(k_tilde_11=mass * bare_omega_sq / 2.0,
                          bath_freqs=bath_freqs, couplings_l=couplings_l,
                          mass=mass, hbar=1.0)


def sector_case(name):
    rng = np.random.default_rng(11)
    if name.startswith("disordered"):
        n = int(name.split("-")[1])
        return caldeira_leggett_form(disordered_model(n, 7))[0]
    if name == "repeated":
        # runs of two and four equal bath lines, one of them uncoupled,
        # and two lines one ulp apart
        freqs = np.sqrt([0.3, 0.7, 0.7, 1.1, 1.6, 1.6, 1.6, 1.6, 2.4, 2.4, 3.0])
        freqs[9] = np.nextafter(freqs[9], 2.0)
        l = rng.uniform(0.05, 0.4, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        l[6] = 0.0
        return sector_form(1.9, freqs, l)
    if name == "tiny":
        freqs = np.sqrt(np.linspace(0.2, 3.8, 40))
        l = rng.uniform(0.02, 0.1, freqs.size)
        l[::3] = 1e-20
        return sector_form(2.1, freqs, l)
    if name == "uncoupled":
        return sector_form(1.7, np.sqrt(np.linspace(0.2, 3.8, 12)), np.zeros(12))
    if name == "n2":
        return sector_form(0.9, np.array([1.2]), np.array([0.31]))
    raise ValueError(name)


@pytest.mark.parametrize("case", ["disordered-16", "disordered-64", "disordered-512",
                                  "repeated", "tiny", "uncoupled", "n2"])
def test_sector_solve_matches_dense_oracle(case):
    # the arrowhead solve against one dense eigh of the same matrix:
    # eigenvalues to 1e-12 of the top one, X weights to 1e-9, and an
    # orthogonal mode matrix that diagonalizes the matrix to round-off
    form = sector_case(case)
    freqs, modes = collective_sector_eigensystem(form)
    ref_freqs, ref_modes = dense_sector_eigensystem(form)
    mat = sector_matrix(form)
    lam, lam_ref = freqs**2, ref_freqs**2
    n = lam.size
    assert np.all(np.diff(freqs) >= 0.0)
    assert np.abs(lam - lam_ref).max() <= 1e-12 * lam_ref[-1]
    assert np.abs(modes[0] ** 2 - ref_modes[0] ** 2).max() <= 1e-9
    assert abs((modes[0] ** 2).sum() - 1.0) <= 1e-14
    assert np.linalg.norm(modes.T @ modes - np.eye(n), 2) <= 1e-13
    residual = np.linalg.norm(mat @ modes - modes * lam, 2)
    assert residual <= 1e-13 * np.linalg.norm(mat, 2)
    # each mode's first nonzero entry is positive, as the dense route's
    first = modes[np.argmax(np.abs(modes) > 1e-12, axis=0), np.arange(n)]
    assert (first > 0.0).all()


def test_uncoupled_sector_is_the_sorted_diagonal():
    # with no coupling every line deflates: the eigenvalues are the
    # sorted corner and bath lines, exactly, and the modes a permutation
    form = sector_case("uncoupled")
    freqs, modes = collective_sector_eigensystem(form)
    diag = np.append(form.bare_omega_sq, form.bath_freqs**2)
    assert np.array_equal(freqs, np.sqrt(np.sort(diag)))
    assert np.array_equal(modes[:, np.argsort(np.argsort(diag))], np.eye(diag.size))


def test_free_coordinate_has_frequency_exactly_zero():
    # no stiffness and no coupling: X is a free mode at frequency 0
    form = sector_form(0.0, np.sqrt(np.linspace(0.2, 3.8, 12)), np.zeros(12))
    freqs, modes = collective_sector_eigensystem(form)
    assert freqs[0] == 0.0 and (freqs[1:] > 0.0).all()
    assert modes[0, 0] == 1.0


@pytest.mark.parametrize("solve", [collective_sector_eigensystem,
                                   dense_sector_eigensystem])
def test_sector_solve_rejects_a_negative_mode(solve):
    form = caldeira_leggett_form(disordered_model(64, 7))[0]
    shifted = dataclasses.replace(form, k_tilde_11=form.k_tilde_11 - 1.0)
    with pytest.raises(UnstableModelError, match="collective sector"):
        solve(shifted)


def test_sector_solve_refuses_unsorted_bath():
    # the secular roots are bracketed between consecutive bath lines,
    # which a CollectiveForm holds ascending
    form = sector_form(1.9, np.sqrt([0.3, 1.1, 0.7]), np.full(3, 0.1))
    with pytest.raises(ValueError, match="ascending"):
        collective_sector_eigensystem(form)


def test_sector_solve_makes_no_linalg_call(monkeypatch):
    form = sector_case("disordered-64")

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")
    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    freqs, _ = collective_sector_eigensystem(form)
    assert freqs.size == 64


def test_sector_solve_memory_within_dense_oracle():
    # the secular sums take 256 rows at a time, so the solve holds no more
    # than the dense eigensolve it replaced (disorder-verify's N = 512)
    form = sector_case("disordered-512")
    peaks = []
    for solve in (collective_sector_eigensystem, dense_sector_eigensystem):
        tracemalloc.start()
        try:
            solve(form)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


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
