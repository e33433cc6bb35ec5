import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from collective_mode import (
    ModelValidationError,
    SystemModel,
    UnstableModelError,
    antisymmetric_block,
    build_general_model,
    build_next_neighbor_model,
    next_neighbor_frequencies,
    sector_eigenvalues,
)
from collective_mode.model import _deflate, _fix_signs, _sector_blocks, _validate
from oracles import (disordered_model, eager_chain_matrices,
                     full_potential_matrix, phonon_spectrum, potential_energy,
                     standing_wave_basis)


def violation_names(w, k, mass=1.0, hbar=1.0):
    """Names of the invariants build_general_model reports violated, in
    its order."""
    with pytest.raises(ModelValidationError) as exc:
        build_general_model(w, k, mass, hbar)
    return [name for name, _ in exc.value.violations]


def test_next_neighbor_n2_matrices():
    model = build_next_neighbor_model(2, 1.0, 1.0, 1.0)
    # single bond between the two sites: (m w0^2/2)(x1 - x2)^2
    assert np.allclose(model.w_matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    assert model.k_matrix[0, 0] == 0.5
    assert np.count_nonzero(model.k_matrix) == 1


def test_next_neighbor_scaling():
    model = build_next_neighbor_model(5, mass=2.0, omega0=3.0, alpha=0.7)
    c = 2.0 * 9.0 / 2.0
    assert model.w_matrix[1, 1] == pytest.approx(2 * c)
    assert model.w_matrix[0, 0] == pytest.approx(c)      # free end
    assert model.w_matrix[0, 1] == pytest.approx(-c)
    assert model.w_matrix[0, 4] == 0.0                   # no corner bond
    assert model.k_matrix[0, 0] == pytest.approx(0.35)


def test_zero_coupling_is_valid():
    # the factory skips validation: its output must pass it untouched
    for n, mass, alpha in [(2, 1.0, 0.0), (4, 1.0, 0.0), (5, 2.0, 0.7),
                           (33, 1.0, 0.5), (64, 0.5, 3.0)]:
        model = build_next_neighbor_model(n, mass, 1.3, alpha)
        build_general_model(model.w_matrix, model.k_matrix, model.mass)


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        build_next_neighbor_model(1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_next_neighbor_model(4, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_next_neighbor_model(4, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_next_neighbor_model(4, 1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        build_next_neighbor_model(4, 1.0, 1.0, float("nan"))
    with pytest.raises(ValueError):
        build_next_neighbor_model(4, 1.0, 1.0, 1.0, hbar=0.0)


def test_general_model_constant_coupling_valid():
    w = build_next_neighbor_model(4, 1.0, 1.0, 0.0).w_matrix
    model = build_general_model(w, np.full((4, 4), 0.3), mass=1.0)
    assert model.n_particles == 4


def test_general_model_row_sum_violation():
    w = np.array([[1.0, -0.5], [-0.5, 1.0]])  # row sums 0.5, not 0
    with pytest.raises(ModelValidationError) as exc:
        build_general_model(w, np.zeros((2, 2)), mass=1.0)
    assert any(name == "row_sum" for name, _ in exc.value.violations)


def test_general_model_negative_coupling_violation():
    w = build_next_neighbor_model(3, 1.0, 1.0, 0.0).w_matrix
    k = np.zeros((3, 3))
    k[0, 1] = k[1, 0] = -0.1
    with pytest.raises(ModelValidationError) as exc:
        build_general_model(w, k, mass=1.0)
    assert any(name == "k_negative" for name, _ in exc.value.violations)


def test_general_model_asymmetry_violations():
    w = build_next_neighbor_model(3, 1.0, 1.0, 0.0).w_matrix.copy()
    w[0, 1] += 1e-9
    assert "w_symmetry" in violation_names(w, np.zeros((3, 3)))
    k = np.zeros((3, 3))
    k[0, 1] = 0.2
    assert "k_symmetry" in violation_names(
        build_next_neighbor_model(3, 1.0, 1.0, 0.0).w_matrix, k)


@pytest.mark.parametrize("k_entries", [
    (0.05, 0.05),  # negative modes in both sectors
    (0.0, 1.0),    # only in the antisymmetric sector, W + diag(khat) + K
    (1.0, 0.0),    # only in the symmetric sector, W + diag(khat) - K
])
def test_general_model_indefinite_potential_violation(k_entries):
    # a negative spring: W is symmetric with zero row sums but indefinite
    w = np.array([[-0.5, 0.5], [0.5, -0.5]])
    diag, off = k_entries
    k = np.array([[diag, off], [off, diag]])
    q = full_potential_matrix(SystemModel(2, 1.0, w, k))
    assert scipy.linalg.eigvalsh(q)[0] < -0.1
    assert violation_names(w, k) == ["full_potential_indefinite"]
    build_general_model(-w, k, mass=1.0)


def _with_entry(matrix, i, j, value):
    out = np.array(matrix, dtype=float)
    out[i, j] = value
    return out


_CHAIN = build_next_neighbor_model(4, 1.0, 1.0, 0.0).w_matrix
_K = np.diag([0.25, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("w, k", [
    (_with_entry(_CHAIN, 1, 2, np.inf), _K),          # inf in W
    (_with_entry(_CHAIN, 1, 1, np.nan), _K),          # NaN on W's diagonal
    (_CHAIN, _with_entry(_K, 0, 0, np.inf)),          # inf in K
    (_CHAIN, _with_entry(_K, 0, 0, 1e308)),           # finite, but W + diag(khat) + K overflows
], ids=["inf_in_w", "nan_in_w", "inf_in_k", "k11_overflows"])
def test_non_finite_model_violation(w, k):
    # LAPACK does not reject non-finite input: it returns NaN or wrong
    # eigenvalues, so the check must come before any eigensolve
    assert violation_names(w, k) == ["non_finite"]


@pytest.mark.parametrize("name", ["mass", "hbar"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_bad_scalar_violation(name, value):
    # an infinite mass would put inf * 0 = NaN into the phonon eigensolve
    scalars = {"mass": 1.0, "hbar": 1.0, name: value}
    assert violation_names(_CHAIN, _K, **scalars) == [name]


@pytest.mark.parametrize("w, k, name", [
    (np.zeros((3, 3)), np.zeros((2, 2)), "shape"),   # K's shape differs from W's
    (np.zeros((1, 1)), np.zeros((1, 1)), "size"),    # one particle per chain
], ids=["k_shape", "one_particle"])
def test_array_shape_violation(w, k, name):
    assert violation_names(w, k) == [name]


def test_phonon_frequencies_match_closed_form():
    # dense eigensolve must reproduce 2 w0 |sin(pi (k-1)/2N)| essentially exactly
    for n in (2, 3, 4, 8, 16, 33, 64):
        model = build_next_neighbor_model(n, 1.0, 1.3, 0.0)
        ph = phonon_spectrum(model)
        ref = next_neighbor_frequencies(n, 1.3)
        assert ph.frequencies[0] == 0.0
        assert np.allclose(ph.frequencies, ref, rtol=1e-12, atol=1e-13)


def test_phonon_n4_reference_values():
    ph = phonon_spectrum(build_next_neighbor_model(4, 1.0, 1.0, 0.0))
    assert np.allclose(
        ph.frequencies, [0.0, 0.76536686, 1.41421356, 1.84775907], atol=1e-8)


def test_phonon_basis_orthogonal_and_diagonalizing():
    for n in (2, 5, 16):
        model = build_next_neighbor_model(n, 1.5, 0.8, 0.0)
        ph = phonon_spectrum(model)
        assert np.abs(ph.basis @ ph.basis.T - np.eye(n)).max() < 1e-12
        target = (model.mass / 2.0) * np.diag(ph.frequencies**2)
        assert np.abs(ph.basis @ model.w_matrix @ ph.basis.T - target).max() < 1e-10


def test_phonon_basis_matches_standing_waves():
    # free chain modes are nondegenerate, so rows agree up to the fixed sign
    for n in (2, 4, 9):
        ph = phonon_spectrum(build_next_neighbor_model(n, 1.0, 1.0, 0.0))
        ref = standing_wave_basis(n)
        assert np.abs(np.abs(ph.basis) - np.abs(ref)).max() < 1e-10


def test_phonon_eigenvector_residuals():
    model = build_next_neighbor_model(12, 1.0, 1.0, 0.0)
    ph = phonon_spectrum(model)
    for k in range(12):
        resid = (2.0 / model.mass) * model.w_matrix @ ph.basis[k] \
            - ph.frequencies[k] ** 2 * ph.basis[k]
        assert np.linalg.norm(resid) < 1e-10 * ph.frequencies[-1] ** 2


def test_phonon_rejects_indefinite_chain():
    w = np.array([[-1.0, 1.0], [1.0, -1.0]])  # negative mode
    model_like = build_next_neighbor_model(2, 1.0, 1.0, 0.0)
    bad = type(model_like)(2, 1.0, w, np.zeros((2, 2)))
    with pytest.raises(UnstableModelError):
        phonon_spectrum(bad)


def test_full_potential_blocks():
    model = build_next_neighbor_model(4, 1.0, 1.0, 0.0)
    q = full_potential_matrix(model)
    assert np.allclose(q[:4, :4], model.w_matrix)
    assert np.allclose(q[4:, 4:], model.w_matrix)
    assert np.abs(q[:4, 4:]).max() == 0.0


def test_full_potential_matches_definition_and_hessian():
    rng = np.random.default_rng(42)
    model = build_next_neighbor_model(3, 1.3, 0.9, 0.8)
    q = full_potential_matrix(model)
    # quadratic form vs direct evaluation of the defining sum
    for _ in range(5):
        x = rng.normal(size=3)
        xbar = rng.normal(size=3)
        z = np.hstack([x, xbar])
        assert z @ q @ z == pytest.approx(potential_energy(model, x, xbar), rel=1e-12)
    # finite-difference Hessian of the scalar potential equals 2 Q
    # (the potential is exactly quadratic, so only round-off limits h)
    h = 1e-3
    hess = np.zeros((6, 6))
    z0 = rng.normal(size=6)
    def v(z):
        return potential_energy(model, z[:3], z[3:])
    for i in range(6):
        for j in range(6):
            zpp = z0.copy(); zpp[i] += h; zpp[j] += h
            zpm = z0.copy(); zpm[i] += h; zpm[j] -= h
            zmp = z0.copy(); zmp[i] -= h; zmp[j] += h
            zmm = z0.copy(); zmm[i] -= h; zmm[j] -= h
            hess[i, j] = (v(zpp) - v(zpm) - v(zmp) + v(zmm)) / (4 * h * h)
    assert np.abs(hess - 2 * q).max() < 1e-8


def test_antisymmetric_block_is_the_split_block():
    # bit for bit the split's block 1, and the full form restricted to
    # a = (x - xbar)/sqrt(2)
    model = disordered_model(12, seed=5, mass=1.3)
    anti = antisymmetric_block(model)
    assert np.array_equal(anti, _sector_blocks(model.w_matrix, model.k_matrix)[1])
    n = model.n_particles
    v = np.vstack([np.eye(n), -np.eye(n)]) / np.sqrt(2.0)
    assert np.abs(v.T @ full_potential_matrix(model) @ v - anti).max() < 1e-14


def count_eigvalsh(monkeypatch):
    """Record the input shape of every np.linalg.eigvalsh call."""
    shapes = []

    def recorded(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


def test_build_holds_three_sector_sized_arrays():
    # validation writes both sector blocks into one (2, N, N) array and
    # solves them one at a time; the model's own copies of W and K come
    # after it lets them go (one N x N float64 array is 8 MB here)
    src = disordered_model(1024, 3, 1.3)
    tracemalloc.start()
    try:
        build_general_model(src.w_matrix, src.k_matrix, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * src.w_matrix.nbytes


def test_deflate_overwrites_its_block():
    # the block's buffer becomes the basis, so a frozen model array is
    # refused before anything is written to it
    model = disordered_model(8, 1)
    with pytest.raises(ValueError):
        _deflate(model.w_matrix, "chain potential W")
    w = model.w_matrix.copy()
    evals, basis = _deflate(w, "chain potential W")
    assert basis is w
    assert np.abs(basis.T @ model.w_matrix @ basis
                  - np.diag(np.append(0.0, evals))).max() < 1e-12


def test_build_path_hands_over_validation_eigenvalues(monkeypatch):
    # build_general_model keeps validation's eigensolve, the only one,
    # which must be the sector blocks' eigenvalues bit for bit; checks
    # that stop before the eigensolve hand over none
    model = disordered_model(12, seed=5, mass=1.3)
    expected = np.linalg.eigvalsh(_sector_blocks(model.w_matrix, model.k_matrix))
    shapes = count_eigvalsh(monkeypatch)
    built = build_general_model(model.w_matrix, model.k_matrix, 1.3, 1.0)
    assert np.array_equal(built.w_matrix, model.w_matrix)
    assert np.array_equal(sector_eigenvalues(built), expected)
    assert shapes == [(2, 12, 12)]
    violations, eigs = _validate(np.ones((2, 3)), np.ones((2, 3)), 1.0, 1.0)
    assert [name for name, _ in violations] == ["shape"] and eigs is None
    violations, eigs = _validate(model.w_matrix, -model.k_matrix, 1.0, 1.0)
    assert "k_negative" in [name for name, _ in violations] and eigs is None


@pytest.mark.parametrize("build, solves", [
    (lambda: build_next_neighbor_model(12, 1.3, 0.8, 0.5), 1),
    (lambda: SystemModel(12, 1.3, *eager_chain_matrices(12, 1.3, 0.8, 0.5)), 1),
    (lambda: disordered_model(12, seed=5, mass=1.3), 0),
], ids=["chain", "from-arrays", "general"])
def test_sector_eigenvalues_are_solved_once_per_model(monkeypatch, build, solves):
    # the model keeps its sector eigenvalues read-only; one built by
    # build_general_model keeps validation's and solves none itself
    model = build()
    shapes = count_eigvalsh(monkeypatch)
    eigs = sector_eigenvalues(model)
    assert sector_eigenvalues(model) is eigs
    assert shapes == [(2, 12, 12)] * solves
    assert not eigs.flags.writeable
    with pytest.raises(ValueError):
        eigs[0, 0] = 1.0
    assert np.array_equal(
        eigs, np.linalg.eigvalsh(_sector_blocks(model.w_matrix, model.k_matrix)))


def test_replaced_model_solves_its_own_sector_eigenvalues():
    # dataclasses.replace builds a new model, which must not inherit the
    # eigenvalues of the one it came from
    model = disordered_model(12, seed=5, mass=1.3)
    old = sector_eigenvalues(model)
    k2 = 2.0 * model.k_matrix
    changed = dataclasses.replace(model, k_matrix=k2)
    eigs = sector_eigenvalues(changed)
    assert not np.array_equal(eigs, old)
    assert np.array_equal(eigs, np.linalg.eigvalsh(_sector_blocks(model.w_matrix, k2)))
    assert np.array_equal(sector_eigenvalues(model), old)


def test_full_potential_point_coupling_cross_entry():
    model = build_next_neighbor_model(2, 1.0, 1.0, 1.0)
    q = full_potential_matrix(model)
    # d^2 V / dx1 dxbar1 = -2 K_11 = -alpha; stored as Q entry -K_11
    assert q[0, 2] == pytest.approx(-0.5)


def test_full_potential_translation_invariance():
    model = build_next_neighbor_model(6, 1.0, 1.0, 2.0)
    q = full_potential_matrix(model)
    uniform = np.ones(12)
    assert np.abs(q @ uniform).max() < 1e-12


def test_full_potential_positive_semidefinite():
    for n, alpha in ((4, 0.0), (8, 1.0), (16, 10.0)):
        model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
        eigs = scipy.linalg.eigvalsh(full_potential_matrix(model))
        assert eigs[0] >= -1e-10 * eigs[-1]


@pytest.mark.parametrize("n, mass, omega0, alpha", [
    (2, 1.0, 1.0, 1.0), (5, 2.0, 3.0, 0.7), (33, 0.5, 1.3, 0.0),
    (64, 1.0, 1.0, 0.5), (7, 3, 2, 1),
])
def test_chain_arrays_match_eager_construction(n, mass, omega0, alpha):
    # the factory keeps the recipe; W and K appear on first read, bit for
    # bit the arrays it used to build, read-only and formed once
    model = build_next_neighbor_model(n, mass, omega0, alpha)
    for name, ref in zip(("w_matrix", "k_matrix"),
                         eager_chain_matrices(n, mass, omega0, alpha)):
        assert name not in vars(model)
        arr = getattr(model, name)
        assert arr.dtype == ref.dtype and arr.shape == ref.shape
        assert arr.tobytes() == ref.tobytes()
        assert not arr.flags.writeable
        assert getattr(model, name) is arr


def test_chain_model_holds_only_its_recipe():
    # at N = 10^5 each dense array would take 80 GB
    model = build_next_neighbor_model(10**5, 2.0, 1.5, 0.5)
    assert (model.n_particles, model.mass, model.omega0) == (10**5, 2.0, 1.5)
    assert "n_particles=100000" in repr(model)
    assert {"w_matrix", "k_matrix"}.isdisjoint(vars(model))
    with pytest.raises(AttributeError):
        model.no_such_field


def test_model_arrays_read_only():
    model = build_next_neighbor_model(4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        model.w_matrix[0, 0] = 99.0


def test_fix_signs_matches_loop_reference():
    # reference: one column at a time, flip when the first component
    # above 1e-12 of the column's max is negative
    rng = np.random.default_rng(0)
    modes = rng.standard_normal((7, 6))
    modes[:2, 1] = 0.0          # leading zeros
    modes[0, 2] = -1e-14        # below the relative cutoff
    modes[:, 3] = 0.0           # an all-zero column stays as it is
    expected = modes.copy()
    for j in range(expected.shape[1]):
        col = expected[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            expected[:, j] = -col
    assert _fix_signs(modes) is modes   # flips in place
    assert np.array_equal(modes, expected)
