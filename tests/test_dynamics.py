import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from collective_mode import (
    CollectiveForm,
    OscillatorParams,
    TrajectoryTable,
    build_general_model,
    build_next_neighbor_model,
    caldeira_leggett_form,
    collective_frequency,
    collective_mapping,
    collective_sector_eigensystem,
    collective_sector_modes,
    damping_kernel,
    evolve_exact,
    fourier_solution,
    gamma_transform,
    solve_volterra,
    total_energy,
    underdamped_closed_form,
)
from collective_mode._kernels import BLOCK, volterra_path
from collective_mode.dynamics import _check_uniform_grid, _line_weights, omega0_squared
from oracles import disordered_model, one_shot_total_energy, potential_energy


def point_form(n, alpha):
    return caldeira_leggett_form(build_next_neighbor_model(n, 1.0, 1.0, alpha))[0]


def constant_k_model(n=6, c=0.4):
    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    return build_general_model(w, np.full((n, n), c), mass=1.0)


def test_kernel_vanishes_when_decoupled():
    form = caldeira_leggett_form(constant_k_model())[0]
    t = np.linspace(0.0, 50.0, 200)
    # coupling vector is zero up to eigensolver round-off
    assert np.abs(damping_kernel(form, t)).max() < 1e-25


def test_kernel_at_zero_n2_hand_value():
    # single bath line: gamma(0) = (2 l)^2 / (m^2 w^2) = 1/3
    form = point_form(2, 1.0)
    assert damping_kernel(form, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_kernel_even_and_bounded():
    form = point_form(8, 1.0)
    t = np.linspace(-30.0, 30.0, 501)
    g = damping_kernel(form, t)
    assert np.allclose(g, g[::-1], atol=1e-14)
    assert np.abs(g).max() <= damping_kernel(form, 0.0) + 1e-12


def test_gamma_transform_against_quadrature():
    # oracle: direct trapezoidal integral of e^((i w - eps) t) gamma(t)
    form = point_form(6, 0.8)
    eps = 0.5
    t_max = 40.0 / eps
    t = np.arange(0.0, t_max, 2e-4)
    g = damping_kernel(form, t)
    for omega in np.linspace(0.0, 3.0, 10):
        integrand = g * np.exp((1j * omega - eps) * t)
        ref = np.trapezoid(integrand, dx=2e-4)
        val = gamma_transform(form, omega, eps)
        assert abs(val - ref) < 1e-6 * max(abs(ref), 1.0)


def test_gamma_transform_zero_coupling():
    form = caldeira_leggett_form(constant_k_model())[0]
    assert abs(gamma_transform(form, 1.0, 0.1)) < 1e-25


def test_gamma_transform_large_epsilon_asymptote():
    form = point_form(8, 1.0)
    eps = 1e3 * form.bath_freqs.max()
    val = gamma_transform(form, 0.0, eps)
    assert val.real * eps == pytest.approx(damping_kernel(form, 0.0), rel=0.01)


def test_gamma_transform_positive_dissipation():
    form = point_form(16, 1.0)
    w = np.linspace(-4.0, 4.0, 201)
    assert (gamma_transform(form, w, 0.05).real >= 0.0).all()


def test_gamma_transform_rejects_bad_epsilon():
    form = point_form(4, 1.0)
    with pytest.raises(ValueError):
        gamma_transform(form, 1.0, 0.0)


def test_collective_frequency_n2_hand_value():
    # Omega0^2 = 2*0.5 - 1/3 = 2/3
    params = collective_frequency(point_form(2, 1.0))
    assert params.omega0_sq == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert params.gamma_bar == params.gamma0 / 2.0


def test_collective_frequency_decoupled():
    form = caldeira_leggett_form(constant_k_model(6, 0.4))[0]
    params = collective_frequency(form)
    assert params.omega0_sq == pytest.approx(2.0 * form.k_tilde_11, rel=1e-13)
    assert params.gamma0 < 1e-25
    assert params.regime == "underdamped"


def test_collective_frequency_equal_bath_lines():
    # lines at one frequency have no mean spacing, so there is no
    # smoothing width to read the friction at: gamma0 is 0
    couplings = np.array([0.1, 0.2, 0.3])
    form = CollectiveForm(k_tilde_11=2.0, bath_freqs=np.full(3, 1.5),
                          couplings_l=couplings, mass=1.0, hbar=1.0)
    params = collective_frequency(form)
    assert params.gamma0 == 0.0
    assert params.omega0_sq == pytest.approx(4.0 - 0.56 / 2.25, rel=1e-13)
    assert params.regime == "underdamped"


def test_collective_frequency_underdamped_at_large_n():
    params = collective_frequency(point_form(64, 0.2))
    assert params.regime == "underdamped"
    assert np.sqrt(params.omega0_sq) > params.gamma0 / 2.0


NAN = float("nan")


@pytest.mark.parametrize(
    "omega0_sq, gamma0, regime, omega0, gamma_bar, omega_bar", [
        (-1.0, 0.5, "overdamped", 0.0, 0.25, NAN),
        (0.0, 0.0, "critical", 0.0, 0.0, 0.0),
        # |W0 - gamma0/2| against 1e-12 max(W0, gamma0/2)
        (1.0, 2.0 + 1e-12, "critical", 1.0, 1.0 + 0.5e-12, 0.0),
        (1.0, 2.0 - 4e-12, "underdamped", 1.0, 1.0 - 2e-12, 2e-6),
        (1.0, 2.0 + 4e-12, "overdamped", 1.0, 1.0 + 2e-12, NAN),
        (4.0, 1.0, "underdamped", 2.0, 0.5, np.sqrt(3.75)),
        (1.0, 4.0, "overdamped", 1.0, 2.0, NAN),
    ])
def test_oscillator_params_derived_quantities(omega0_sq, gamma0, regime,
                                              omega0, gamma_bar, omega_bar):
    params = OscillatorParams(omega0_sq, gamma0)
    assert params.regime == regime
    assert params.omega0 == omega0
    assert params.gamma_bar == gamma_bar
    # the near-critical omega_bar cancels 1 - gamma_bar^2 to 4e-12
    assert params.omega_bar == pytest.approx(omega_bar, rel=1e-4, nan_ok=True)


def test_collective_frequency_free_coordinate_is_critical():
    # no coupling: no stiffness and no friction, so X moves ballistically
    params = collective_frequency(point_form(8, 0.0))
    assert (params.omega0_sq, params.gamma0) == (0.0, 0.0)
    assert params.regime == "critical"
    assert params.omega_bar == 0.0


@pytest.mark.parametrize("alpha", [3.0, 1000.0])
def test_chain_omega0_sq_has_no_cancellation(alpha):
    # at N = 1e5 the difference 2 Ktilde_11 / m - gamma(0) cancels terms
    # near 5e-5 down to about 2e-10; a chain's form takes the closed form,
    # which has no difference.  The reference is that closed form in long
    # double (80-bit on x86-64 Linux).  Two O(N) mappings, no N x N array
    n, mass, omega0 = 10**5, 1.3, 0.8
    form, _ = collective_mapping(build_next_neighbor_model(n, mass, omega0, alpha))
    ld = np.longdouble
    rho = 2 * ld(alpha) / (ld(mass) * ld(omega0) ** 2)
    ref = ld(omega0) ** 2 * (rho / n) / (1 + rho * (n - 1) * (2 * n - 1) / (6 * n))
    for value in (omega0_squared(form), collective_frequency(form).omega0_sq):
        assert abs(ld(value) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("times, positions, match", [
    (np.zeros((2, 2)), np.zeros((2, 2)), "matching 1-d arrays"),
    (np.arange(3.0), np.zeros(2), "matching 1-d arrays"),
    (np.array([0.0, 1.0, 1.0]), np.zeros(3), "strictly increasing"),
    (np.arange(3.0), np.array([0.0, np.nan, 0.0]), "non-finite"),
], ids=["two_d", "unequal", "repeated_time", "nan"])
def test_trajectory_table_refuses_bad_records(times, positions, match):
    with pytest.raises(ValueError, match=match):
        TrajectoryTable(times, positions)


def test_trajectory_table_keeps_float_arrays_without_a_copy():
    # a memory-long run's 50001-point columns are stored, not copied
    t = np.linspace(0.0, 1.0, 5)
    x = np.sin(t)
    table = TrajectoryTable(t, x)
    assert table.times is t and table.positions is x
    converted = TrajectoryTable([0, 1, 2], [0, 1, 0])
    assert converted.times.dtype == float and converted.positions.dtype == float


def test_evolve_exact_initial_conditions():
    model = build_next_neighbor_model(8, 1.3, 1.0, 0.7)
    t = np.linspace(0.0, 10.0, 1001)
    modes = collective_sector_modes(caldeira_leggett_form(model)[0])
    traj = evolve_exact(modes, 2.0, t)
    assert traj.positions[0] == 0.0
    # X(h) / h = (P0/m) sum_n c_n^2 sinc(w_n h) with sum_n c_n^2 = 1: the
    # kick's velocity P0/m, less at most (w_max h)^2 / 6
    h = t[1]
    slope = traj.positions[1] / h
    v0 = 2.0 / modes.mass
    assert v0 * (1.0 - (modes.frequencies.max() * h) ** 2 / 6.0) <= slope <= v0 * (1 + 1e-12)


def test_evolve_exact_decoupled_is_harmonic():
    model = constant_k_model(6, 0.4)
    form = caldeira_leggett_form(model)[0]
    omega = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    t = np.linspace(0.0, 40.0, 2001)
    traj = evolve_exact(collective_sector_modes(form), 1.0, t)
    ref = np.sin(omega * t) / omega
    assert np.abs(traj.positions - ref).max() < 1e-8 * np.abs(ref).max()


def test_evolve_exact_energy_conserved():
    model = build_next_neighbor_model(8, 1.0, 1.0, 1.0)
    t = np.linspace(0.0, 60.0, 601)
    form, basis = caldeira_leggett_form(model)
    e = total_energy(model, collective_sector_eigensystem(form), basis, 1.0, t)
    # kick energy P0^2/2m
    assert e[0] == pytest.approx(0.5, rel=1e-12)
    assert np.abs(e - e[0]).max() < 1e-10 * e[0]


def disordered_energy_inputs():
    rng = np.random.default_rng(5)
    n = 5
    w = build_next_neighbor_model(n, 1.3, 1.0, 0.0).w_matrix
    k = rng.uniform(0.0, 0.5, size=(n, n))
    model = build_general_model(w, (k + k.T) / 2.0, mass=1.3)
    form, basis = caldeira_leggett_form(model)
    return model, collective_sector_eigensystem(form), basis


def test_total_energy_matches_definition():
    # the sector quadratic forms against the two-chain energy summed
    # from its definition, row by row, on the chain trajectory rebuilt
    # from the same maps: xbar = -x and kinetic energy m |xdot|^2
    model, sector, basis = disordered_energy_inputs()
    t = np.linspace(0.0, 12.0, 7)
    p0, m = 0.8, model.mass
    w, v = sector
    amp = p0 / m * v[0]
    q = np.sin(np.outer(t, w)) * (amp / w)
    qdot = np.cos(np.outer(t, w)) * amp
    to_chain = v.T @ basis.T / np.sqrt(2.0)
    ref = [m * (xd @ xd) + potential_energy(model, x, -x)
           for x, xd in zip(q @ to_chain, qdot @ to_chain)]
    energy = total_energy(model, sector, basis, p0, t)
    assert np.allclose(energy, ref, rtol=1e-12, atol=0.0)


def test_total_energy_detects_a_wrong_bath_map():
    # one bath mode mapped back with the wrong sign puts the trajectory
    # off the true normal modes, and its energy drifts
    model, sector, basis = disordered_energy_inputs()
    t = np.linspace(0.0, 30.0, 301)
    e = total_energy(model, sector, basis, 1.0, t)
    assert np.abs(e - e[0]).max() < 1e-10 * e[0]
    flipped = basis.copy()
    flipped[:, 2] *= -1.0   # column 0 is X's uniform mode
    e = total_energy(model, sector, flipped, 1.0, t)
    assert np.abs(e - e[0]).max() > 1e-6 * e[0]


def test_total_energy_refuses_grids_it_cannot_split():
    model, sector, basis = disordered_energy_inputs()
    t = np.linspace(0.0, 12.0, 101)
    with pytest.raises(ValueError, match="uniform"):
        total_energy(model, sector, basis, 1.0, t**2 / 12.0)
    with pytest.raises(ValueError, match="start at 0"):
        total_energy(model, sector, basis, 1.0, t + 0.5)
    with pytest.raises(ValueError, match="two points"):
        total_energy(model, sector, basis, 1.0, t[:1])


@pytest.mark.parametrize("n_points", [2, 63, 64, 65, 2001])
@pytest.mark.parametrize("inputs", ["disordered", "free"])
def test_total_energy_matches_direct_phases(inputs, n_points):
    # the blocked split against the energy summed from direct phases, on
    # grids ending inside, at and just past a block, and on the alpha = 0
    # chain, whose X is a free mode (frequency 0, q = amp t)
    if inputs == "disordered":
        model, sector, basis = disordered_energy_inputs()
    else:
        model = build_next_neighbor_model(16, 1.3, 1.0, 0.0)
        form, basis = caldeira_leggett_form(model)
        sector = collective_sector_eigensystem(form)
        assert (sector[0] == 0.0).sum() == 1
    t = np.linspace(0.0, 30.0, n_points)
    got = total_energy(model, sector, basis, 0.8, t)
    ref = one_shot_total_energy(model, sector, basis, 0.8, t)
    assert got.shape == (n_points,)
    assert np.abs(got - ref).max() <= 1e-13 * ref[0]


def test_total_energy_holds_no_grid_by_modes_array():
    # one 20001 x 256 float64 array is 41 MB; the split keeps the coarse
    # factor and a few passes of rows
    model = build_next_neighbor_model(256, 1.0, 1.0, 0.5)
    form, basis = caldeira_leggett_form(model)
    sector = collective_sector_eigensystem(form)
    t = np.linspace(0.0, 200.0, 20001)
    tracemalloc.start()
    try:
        energy = total_energy(model, sector, basis, 1.0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.size * 256 * 8 / 4
    assert np.abs(energy - energy[0]).max() < 1e-10 * energy[0]


def test_total_energy_holds_three_sector_sized_arrays():
    # the quadratic forms are built one product at a time, before the
    # trig tables, and the grid passes take two row buffers (one N x N
    # float64 array is 8 MB here)
    model = disordered_model(1024, 3, 1.3)
    form, basis = caldeira_leggett_form(model)
    sector = collective_sector_eigensystem(form)
    t = np.linspace(0.0, 100.0, 2001)
    tracemalloc.start()
    try:
        total_energy(model, sector, basis, 1.0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * model.w_matrix.nbytes


def test_mode_sum_and_energy_match_one_shot_bitwise():
    # with one BLAS thread, as the benchmark runs, the mode sum and the
    # correlator's uniform-grid route, written into reused buffers, are
    # bit for bit the bodies that took a fresh array for every factor and
    # product; the energy check sums from the same split instead of
    # direct phases, so it matches its direct-phase reference to round-off
    code = """
import numpy as np
from collective_mode import (build_next_neighbor_model, caldeira_leggett_form,
                             collective_sector_eigensystem, collective_sector_modes,
                             correlator_S, evolve_exact, total_energy)
from oracles import (disordered_model, one_shot_mode_trajectory,
                     one_shot_split_correlator_S, one_shot_total_energy)
t = np.linspace(0.0, 32.0, 3201)
h = t[1] - t[0]
for model in (build_next_neighbor_model(256, 1.3, 1.0, 0.5), disordered_model(200, 3, 1.3)):
    form, basis = caldeira_leggett_form(model)
    modes = collective_sector_modes(form)
    for n_points in (3201, 64, 2):
        got = evolve_exact(modes, 0.7, t[:n_points]).positions
        ref = one_shot_mode_trajectory(modes, 0.7, h, n_points)
        assert got.tobytes() == ref.tobytes()
    for n_points in (3201, 64, 2):
        got = correlator_S(modes, t[:n_points])
        ref = one_shot_split_correlator_S(modes, h, n_points)
        assert got.tobytes() == ref.tobytes()
    sector = collective_sector_eigensystem(form)
    got = total_energy(model, sector, basis, 0.7, t[:2001])
    ref = one_shot_total_energy(model, sector, basis, 0.7, t[:2001])
    assert np.abs(got - ref).max() <= 1e-13 * ref[0]
"""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_volterra_matches_exact():
    model = build_next_neighbor_model(32, 1.0, 1.0, 0.5)
    form = caldeira_leggett_form(model)[0]
    params = collective_frequency(form)
    h = 0.02 / form.bath_freqs.max()
    t = np.arange(int(round(32.0 / h)) + 1) * h
    volt = solve_volterra(form, 1.0, t)
    exact = evolve_exact(collective_sector_modes(form), 1.0, t)
    scale = 1.0 / np.sqrt(params.omega0_sq)
    assert np.abs(volt.positions - exact.positions).max() < 1e-4 * scale


def test_volterra_memoryless_limit():
    # decoupled bath: the stepper reduces to plain velocity Verlet and
    # its phase drift over 50 periods stays below 1e-6 at this step
    form = caldeira_leggett_form(constant_k_model(6, 0.4))[0]
    omega = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    h = 2.5e-4 / omega
    periods = 50
    t = np.arange(int(round(periods * 2 * np.pi / omega / h)) + 1) * h
    volt = solve_volterra(form, 1.0, t)
    ref = np.sin(omega * t) / omega
    assert np.abs(volt.positions - ref).max() < 1e-6 / omega


def test_volterra_second_order_convergence():
    model = build_next_neighbor_model(32, 1.0, 1.0, 1.0)
    form = caldeira_leggett_form(model)[0]
    errs = []
    for h_frac in (0.02, 0.01):
        h = h_frac / form.bath_freqs.max()
        t = np.arange(int(round(32.0 / h)) + 1) * h
        volt = solve_volterra(form, 1.0, t)
        exact = evolve_exact(collective_sector_modes(form), 1.0, t)
        errs.append(np.abs(volt.positions - exact.positions).max())
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_volterra_refuses_large_step():
    form = point_form(8, 1.0)
    h = 0.3 / form.bath_freqs.max()
    t = np.arange(0.0, 10.0, h)
    with pytest.raises(ValueError, match="too large"):
        solve_volterra(form, 1.0, t)


def test_volterra_grid_validation():
    form = point_form(4, 1.0)
    with pytest.raises(ValueError):
        solve_volterra(form, 1.0, np.array([1.0, 1.1, 1.2]))  # not from 0
    with pytest.raises(ValueError):
        solve_volterra(form, 1.0, np.array([0.0, 0.01, 0.03]))  # nonuniform


def test_fourier_solution_free_oscillator_resonance():
    form = caldeira_leggett_form(constant_k_model(6, 0.4))[0]
    omega0 = np.sqrt(2.0 * form.k_tilde_11 / form.mass)
    eps = 1e-3 * omega0
    near = abs(fourier_solution(form, 1.0, np.array([omega0 + 10 * eps]), eps))[0]
    far = abs(fourier_solution(form, 1.0, np.array([2 * omega0]), eps))[0]
    assert near > 100 * far


def test_fourier_solution_imaginary_part_odd():
    form = point_form(8, 1.0)
    w = np.linspace(0.1, 3.0, 50)
    eps = 1e-6
    plus = fourier_solution(form, 1.0, w, eps)
    minus = fourier_solution(form, 1.0, -w, eps)
    scale = np.abs(plus).max()
    assert np.abs(plus.imag + minus.imag).max() < 1e-8 * scale
    assert np.abs(plus.real - minus.real).max() < 1e-8 * scale


def test_fourier_solution_inverse_transform_matches_volterra():
    model = build_next_neighbor_model(32, 1.0, 1.0, 1.0)
    form = caldeira_leggett_form(model)[0]
    h = 0.02 / form.bath_freqs.max()
    t = np.arange(int(round(32.0 / h)) + 1) * h
    volt = solve_volterra(form, 1.0, t)
    eps = 6e-4
    span = 8.0 * form.bath_freqs.max()
    dw = eps / 10.0
    w = np.arange(-span, span, dw)
    xw = fourier_solution(form, 1.0, w, eps)
    ts = t[::80]
    xt = np.array([(xw * np.exp(-1j * w * tv)).sum().real * dw for tv in ts])
    ref = np.interp(ts, volt.times, volt.positions)
    scale = np.abs(volt.positions).max()
    assert np.abs(xt - ref).max() < 0.02 * scale


def test_closed_form_basics():
    params = collective_frequency(point_form(8, 1.0))
    t = np.linspace(0.0, 30.0, 3001)
    traj = underdamped_closed_form(params, 1.5, t, 1.0)
    assert traj.positions[0] == 0.0
    # X(h) / h = (P0/m) e^(-gbar h) sinc(Wbar h): the kick's velocity P0/m,
    # less at most gbar h + (Wbar h)^2 / 6
    h = t[1]
    slope = traj.positions[1] / h
    lag = params.gamma_bar * h + (params.omega_bar * h) ** 2 / 6.0
    assert 1.5 * (1.0 - lag) <= slope <= 1.5
    envelope = 1.5 / params.omega_bar * np.exp(-params.gamma_bar * t)
    assert (np.abs(traj.positions) <= envelope * (1 + 1e-12)).all()


def test_closed_form_rejects_overdamped():
    bad = OscillatorParams(0.01, 1.0)
    assert bad.regime == "overdamped"
    with pytest.raises(ValueError):
        underdamped_closed_form(bad, 1.0, np.linspace(0, 1, 10), 1.0)


def test_closed_form_matches_exact_before_recurrence():
    # constant-friction approximation of the soft collective mode; the
    # window stays at half the energy round-trip time
    model = build_next_neighbor_model(64, 1.0, 1.0, 0.2)
    form = caldeira_leggett_form(model)[0]
    params = collective_frequency(form)
    t_max = min(3.0 / params.gamma_bar, 32.0)
    t = np.linspace(0.0, t_max, 4001)
    exact = evolve_exact(collective_sector_modes(form), 1.0, t)
    closed = underdamped_closed_form(params, 1.0, t, form.mass)
    scale = np.abs(exact.positions).max()
    assert np.abs(closed.positions - exact.positions).max() < 0.05 * scale


def test_finite_size_recurrence():
    # energy returns to the collective mode: with the resonance placed
    # inside the band (direct stiffness shift, bath untouched) the
    # envelope decays and then regrows by more than a factor two
    model = build_next_neighbor_model(16, 1.0, 1.0, 1.0)
    form0 = caldeira_leggett_form(model)[0]
    gz = damping_kernel(form0, 0.0)
    form = replace(form0, k_tilde_11=(1.0 + gz) / 2.0)
    params = collective_frequency(form)
    h = 0.05 / form.bath_freqs.max()
    t = np.arange(int(round(120.0 / h)) + 1) * h
    x = solve_volterra(form, 1.0, t).positions
    block = int(round(np.pi / params.omega_bar / h))  # half a period
    env = np.abs(x[: x.size // block * block]).reshape(-1, block).max(axis=1)
    imin = np.argmin(env[: env.size // 2])
    assert env[0] > 2.0 * env[imin]            # clear initial decay
    assert env[imin:].max() > 2.0 * env[imin]  # clear regrowth


def trapezoid_oracle(omega0_sq, gamma, h, v0):
    """The stepper's scheme with the history sum taken directly, O(T^2).

    gamma holds the kernel sampled on the grid, gamma[j] = gamma(j h).
    """
    n = gamma.size
    x = np.zeros(n)
    v = np.zeros(n)
    v[0] = v0
    g0 = gamma[0]
    anf = 0.0
    for i in range(n - 1):
        x[i + 1] = x[i] + h * v[i] + 0.5 * h * h * anf
        mem = h * (0.5 * gamma[i + 1] * v[0] + gamma[i:0:-1] @ v[1:i + 1])
        atil = -omega0_sq * x[i + 1] - mem
        v[i + 1] = (v[i] + 0.5 * h * (anf + atil)) / (1.0 + 0.25 * h * h * g0)
        anf = atil - 0.5 * h * g0 * v[i + 1]
    return x, v


def accumulator_loop(omega0_sq, freqs, weights, h, n_points, v0):
    """The stepper's scheme advanced one step per Python iteration, with
    the history sum carried in one complex accumulator per line: O(T N)."""
    n = int(n_points)
    x = np.zeros(n)
    v = np.zeros(n)
    v[0] = v0
    g0 = float(np.sum(weights))
    denom = 1.0 + 0.25 * h * h * g0
    rot = np.exp(1j * h * np.asarray(freqs, dtype=float))
    acc = 0.5 * v0 * rot  # trapezoid half-weight of the v_0 node
    anf = 0.0
    for i in range(n - 1):
        x[i + 1] = x[i] + h * v[i] + 0.5 * h * h * anf
        mem = h * float(np.dot(weights, acc.real))
        atil = -omega0_sq * x[i + 1] - mem
        v[i + 1] = (v[i] + 0.5 * h * (anf + atil)) / denom
        anf = atil - 0.5 * h * g0 * v[i + 1]
        acc = (acc + v[i + 1]) * rot
    return x, v


def assert_matches_trapezoid(path, n_points):
    form = point_form(8, 0.0 if path == "decoupled" else 1.0)
    h = 0.02 / form.bath_freqs.max()
    t = np.arange(n_points) * h
    omega0_sq = collective_frequency(form).omega0_sq
    weights = _line_weights(form)
    x, v = volterra_path(omega0_sq, form.bath_freqs, weights, h, t.size, 1.0)
    gamma = np.cos(np.multiply.outer(t, form.bath_freqs)) @ weights
    x_ref, v_ref = trapezoid_oracle(omega0_sq, gamma, h, 1.0)
    assert x.shape == v.shape == (n_points,)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-12 * np.abs(v_ref).max()


@pytest.mark.parametrize("path", ["kick", "decoupled"])
def test_recursive_history_matches_direct_trapezoid(path):
    assert_matches_trapezoid(path, 2000)


@pytest.mark.parametrize("n_points", [1, 2, 64, 65, 131])
@pytest.mark.parametrize("path", ["kick", "decoupled"])
def test_recursive_history_matches_direct_trapezoid_at_block_edges(path, n_points):
    # grids shorter than, equal to and one past a block of steps
    assert_matches_trapezoid(path, n_points)


@pytest.mark.parametrize("n, n_points", [(64, 50001), (1024, 3201)],
                         ids=["kick", "chain-large"])
def test_blocked_stepper_matches_accumulator_loop_over_long_run(n, n_points):
    # the memory-long shape (N = 64 chain, 5e4 steps of h = 0.01) and the
    # chain-large one (N = 1024, 3200 steps), whose (B x N) tables
    # outgrow the cache
    form = point_form(n, 0.5)
    h = 0.01
    t = np.arange(n_points) * h
    omega0_sq = collective_frequency(form).omega0_sq
    weights = _line_weights(form)
    x, v = volterra_path(omega0_sq, form.bath_freqs, weights, h, t.size, 1.0)
    x_ref, v_ref = accumulator_loop(omega0_sq, form.bath_freqs, weights, h,
                                    t.size, 1.0)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-12 * np.abs(v_ref).max()


def test_stepper_memory_is_a_few_rotation_tables():
    # the stepper holds its rotation powers rot^B..rot^0 and the history
    # map built from them, each about (B + 1) N complex numbers; three such
    # tables bound the peak (a folded map, or a feed copied out of the
    # powers, needs more)
    n = 16384
    form = collective_mapping(build_next_neighbor_model(n, 1.0, 1.0, 0.5))[0]
    omega0_sq = collective_frequency(form).omega0_sq
    weights = _line_weights(form)
    tracemalloc.start()
    try:
        x, _ = volterra_path(omega0_sq, form.bath_freqs, weights, 0.01, 3201,
                             1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (BLOCK + 1) * n * 16
    assert np.isfinite(x).all()


def test_mode_sum_memory_is_its_two_trig_tables():
    # the mode sum holds the coarse table (S_a | C_a) and the fine table
    # [c_b; s_b] scaled in place; a (2N x 2 BLOCK) right factor beside
    # them needs more
    n, n_points = 16384, 3201
    modes = collective_mapping(build_next_neighbor_model(n, 1.0, 1.0, 0.5))[1]
    t = np.arange(n_points) * 0.01
    tracemalloc.start()
    try:
        x = evolve_exact(modes, 1.0, t).positions
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coarse_rows = -(-n_points // BLOCK)
    assert peak <= 1.5 * (coarse_rows * 2 * n + 2 * n * BLOCK) * 8
    assert np.isfinite(x).all()


@pytest.mark.parametrize("path", ["kick"])
def test_round_off_weights_match_zero_weights(path):
    # a coupling that is zero up to round-off leaves line weights of
    # order 1e-30; the history sum over them must leave the path of the
    # decoupled oscillator in place
    form = point_form(8, 1.0)
    h = 0.02 / form.bath_freqs.max()
    t = np.arange(2000) * h
    omega0_sq = collective_frequency(form).omega0_sq
    weights = _line_weights(form)
    x, v = volterra_path(omega0_sq, form.bath_freqs, 1e-30 * weights, h,
                         t.size, 1.0)
    x_ref, v_ref = volterra_path(omega0_sq, form.bath_freqs, 0.0 * weights,
                                 h, t.size, 1.0)
    assert np.abs(x - x_ref).max() <= 1e-14 * np.abs(x_ref).max()
    assert np.abs(v - v_ref).max() <= 1e-14 * np.abs(v_ref).max()


def direct_mode_sum(modes, p0, t):
    """X(t) as one sin per (time, mode) pair."""
    w = modes.frequencies
    c_sq = modes.x_coefficients**2
    phase = np.multiply.outer(t, w)
    free = w == 0.0
    x = np.sin(phase) @ (c_sq / np.where(free, 1.0, w)) + t * c_sq[free].sum()
    return p0 / modes.mass * x


@pytest.mark.parametrize("n, t_max, steps", [(64, 500.0, 50000),
                                             (1024, 32.0, 3200)])
def test_factorised_mode_sum_matches_direct_sum(n, t_max, steps):
    _, modes = collective_mapping(build_next_neighbor_model(n, 1.0, 1.0, 0.5))
    t = np.linspace(0.0, t_max, steps + 1)
    traj = evolve_exact(modes, 1.5, t)
    x_ref = direct_mode_sum(modes, 1.5, t)
    assert np.abs(traj.positions - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


def test_grid_check_refuses_a_drifting_grid():
    # each step is within a relative 1e-9 of the first, but the points drift to
    # 4.5e-5 h away from k h by the end; evolve_exact would return X(k h)
    h = 0.01
    k = np.arange(50001)
    t = k * h + 9e-10 * h * np.maximum(k - 1, 0)
    assert np.allclose(np.diff(t), h, rtol=1e-9, atol=0.0)
    with pytest.raises(ValueError, match="uniform"):
        _check_uniform_grid(t, "time")
    modes = collective_sector_modes(point_form(8, 1.0))
    with pytest.raises(ValueError, match="uniform"):
        evolve_exact(modes, 1.0, t)


@pytest.mark.parametrize("t_max", [32.0, 500.0, 1000.0 / 3.0, 7.1])
def test_grid_check_accepts_long_linspace_and_arange_grids(t_max):
    for n_points in (2, 2001, 50001, 1_000_001):
        t = np.linspace(0.0, t_max, n_points)
        x, h = _check_uniform_grid(t, "time")
        assert x is t and h == t[1]
    h = t_max / 3e5
    for t in (np.arange(300001) * h, np.arange(0.0, t_max, h)):
        assert _check_uniform_grid(t, "time")[1] == h


def test_evolve_exact_refuses_nonuniform_grid():
    modes = collective_sector_modes(point_form(8, 1.0))
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValueError, match="uniform"):
        evolve_exact(modes, 1.0, t**2 / 10.0)
    with pytest.raises(ValueError, match="start at 0"):
        evolve_exact(modes, 1.0, t + 1.0)
