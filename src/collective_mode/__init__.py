"""Coupled oscillator chains with a damped collective coordinate.

Builds two-chain harmonic models, maps them onto a collective
coordinate coupled to an internal phonon bath, evolves the collective
coordinate by exact, memory-kernel and closed-form routes, and computes
the quantum transition-strength spectra the collective motion induces.
"""

from ._kernels import BACKEND_NAME
from .model import (
    ModelValidationError,
    PhononSpectrum,
    SystemModel,
    UnstableModelError,
    build_general_model,
    build_next_neighbor_model,
    full_potential_matrix,
    next_neighbor_frequencies,
    phonon_spectrum,
    potential_energy,
    standing_wave_basis,
    validate_model,
)
from .mapping import (
    CollectiveForm,
    QuantumModes,
    caldeira_leggett_form,
    collective_mapping,
    collective_sector_eigensystem,
    collective_sector_modes,
    decoupling_indicator,
    interaction_in_phonon_basis,
    is_point_coupling,
    point_coupling_secular,
    shift_collective_potential,
    symmetric_sector_frequencies,
)
from .dynamics import (
    OscillatorParams,
    TrajectoryTable,
    collective_frequency,
    damping_kernel,
    evolve_exact,
    fourier_solution,
    gamma_transform,
    linear_response,
    mean_bath_spacing,
    reconstruct_full_trajectory,
    solve_volterra,
    total_energy,
    underdamped_closed_form,
)
from .spectra import (
    DeltaComb,
    SpectrumTable,
    convolution_power_spectrum,
    correlator_S,
    fdt_spectrum,
    observable_spectrum,
    ohmic_spectrum,
    sigma_comb,
    sigma_phonon_approximation,
    sigma_resolvent,
    smoothed_spectrum,
    strength_comb,
)

__version__ = "0.1.0"
