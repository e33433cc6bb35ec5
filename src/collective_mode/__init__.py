"""Coupled oscillator chains with a damped collective coordinate.

Builds two-chain harmonic models, maps them onto a collective
coordinate coupled to an internal phonon bath, evolves the collective
coordinate by exact, memory-kernel and closed-form routes, and computes
the quantum transition-strength spectra the collective motion induces.
"""

from ._kernels import BACKEND_NAME
from .model import (
    ModelValidationError,
    NumericalError,
    SystemModel,
    UnstableModelError,
    antisymmetric_block,
    build_general_model,
    build_next_neighbor_model,
    next_neighbor_frequencies,
    sector_eigenvalues,
)
from .mapping import (
    CollectiveForm,
    ConvergenceError,
    QuantumModes,
    caldeira_leggett_form,
    collective_mapping,
    collective_sector_eigensystem,
    collective_sector_modes,
    decoupling_indicator,
    is_point_coupling,
)
from .dynamics import (
    OscillatorParams,
    StepSizeError,
    TrajectoryTable,
    collective_frequency,
    damping_kernel,
    evolve_exact,
    fourier_solution,
    gamma_transform,
    mean_bath_spacing,
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
    smoothed_spectrum,
    strength_comb,
)

__version__ = "0.1.0"
