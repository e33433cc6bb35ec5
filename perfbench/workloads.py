"""Workload definitions and their seeded inputs.

Each workload is one `collective-mode` CLI command on a generated
scenario.  The seed fixes every random choice; the program under test
only ever sees the config and matrix files written here.

Why these three:

- chain-large: `run` on an N=1024 next-neighbour chain.  Dense O(N^3)
  work (model validation, phonon and sector eigensolves, the T x N mode
  sums) dominates; the memory-kernel stepper is a fraction of a percent.
- memory-long: `run` on an N=64 chain over 5e4 steps.  The stepper's
  O(T^2) history sum and the 3.7 MB trajectory table dominate; the
  mapping is under 10 ms.
- disorder-verify: `verify` on a seeded disordered chain (general
  model, N=512).  It takes the `build_general_model` path, never the
  next-neighbour closed forms, and repeats the decompositions the way
  the oracle suite does.

The coupling is drawn from a narrow band (alpha in [0.49, 0.51], K_11
in [0.245, 0.255], extra K entries at most 0.002).  The Volterra error
grows linearly with the coupling (6.99e-10 at alpha=0.4 to 1.05e-9 at
alpha=0.6 on chain-large), so a band of +-20%, or extra entries up to
0.02, spreads the accuracy metric across seeds by 12% or more (first to
third quartile over ten seeds), against 2-3% with these bands.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASS = 1.0
OMEGA0 = 1.0
P0 = 1.0

SPECS = {
    "chain-large": dict(command="run", kind="next_neighbor", n=1024,
                        t_max=32.0, steps=3200),
    "memory-long": dict(command="run", kind="next_neighbor", n=64,
                        t_max=500.0, steps=50000),
    "disorder-verify": dict(command="verify", kind="general", n=512,
                            t_max=32.0, steps=3200),
}

# Spectra settings of the `run` workloads: a 2000-point grid up to 4 omega0
# holds the whole chain band (<= 2 omega0) and the power-2 convolution.
SPECTRA = dict(omega_max=4.0, grid_points=2000, powers="2")


@dataclass(frozen=True)
class Inputs:
    """Generated scenario: the CLI argv plus the model the oracle needs."""

    command: str
    config: Path
    output: Path
    w_matrix: np.ndarray
    k_matrix: np.ndarray

    def argv(self):
        return [self.command, str(self.config), "--quiet",
                "--output", str(self.output)]


def chain_matrix(bond_stiffness):
    """W = sum_j c_j (e_j - e_{j+1})(e_j - e_{j+1})^T of a free-ended chain."""
    c = np.asarray(bond_stiffness, dtype=float)
    n = c.size + 1
    w = np.zeros((n, n))
    idx = np.arange(n - 1)
    w[idx, idx] += c
    w[idx + 1, idx + 1] += c
    w[idx, idx + 1] -= c
    w[idx + 1, idx] -= c
    return w


def disordered_model(n, rng):
    """Seeded general model: bonds m omega0^2/2 (1 +- 0.1 u), a point
    coupling K_11 near 0.25 and three K entries of at most 0.002 among
    the first 8 sites (diagonal or symmetric pairs), all nonnegative."""
    c = MASS * OMEGA0**2 / 2.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, n - 1))
    w = chain_matrix(c)
    k = np.zeros((n, n))
    k[0, 0] = rng.uniform(0.245, 0.255)
    for _ in range(3):
        i, j = rng.integers(0, min(n, 8), size=2)
        v = rng.uniform(0.0, 0.002)
        k[i, j] += v
        if i != j:
            k[j, i] += v
    return w, k


def make_inputs(spec, seed, directory):
    """Write the scenario for one workload spec and seed into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n = spec["n"]
    if spec["kind"] == "next_neighbor":
        alpha = rng.uniform(0.49, 0.51)
        w = chain_matrix(np.full(n - 1, MASS * OMEGA0**2 / 2.0))
        k = np.zeros((n, n))
        k[0, 0] = alpha / 2.0
        model = (f"kind = next_neighbor\nn = {n}\nmass = {MASS!r}\n"
                 f"omega0 = {OMEGA0!r}\nalpha = {alpha!r}\n")
    else:
        w, k = disordered_model(n, rng)
        np.savetxt(directory / "w.csv", w, delimiter=",", fmt="%.17g")
        np.savetxt(directory / "k.csv", k, delimiter=",", fmt="%.17g")
        model = (f"kind = general\nmass = {MASS!r}\n"
                 f"w_file = {directory / 'w.csv'}\n"
                 f"k_file = {directory / 'k.csv'}\n")
    output = directory / "out"
    config = directory / "scenario.ini"
    config.write_text(
        f"[model]\n{model}\n"
        f"[dynamics]\np0 = {P0!r}\nt_max = {spec['t_max']!r}\n"
        f"steps = {spec['steps']}\n\n"
        f"[spectra]\nomega_max = {SPECTRA['omega_max']!r}\n"
        f"grid_points = {SPECTRA['grid_points']}\n"
        f"powers = {SPECTRA['powers']}\n\n"
        f"[output]\ndirectory = {output}\nformats = csv\n")
    return Inputs(command=spec["command"], config=config, output=output,
                  w_matrix=w, k_matrix=k)


def antisymmetric_frequencies(w_matrix, k_matrix, mass=MASS):
    """Oracle: sqrt(2 eigvalsh(W + diag(khat) + K) / m), ascending.

    The kick excites only the antisymmetric (relative) sector of the
    2N-coordinate system, whose quadratic form is W + diag(khat) + K;
    its frequencies are exactly the lines of the strength comb.
    """
    block = w_matrix + np.diag(k_matrix.sum(axis=1)) + k_matrix
    evals = np.linalg.eigvalsh(block)
    return np.sqrt(2.0 * np.clip(evals, 0.0, None) / mass)
