"""Memory-kernel time stepper.

Velocity-Verlet stepping of the collective equation of motion with a
trapezoidal history sum.  The damping kernel of the finite internal bath
is an exact sum of cosines over the bath lines, so the history sum is
carried forward in one complex accumulator per line,

    C_n <- (C_n + v_{i+1}) e^(i w_n h),    memory = h Re sum_n weight_n C_n,

seeded with the trapezoid's half-weight v_0 term: O(T N) work for T
steps and N lines.  The endpoint term of the trapezoid makes the
velocity update implicit; the implicit equation is linear and solved
exactly each step.  External forces are treated as constant over each
step (left node), so a single-bin rectangle delivers its impulse exactly.
"""

import numpy as np

# Name of the one stepper implementation, for callers that report provenance.
BACKEND_NAME = "python"


def volterra_path(omega0_sq, freqs, weights, h, n_points, f_over_m=None,
                  v0=0.0):
    """Integrate xdd + omega0_sq x + int_0^t gamma(t-s) xd(s) ds = F/m
    from x(0) = 0, xd(0) = v0.

    The kernel is gamma(t) = sum_k weights[k] cos(freqs[k] t); a kernel
    whose weights are all zero skips the history sum.
    n_points : grid length T, the initial point included
    f_over_m : optional (T,) force/mass samples, constant over each step

    Returns (x, v), both (T,).
    """
    n = int(n_points)
    x = np.empty(n)
    v = np.empty(n)
    x[0] = 0.0
    v[0] = v0
    if n == 1:
        return x, v
    if f_over_m is None:
        forces = [0.0] * (n - 1)
    else:
        forces = np.asarray(f_over_m, dtype=float).tolist()

    weights = np.asarray(weights, dtype=float)
    g0 = float(weights.sum())  # gamma(0)
    denom = 1.0 + 0.25 * h * h * g0
    memory = bool(np.any(weights != 0.0))
    rot = np.exp(1j * h * np.asarray(freqs, dtype=float))
    acc = 0.5 * v0 * rot  # trapezoid half-weight of the v_0 node
    # h * weights on the real parts of the interleaved (re, im) pairs
    hw = np.zeros(2 * rot.size)
    hw[0::2] = h * weights
    acc_pairs = acc.view(float)

    xi, vi = 0.0, float(v0)
    anf = 0.0  # acceleration without force at x = 0; no memory at t=0
    for i in range(n - 1):
        fi = forces[i]
        xi1 = xi + h * vi + 0.5 * h * h * (anf + fi)
        # trapezoidal memory at t_{i+1}, endpoint j=i+1 excluded
        mem = float(np.dot(hw, acc_pairs)) if memory else 0.0
        atil = -omega0_sq * xi1 - mem
        vi1 = (vi + 0.5 * h * (anf + atil) + h * fi) / denom
        anf = atil - 0.5 * h * g0 * vi1
        x[i + 1] = xi = xi1
        v[i + 1] = vi = vi1
        if memory:
            np.add(acc, vi1, out=acc)
            np.multiply(acc, rot, out=acc)
    return x, v
