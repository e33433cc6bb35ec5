"""Memory-kernel time stepper.

Velocity-Verlet stepping of the collective equation of motion with a
trapezoidal history sum.  The damping kernel of the finite internal bath
is an exact sum of cosines over the bath lines, so the history sum is
carried forward in one complex accumulator per line,

    C_n <- (C_n + v_{i+1}) e^(i w_n h),    memory = h Re sum_n weight_n C_n,

seeded with the trapezoid's half-weight v_0 term.  The endpoint term of
the trapezoid makes the velocity update implicit; the implicit equation
is linear and solved exactly each step.

The one-step map is linear and time-invariant, so the time axis is cut
into blocks of BLOCK = B steps, each advanced by three products:

1. the history carried in from earlier blocks, e_j = h Re sum_n
   weight_n rot_n^(j-1) C_n for j = 1..B, is a (B x N) linear map of
   the accumulators;
2. x and v over the block, and the acceleration at its end, are linear
   in the start state (x, v, a) and e_1..e_B.  That small transfer
   matrix is built once by running the scalar recurrence on unit inputs
   (inside a block the history uses the kernel samples gamma(m h));
3. the accumulators advance in closed form,
   C <- rot^B C + sum_k rot^(B-k+1) v_k, a (B x N) product.

No power of the one-step matrix is formed.  The work stays O(T N) for T
steps and N lines, in T / B numpy calls instead of T loop iterations;
the history sum is blocked as in Lubich and Schaedle, SIAM J. Sci.
Comput. 24 (2002).
"""

import numpy as np

# Name of the one stepper implementation, for callers that report provenance.
BACKEND_NAME = "python"

# Uniform steps advanced per numpy call, by the stepper and the mode sum.
BLOCK = 64


def _block_transfer(omega0_sq, gamma, h):
    """Linear map of one block of len(gamma) steps.

    Columns: the start state (x, v, a) and the carried-in history
    e_1..e_B.  Rows: x_1..x_B, v_1..v_B and the acceleration at the
    block's end.  gamma[m] = gamma(m h).
    """
    b = gamma.size
    unit = np.eye(b + 3)
    x, v, a = unit[0], unit[1], unit[2]
    hist = unit[3:]
    xs = np.empty((b, unit.shape[1]))
    vs = np.empty_like(xs)
    g0 = gamma[0]
    denom = 1.0 + 0.25 * h * h * g0
    for j in range(b):
        x = x + h * v + 0.5 * h * h * a
        # trapezoidal memory at step j+1, endpoint excluded
        mem = hist[j] + h * (gamma[j:0:-1] @ vs[:j])
        atil = -omega0_sq * x - mem
        v = (v + 0.5 * h * (a + atil)) / denom
        a = atil - 0.5 * h * g0 * v
        xs[j] = x
        vs[j] = v
    return np.vstack([xs, vs, a])


def volterra_path(omega0_sq, freqs, weights, h, n_points, v0):
    """Integrate xdd + omega0_sq x + int_0^t gamma(t-s) xd(s) ds = 0
    from x(0) = 0, xd(0) = v0.

    The kernel is gamma(t) = sum_k weights[k] cos(freqs[k] t).
    n_points : grid length T, the initial point included

    Returns (x, v), both (T,).
    """
    n = int(n_points)
    b = BLOCK
    blocks = -(-(n - 1) // b)
    weights = np.asarray(weights, dtype=float)
    # rot^B..rot^0 (the feed is its first B rows): phases, then cos, sin
    rot = np.empty((b + 1, np.size(freqs)), dtype=complex)
    np.multiply.outer(np.arange(b, -1, -1), h * np.asarray(freqs, dtype=float),
                      out=rot.imag)
    np.cos(rot.imag, out=rot.real)
    np.sin(rot.imag, out=rot.imag)
    transfer = _block_transfer(omega0_sq, rot[b:0:-1].real @ weights, h)
    # history e_1..e_B from (Re C, Im C); conjugated in place: no third table
    carry = h * weights * rot[b:0:-1]
    carry = np.conjugate(carry, out=carry).view(float)
    feed = rot[:b].view(float)

    acc = 0.5 * v0 * rot[b - 1]  # trapezoid half-weight of the v_0 node
    pairs = acc.view(float)
    state = np.zeros(b + 3)  # x, v, a at the block's start, then e_1..e_B
    state[1] = v0
    path = np.empty((blocks, 2 * b + 1))  # x_1..x_B, v_1..v_B, a_B per block
    for k in range(blocks):
        np.matmul(carry, pairs, out=state[3:])
        out = np.matmul(transfer, state, out=path[k])
        acc *= rot[0]
        pairs += out[b:2 * b] @ feed
        state[0], state[1], state[2] = out[b - 1], out[2 * b - 1], out[2 * b]
    return (np.concatenate(([0.0], path[:, :b].ravel()))[:n],
            np.concatenate(([v0], path[:, b:2 * b].ravel()))[:n])
