"""Change of variables from two coupled chains to one collective
coordinate coupled to an internal bath of relative phonons.

The collective coordinate X is the scaled difference of the two chains'
center-of-mass coordinates, the uniform mode of the antisymmetric
sector.  On the orthogonal complement of the uniform vector that
sector holds N-1 bath coordinates; their block B is diagonalized,
leaving X coupled linearly to N-1 harmonic modes.  The bath does not
depend on which orthonormal basis of the complement is used, so the
dense route takes the one of the phonon deflation's reflector instead
of the phonons themselves.  With the bath diagonal, the collective
sector of every model is an arrowhead matrix, X's stiffness in the
corner, the bath lines on the diagonal and the couplings in the first
row; its modes are the roots of one secular equation, solved by
explicit sums over the lines in O(N^2) with no dense eigensolve.  For
the single-point next-neighbor coupling the bath block itself is also
a diagonal matrix plus one rank-one term; with lam = 4 sin^2(theta/2)
(units of omega0^2) the secular equations of both sum over the chain's
poles in closed form, G(lam) = cos((N - 1/2) theta) / (2 sin(N theta)
sin(theta/2)), so the same data follows in O(N), and an uncoupled
chain is the free chain in closed form; the general route (a dense
bath eigensolve, then the sector's explicit sums) serves every model
built from arrays and stays the oracle of the structured one.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import (
    NumericalError,
    SystemModel,
    UnstableModelError,
    _Chain,
    _TOL_PSD,
    _deflate,
    _fix_signs,
    _freeze,
    _psd_clip,
    antisymmetric_block,
    next_neighbor_frequencies,
)

_SECULAR_MAX_ITER = 100
_CHUNK = 256   # rows of the O(N^2) secular sums held at a time


class ConvergenceError(NumericalError, RuntimeError):
    """Raised when the secular root solve does not converge."""


@dataclass(frozen=True)
class CollectiveForm:
    """Collective coordinate + internal bath data.

    k_tilde_11     : stiffness of the bare collective coordinate
    bath_freqs     : (N-1,) bath frequencies, ascending, > 0
    couplings_l    : (N-1,) couplings of X to the diagonal bath modes

    The form of a chain model also keeps the model's recipe, from
    which the spectra take the resolvent of X in closed form.  A form
    built from arrays, dataclasses.replace included, has none and is
    read through its lines.
    """

    k_tilde_11: float
    bath_freqs: np.ndarray
    couplings_l: np.ndarray
    mass: float
    hbar: float
    _chain: _Chain | None = field(default=None, init=False)

    def __post_init__(self):
        _freeze(self, "bath_freqs", "couplings_l")

    @property
    def bare_omega_sq(self) -> float:
        """Squared frequency 2 Ktilde_11 / m of the bare collective
        coordinate, before the bath renormalizes it."""
        return 2.0 * self.k_tilde_11 / self.mass


@dataclass(frozen=True)
class QuantumModes:
    """Normal modes of the collective sector.

    frequencies    : (N,) mode frequencies (ascending, nonnegative)
    x_coefficients : (N,) components of X along each mode; sum of squares 1
    """

    frequencies: np.ndarray
    x_coefficients: np.ndarray
    mass: float
    hbar: float

    def __post_init__(self):
        _freeze(self, "frequencies", "x_coefficients")


def caldeira_leggett_form(model: SystemModel):
    """Map a validated model onto the collective + internal-bath form by
    one dense eigensolve, of the bath block: (form, basis).

    _deflate splits the uniform mode u off the antisymmetric block anti:
    the bath block's eigenvalues and the site basis [u | C U] from (X,
    bath modes) onto the antisymmetric coordinates, which the energy
    reconstruction needs.  Ktilde_11 = u^T f and the couplings (C U)^T f
    take f = anti u from anti's row sums, so both are exactly 0 where
    those are; none of this depends on the basis C of u's complement.
    A bath eigenvalue at most _TOL_PSD times the largest, the bound
    below which _psd_clip takes a negative one for round-off, is a zero
    mode and raises UnstableModelError.
    """
    m, root_n = model.mass, np.sqrt(model.n_particles)
    anti = antisymmetric_block(model)
    evals, basis = _deflate(anti, "bath block")
    if evals[0] <= _TOL_PSD * evals[-1]:
        raise UnstableModelError(
            "bath block has a zero mode; bath frequencies must be positive"
        )

    force = anti.sum(axis=1) / root_n
    form = CollectiveForm(
        k_tilde_11=float(force.sum() / root_n),
        bath_freqs=np.sqrt(2.0 * evals / m),
        couplings_l=basis[:, 1:].T @ force,
        mass=m,
        hbar=model.hbar,
    )
    return form, basis


def decoupling_indicator(model: SystemModel):
    """Coupling vector of X to the bath in site space, plus a flag.

    The vector is (I - u u^T)(diag(khat) + K) u, u the uniform unit
    vector: the antisymmetric block's force on the complement of u when
    X alone is displaced.  Since khat are K's row sums, K u = khat /
    sqrt(N), so it is (2/sqrt(N)) (khat - mean(khat)).  Any orthonormal basis of the
    complement rotates it into a coupling row: the phonon modes give the
    one of the phonon basis, the bath modes C U the couplings l.  The
    flag is true when the coupling vanishes, i.e. when all khat_i are
    equal (constant row sums give no damping).
    """
    khat = model.row_coupling_sums
    k_site = (2.0 / np.sqrt(model.n_particles)) * (khat - khat.mean())
    khat_scale = np.abs(khat).max()
    decoupled = np.abs(k_site).max() < 1e-12 * max(khat_scale, 1e-300)
    return k_site, bool(decoupled)


def _bracketed_newton(residual, e, lo, hi):
    """Zeros of residual(e, idx) -> (r, dr/de) in brackets [lo, hi] that
    have 0 at one end and r < 0 between 0 and the zero, all at once:
    Newton steps, with bisection whenever a step leaves its bracket."""
    todo = np.arange(e.size)
    for _ in range(_SECULAR_MAX_ITER):
        d = e[todo]
        r, dr = residual(d, todo)
        right = r * d < 0
        a = np.where(right, d, lo[todo])
        b = np.where(right, hi[todo], d)
        lo[todo], hi[todo] = a, b
        step = r / dr
        new = d - step
        converged = np.abs(step) <= 2.0 * np.spacing(np.abs(d))
        inside = (a < new) & (new < b)
        e[todo] = np.where(inside | converged, new, (a + b) / 2.0)
        todo = todo[~(converged | (np.nextafter(a, b) >= b))]
        if todo.size == 0:
            return e
    raise ConvergenceError(f"secular roots not converged after {_SECULAR_MAX_ITER} "
                           f"iterations for {todo.size} of {e.size} brackets")


def _secular_roots(n, rho, beta):
    """(lam, s2) of rho G(lam) - beta/lam = 1 in units of omega0^2, s2 being
    -d/dlam of the left side; beta is 0 (sector) or rho/N (bath), so the
    equation is sum_k w_k / (lam - d_k) = 1 over the poles k it keeps,
    w = rho v.  As lam (rho G - beta/lam - 1) = rho sin(theta) cot(N theta)
    - X with X = 2 (2 - rho) sin^2(theta/2) + beta, the root in a gap
    between poles zeroes u = X sin(N e) / sin(theta) - rho cos(N e),
    e = theta - pi o/N the offset from the nearer end o of its gap; there
    s2 = u'(e) / (2 lam sin(N e)).  The top root, in the band or above it,
    is lam = d_t + tau past the top pole t, tau the zero of
    tau (1 - sum_{k != t} w_k / (sep_k + tau)) - w_t with sep_k = d_t - d_k
    in product form, and its s2 is the pole sum sum_k w_k / (sep_k + tau)^2.
    """
    k = np.arange(1 if beta else 0, n)
    gap = np.pi / n
    o = k[:-1]

    def residual(e, idx):
        theta = gap * o[idx] + e
        sin_t = np.sin(np.where(2 * o[idx] < n, theta, gap * (n - o[idx]) - e))
        x = 2.0 * (2.0 - rho) * np.sin(theta / 2.0) ** 2 + beta
        sn, cn = np.sin(n * e), np.cos(n * e)
        du = ((2.0 - rho + n * rho) * sn
              + x * (n * cn - sn * np.cos(theta) / sin_t) / sin_t)
        return x * sn / sin_t - rho * cn, du
    # u = X / sin(theta) at a gap's midpoint picks the nearer end, and the
    # angle form N e = atan2(rho, u) there starts Newton.
    u_mid = residual(np.full(o.size, gap / 2.0), slice(None))[0]
    upper = u_mid < 0
    o = o + upper
    e = _bracketed_newton(residual, np.arctan2(rho, u_mid) / n - gap * upper,
                          np.where(upper, -gap / 2.0, 0.0),
                          np.where(upper, 0.0, gap / 2.0))
    lam = 4.0 * np.sin((gap * o + e) / 2.0) ** 2
    s2 = residual(e, slice(None))[1] / (2.0 * lam * np.sin(n * e))

    w = rho * np.where(k > 0, 2.0 * np.sin(gap * (n - k) / 2.0) ** 2, 1.0) / n
    sep = 4.0 * np.sin(gap * (n - 1 - k) / 2.0) * np.sin(gap * (n + 1 - k) / 2.0)

    def top_residual(tau, _):
        inv = 1.0 / (sep[:-1] + tau)
        r1 = inv @ w[:-1]
        return tau * (1.0 - r1) - w[-1], 1.0 - r1 + tau * ((inv * inv) @ w[:-1])
    # the one-pole start, from the other poles' sum at tau = 0, whose
    # 1 - R(0) may be exactly 0; the bracket's midpoint when it falls out
    hi = np.array([4.0 * np.sin(gap / 2.0) ** 2 + rho])   # lam <= 4 + rho
    with np.errstate(divide="ignore"):
        tau = w[-1:] / (1.0 - w[:-1] @ (1.0 / sep[:-1]))
    tau = np.where((0.0 < tau) & (tau <= hi), tau, hi / 2.0)
    tau = _bracketed_newton(top_residual, tau, np.zeros(1), hi)
    return (np.append(lam, 4.0 * np.sin(gap * (n - 1) / 2.0) ** 2 + tau),
            np.append(s2, w @ (1.0 / (sep + tau) ** 2)))


def _bath_pole_sum(n, half):
    """G1(zeta) = sum_{k>=1} v_k / (zeta - d_k), the pole sum of the bath
    equation rho G1 = 1 (_secular_roots at beta = rho/N), off the real
    axis at zeta = 4 half^2, Im half > 0.  With theta = 2 arcsin(half)
    and q = e^{i theta}, |q| < 1, the sum over all N poles is the
    tight-binding chain's G = -(q^{2N} + q) / ((q^{2N} - 1)(q - 1)); the
    uniform pole 1/(N zeta) is taken off.  q and q - 1 = 2i half
    e^{i theta/2} are each formed directly, so neither cancels where q
    is near 0 (far above the band) or near 1 (near zeta = 0).
    """
    half_theta = np.arcsin(half)
    g = -(np.exp(4j * n * half_theta) + np.exp(2j * half_theta)) / (
        np.expm1(4j * n * half_theta) * (2j * half * np.exp(1j * half_theta)))
    return g - 1.0 / (4.0 * n * half**2)


def is_point_coupling(model: SystemModel) -> bool:
    """True for a next-neighbor chain pair coupled only by K_11 > 0,
    read from the recipe build_next_neighbor_model keeps: no array is
    formed, and a model built from arrays never qualifies.  Only such a
    chain's bath strictly interlaces the free chain's lines."""
    return model._chain is not None and model._chain.alpha > 0


def _pole_sums(p, z2, o, tau):
    """sum_{j != o_i} z2_j / (p_j - p_{o_i} - tau_i)^q for q = 1, 2: the
    secular sums at p_{o_i} + tau_i without the pole o_i, over 256 rows
    at a time."""
    r1, r2 = np.empty(o.size), np.empty(o.size)
    for start in range(0, o.size, _CHUNK):
        blk = slice(start, start + _CHUNK)
        inv = p - p[o[blk], None]
        inv -= tau[blk, None]
        inv[np.arange(inv.shape[0]), o[blk]] = np.inf
        np.reciprocal(inv, out=inv)
        r1[blk] = inv @ z2
        np.square(inv, out=inv)
        r2[blk] = inv @ z2
    return r1, r2


def _arrowhead_roots(a, p, z2):
    """Roots of f(lam) = lam - a + sum_j z2_j / (p_j - lam), with poles p
    ascending and apart and every z2 > 0: (o, tau), root i being
    p[o_i] + tau_i.  There is one root below p_0, one in each gap and one
    above p_{k-1}; each is an offset tau from the nearer pole p of its
    bracket, the zero of tau f_(!=p)(p + tau) - z2_p (f without pole p).
    The outer brackets reach 2 ||z|| beyond min(a, p_0) and max(a,
    p_{k-1}), twice Weyl's bound on the roots."""
    k = p.size
    o = np.append(0, np.arange(k))

    def residual(tau, idx):
        r1, r2 = _pole_sums(p, z2, o[idx], tau)
        g = (p[o[idx]] - a) + tau + r1
        return tau * g - z2[o[idx]], g + tau * (1.0 + r2)

    half = np.diff(p) / 2.0
    span = 2.0 * np.sqrt(z2.sum())
    lo = np.concatenate(([min(a - p[0], 0.0) - span], np.zeros(k)))
    hi = np.concatenate(([0.0], half, [max(a - p[-1], 0.0) + span]))
    # tau f at a gap's midpoint, from its lower pole: negative puts the
    # root nearer the upper pole
    gaps = slice(1, k)
    upper = residual(half, gaps)[0] < 0
    o[gaps] += upper
    lo[gaps], hi[gaps] = np.where(upper, -half, 0.0), np.where(upper, 0.0, half)
    # one Newton step from tau = 0 starts each root, inside its bracket
    r, dr = residual(np.zeros(k + 1), np.arange(k + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = -r / dr
    tau = np.where((lo < tau) & (tau < hi), tau, (lo + hi) / 2.0)
    return o, _bracketed_newton(residual, tau, lo, hi)


def _secular_modes(modes, rows, cols, p, z, o, tau):
    """Write the modes of the roots lam = p[o] + tau into modes[:, cols]:
    (1, zhat_j / (lam - p_j)) normalized, the pole entries in ``rows``.

    zhat carries z's signs and the couplings for which the roots are
    exact, by Loewner's formula zhat_j^2 = prod_i |lam_i - p_j| /
    prod_{i != j} |p_i - p_j|, taken as a product of ratios that
    interlacing keeps at most 1 (lam_{i+1} over p_i below j, lam_i over
    p_i above j) and the two outer roots' factors.  Both passes take 256
    poles or roots at a time."""
    k = p.size
    below = np.arange(k)[:, None]
    zhat = np.empty(k)
    for start in range(0, k, _CHUNK):
        poles = np.arange(start, min(start + _CHUNK, k))
        diag = (poles, np.arange(poles.size))
        dist = np.subtract.outer(p[o], p[poles])
        dist += tau[:, None]
        np.abs(dist, out=dist)
        ratio = np.where(below < poles, dist[1:], dist[:-1])
        ratio[diag] = dist[0] * dist[-1]
        den = np.abs(np.subtract.outer(p, p[poles], out=dist[1:]), out=dist[1:])
        den[diag] = 1.0
        ratio /= den
        zhat[poles] = np.sqrt(ratio.prod(axis=0))
    np.copysign(zhat, z, out=zhat)
    for start in range(0, o.size, _CHUNK):
        blk = slice(start, start + _CHUNK)
        v = np.subtract.outer(p[o[blk]], p)     # lam_i - p_j
        v += tau[blk, None]
        np.divide(zhat, v, out=v)
        norm = np.sqrt(1.0 + (v * v).sum(axis=1))
        v /= norm[:, None]
        modes[0, cols[blk]] = 1.0 / norm
        modes[np.ix_(rows, cols[blk])] = v.T


def collective_sector_eigensystem(form: CollectiveForm):
    """Eigensolve of the coupled (X, bath) sector: (frequencies, mode_matrix).

    The frequency-squared matrix holds a = 2*Ktilde_11/m in the corner
    and the bath frequencies squared d on the rest of the diagonal.  The
    off-diagonal coupling row is z = 2 l/m: expanding the quadratic form
    (d, Ktilde d) produces the cross terms 2 X sum_n Ktilde_1n d_n, so
    the force of the bath on X (and vice versa) carries twice the stored
    coupling vector.  This is what makes the mapped sector reproduce the
    full-system spectrum exactly.

    The matrix is an arrowhead, solved in O(N^2) time and O(N) memory
    beside the mode matrix, with no dense eigensolve (Dongarra and
    Sorensen, SIAM J. Sci. Stat. Comput. 8 (1987) s139; Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172):

    - a line with |z_j| <= 8 eps max(|a|, max d, max |z|) is an
      eigenpair (d_j, e_j); of two kept lines with equal d, a Givens
      rotation moves the coupling onto the upper one and leaves the
      lower one as an eigenpair at that d;
    - the remaining k poles give k + 1 roots of the secular equation
      lam - a + sum_j z_j^2 / (d_j - lam) = 0 (_arrowhead_roots), each
      held as an offset from its nearer pole, so every lam - d_j is
      formed without cancellation, however close two poles lie;
    - Loewner's formula recomputes couplings zhat for which these roots
      are exact, and the modes are (1, zhat_j / (lam - d_j)) normalized,
      orthogonal to round-off however close the roots lie.

    mode_matrix is orthogonal with columns as modes, each column's
    first nonzero entry positive; frequencies are ascending.  Raises
    ValueError for bath frequencies out of order and UnstableModelError
    when the sector has a genuinely negative mode; a zero mode (free
    collective coordinate, no direct stiffness) is kept as frequency 0.
    """
    a = form.bare_omega_sq
    d = form.bath_freqs**2
    if (np.diff(d) < 0).any():
        raise ValueError("bath frequencies must be sorted ascending")
    z = 2.0 * form.couplings_l / form.mass
    n = d.size + 1
    tol = 8.0 * np.finfo(float).eps * max(abs(a), d[-1], np.abs(z).max())
    pole = np.abs(z) > tol
    rotations = []
    kept = np.flatnonzero(pole)
    equal = np.flatnonzero(np.diff(d[kept]) == 0.0)
    for i, j in zip(kept[equal], kept[equal + 1]):
        r = float(np.hypot(z[i], z[j]))
        rotations.append((i + 1, j + 1, z[j] / r, z[i] / r))
        z[i], z[j] = 0.0, r
        pole[i] = False
    p, zp = d[pole], z[pole]
    if p.size:
        o, tau = _arrowhead_roots(a, p, zp * zp)
        lam = p[o] + tau
    else:
        lam = np.array([a])
    # both value lists ascend: merge them, secular roots first on ties
    defl = d[~pole]
    col = np.arange(lam.size) + np.searchsorted(defl, lam)
    defl_col = np.arange(defl.size) + np.searchsorted(lam, defl, side="right")
    evals = np.empty(n)
    evals[col], evals[defl_col] = lam, defl
    evals = _psd_clip(evals, "collective sector")

    modes = np.zeros((n, n))
    modes[1 + np.flatnonzero(~pole), defl_col] = 1.0
    if p.size:
        _secular_modes(modes, 1 + np.flatnonzero(pole), col, p, zp, o, tau)
    else:
        modes[0, col] = 1.0
    # back from the rotated lines, last rotation first
    for i, j, c, s in reversed(rotations):
        vi, vj = modes[i].copy(), modes[j]
        modes[i] = c * vi + s * vj
        modes[j] = c * vj - s * vi
    return np.sqrt(evals), _fix_signs(modes)


def collective_sector_modes(form: CollectiveForm) -> QuantumModes:
    """Normal modes of the coupled (X, bath) sector.

    The X components of the eigenvectors are the mode coefficients of X
    (their squares sum to 1 by orthogonality).
    """
    return _sector_modes(form, collective_sector_eigensystem(form))


def _sector_modes(form: CollectiveForm, sector) -> QuantumModes:
    """QuantumModes of a collective_sector_eigensystem result ``sector``
    of ``form``: its frequencies and its modes' X row."""
    freqs, modes = sector
    return QuantumModes(frequencies=freqs, x_coefficients=modes[0, :],
                        mass=form.mass, hbar=form.hbar)


def _chain_units(obj):
    """(rho = 2 alpha / (m omega0^2), omega0^2) of the chain recipe a
    model or its form keeps: its secular equations' units."""
    omega0, alpha = obj._chain
    return 2.0 * alpha / (obj.mass * omega0**2), omega0**2


def _point_coupled_mapping(model: SystemModel):
    """(form, modes) of a next-neighbor chain pair in O(N).

    In the phonon basis the antisymmetric sector's frequency-squared
    matrix is diag(d) + rho a a^T with a_0^2 = 1/N, so Ktilde_11 =
    alpha/N and k_k = alpha a_0 a_k in closed form, and the sector modes
    are the roots of its secular equation over all N poles.  X is phonon
    mode 0, so its weight in the mode at lam is
    (a_0 / lam)^2 / sum_k a_k^2 / (lam - d_k)^2 = rho a_0^2 / (lam^2 s2).
    The bath block drops mode 0: (m/2)(diag(d) + rho a a^T) over the
    nonuniform modes, whose eigenvalues (m/2) lam solve the same
    equation over the poles k >= 1.  With alpha = 0 nothing couples:
    the bath is the free chain's nonuniform modes and X its zero mode.
    """
    n, m = model.n_particles, model.mass
    alpha = model._chain.alpha
    if alpha == 0:
        freqs = next_neighbor_frequencies(n, model.omega0)
        form = CollectiveForm(0.0, freqs[1:], np.zeros(n - 1), m, model.hbar)
        modes = QuantumModes(freqs, np.eye(1, n)[0], m, model.hbar)
    else:
        rho, w0_sq = _chain_units(model)   # lam, s2 and rho in units of omega0^2
        lam, s2 = _secular_roots(n, rho, rho / n)
        # At a root, where sum_k a_k^2 / (lam - d_k) = 1 / rho, the coupling
        # alpha a_0 sum / sqrt(s2 / rho) is m omega0^2 / (2 sqrt(N s2 / rho)).
        form = CollectiveForm(k_tilde_11=alpha / n, bath_freqs=np.sqrt(w0_sq * lam),
                              couplings_l=m * w0_sq / (2.0 * np.sqrt(n * s2 / rho)),
                              mass=m, hbar=model.hbar)
        lam, s2 = _secular_roots(n, rho, 0.0)
        modes = QuantumModes(frequencies=np.sqrt(w0_sq * lam),
                             x_coefficients=np.sqrt(rho / (n * lam**2 * s2)),
                             mass=m, hbar=model.hbar)
    object.__setattr__(form, "_chain", model._chain)
    return form, modes


def collective_mapping(model: SystemModel):
    """Collective form and sector modes of a model: (form, modes).

    A next-neighbor chain pair takes its O(N) closed forms; every model
    built from arrays takes the bath block's dense eigensolve
    (caldeira_leggett_form) and the sector's O(N^2) arrowhead solve
    (collective_sector_modes).
    """
    if model._chain is not None:
        return _point_coupled_mapping(model)
    form, _ = caldeira_leggett_form(model)
    return form, collective_sector_modes(form)

