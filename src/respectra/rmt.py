"""Numerical eta-transform, Stieltjes transform and eigenvalue densities.

The eta-transform of the renormalized sample autocorrelation of B = C S A
solves a two-variable fixed point in the expectations

    E1 = E[ D / (1 + gamma beta D E2) ],   E2 = E[ T / (1 + gamma T E1) ],

where D and T are drawn from the limiting spectral laws of C C^T and
A A^T. After convergence eta(gamma) = E[ 1 / (1 + gamma beta D E2*) ].
Expectations reduce to angular quadrature against the laws' transforms
plus the explicit point-mass branch. The Stieltjes transform follows from
S(-1/gamma) = gamma eta(gamma), and evaluating it just above the real axis
recovers the eigenvalue density.

Solver notes: the solver's settings are module constants, not
parameters. Each point is iterated with damped steps until its relative
residual falls below 1e-2 (at most 60 of them) and then finished by
Newton steps on F(E2) = g(E2) - E2, whose derivative comes from the same
quadrature sums as g. A point stops at its first Newton step within the
fixed tolerance 1e-6 of |E2|, at most 10 000 iterations, and the
stepped iterate is returned, so where Newton converges quadratically (away
from support edges) the E2 error is far below the tolerance; this matters
near zero, where |S| ~ zero_mass/|lambda + i nu| amplifies it. The points
are rows of (points x atoms) arrays summed along the atom axis, so a
point's answer does not depend on the other points or on BLAS. The solver
has two paths over one map and slope (_fixed_point_map, _map_slope),
picked by the number of points. A single gamma (eta_transform's, every
chain link, the sqrt probe, a one-point rescue) keeps its Newton switch,
stall counter and stop test in Python scalars; for real gamma > 0, which
only eta_transform solves, its iterates also stay inside a bracket around
the positive root, the physical one. A vector of gamma, always complex
(the density sweep's batches and rescues), keeps them in per-point masks.
Both do the same arithmetic on one-row arrays, so a point's bits do not
depend on the path.
_density_points is the one place that solves at points lambda + i nu,
forms S and the density and picks the root: a density below minus its
evaluation-error budget (E2 tolerance times |S|/pi, at least 1e-12) marks
the nonphysical root and the point is re-solved from conj(E2) (logged at
DEBUG on this module's logger and counted in EigenPdf.rescued_points).
A density sweep walks its grid from the largest lambda down. Every 8th
grid point and both ends form a chain, each link warm started from E2
extrapolated as a power of lambda through the links above it; the chain is
what keeps the sweep on the physical root. After every 4 links the points
between them, at most 28, are solved as one batch, each started from the
chain's E2 interpolated in log lambda (log E2 linear in log lambda). The
default grid's calibration uses the same walk over a coarse grid and stops
it at the first batch that reaches below the tail cut, the only part its
tail-mass rule reads. Where the support reaches zero (P(D != 0)/beta <=
P(T != 0)) a cold-started fine-nu solve at the bottom of the coarse grid
probes for an A/sqrt(lambda) divergence, the conj(E2) rescue picking the
physical root; where the support has a gap there is no divergence and no
probe.

support_lower_edge reads no density: it finds the lower support edge as
the fold of the fixed point's real inverse map, from the same atom sums.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InputError, check_range
from .spectra import afze

_log = logging.getLogger(__name__)

_QUAD_ORDER = 16        # Gauss-Legendre nodes per quadrature panel
_QUAD_PANELS = 16       # panels on (0, pi): 256 atoms per law
_QUAD_GRADING = 3.0     # panel edges pi (k/panels)^3, dense near omega = 0
_TOLERANCE = 1e-6       # last Newton step relative to |E2|
_MAX_ITERS = 10000      # fixed-point iterations per point
_PICARD_WARMUP = 60     # most damped steps before the switch to Newton
_DAMPING = 0.5          # Picard step size before the switch to Newton
_DIVERGENCE_WINDOW = 50  # Newton steps without a smaller residual
MAX_POINTS = 2 ** 20    # largest default grid of eigen_pdf (see there)


def quadrature_nodes():
    """Graded composite Gauss-Legendre nodes and weights on (0, pi).

    16 panels of 16 nodes whose edges are graded toward 0 as
    pi (k/panels)^3, where the AR spectrum peaks; the law's symmetry around
    pi supplies the other half interval. Densities on these 256 atoms match
    a 4 096-atom solve to within 1e-8 of the peak.
    """
    return _quadrature(_QUAD_PANELS)


@functools.cache
def _quadrature(panels):
    x, w = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    edges = np.pi * (np.arange(panels + 1) / panels) ** _QUAD_GRADING
    a, b = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    return nodes, weights


class _LawAtoms:
    """A law reduced to quadrature atoms: values, weights and zero mass.

    Weights fold in the angular density and the symmetric doubling, so
    sum(weights) + mass = 1 and E[g] = mass * g(0) + sum(weights * g(values)).
    ``wv`` and ``wv2`` are the weights times the values and their squares,
    the numerators of the fixed-point map and of its derivative.
    """

    __slots__ = ("values", "weights", "mass", "mean", "wv", "wv2", "_complex")

    def __init__(self, law):
        nodes, panel_w = quadrature_nodes()
        self.values = np.asarray(law.transform(nodes), dtype=float)
        self.weights = 2.0 * law.angular_density * panel_w
        self.mass = law.zero_mass
        self.wv = self.weights * self.values
        self.wv2 = self.wv * self.values
        self.mean = float(self.wv.sum())
        self._complex = None

    def as_complex(self):
        """These atoms with values, weights, wv and wv2 cast to complex.

        numpy has no real x complex loop: it casts the real operand to
        (w, 0.0) on every call. Complex solves multiply by these copies,
        cast once per law, and get the same bits.
        """
        if self._complex is None:
            twin = object.__new__(_LawAtoms)
            twin.mass, twin.mean, twin._complex = self.mass, self.mean, None
            for name in ("values", "weights", "wv", "wv2"):
                setattr(twin, name, getattr(self, name).astype(complex))
            self._complex = twin
        return self._complex


def _fixed_point_map(atoms_d, atoms_t, g, gb, x):
    """F(x) = g(x) - x at each point of the vector x, where gb = gamma beta;
    also returns the reciprocals (ra, rb) of the two atom sums, from which
    _map_slope forms g'(x). Points are rows of (points x atoms) arrays
    summed along the atom axis, so each row is computed alone."""
    ra = np.reciprocal(1.0 + (gb * x)[:, None] * atoms_d.values)
    e1 = np.add.reduce(atoms_d.wv * ra, axis=1)
    rb = np.reciprocal(1.0 + (g * e1)[:, None] * atoms_t.values)
    return np.add.reduce(atoms_t.wv * rb, axis=1) - x, ra, rb


def _map_slope(atoms_d, atoms_t, ggb, ra, rb):
    """g'(x) at each point from the reciprocals of _fixed_point_map, where
    ggb = gamma^2 beta."""
    return ggb * np.add.reduce(atoms_t.wv2 * rb * rb, axis=1) \
        * np.add.reduce(atoms_d.wv2 * ra * ra, axis=1)


def _solve_e2(atoms_d, atoms_t, beta, gamma, warm=None):
    """Solve E2 = g(E2) at each point of a vector of gamma; returns arrays
    (e2, iterations) over the points.

    Each point takes damped Picard steps until the relative residual of g
    is below 1e-2 (at most _PICARD_WARMUP of them), then Newton steps on
    F(x) = g(x) - x, with g'(x) from the same atom sums as g. A point is
    done after its first Newton step no longer than _TOLERANCE * |E2|, and
    its stepped iterate is returned. Each evaluation of g counts as one
    iteration of its point.

    A single gamma (eta_transform's, a chain link, the sqrt probe, a
    one-point rescue) is solved by _solve_one, which also brackets real
    gamma > 0. A vector of gamma, always complex from the density sweep,
    is solved here: points are the rows of (points x atoms) arrays, summed
    along the atom axis only, and each has its own Newton switch and stale
    counter, so a point's answer does not depend on the other points.
    Converged rows leave the arrays. A failure names the index of its
    point in ConvergenceFailure.point.
    """
    gamma = np.atleast_1d(gamma) * 1.0
    if warm is None:        # paper-style initialization E1 = 1
        x = np.add.reduce(
            atoms_t.wv / (1.0 + gamma[:, None] * atoms_t.values), axis=1)
    else:
        x = warm + np.zeros(len(gamma), gamma.dtype)
    if np.iscomplexobj(x):
        atoms_d, atoms_t = atoms_d.as_complex(), atoms_t.as_complex()
    gb, ggb = gamma * beta, gamma * gamma * beta
    if len(x) == 1:
        return _solve_one(atoms_d, atoms_t, gamma, gb, ggb, x)
    e2, its = np.empty_like(x), np.zeros(len(x), dtype=int)
    point, g = np.arange(len(x)), gamma
    newton, all_newton = np.zeros(len(x), dtype=bool), False
    best, stale = np.full(len(x), np.inf), np.zeros(len(x), dtype=int)
    # the loop tests masks with np.count_nonzero, a few times cheaper than
    # .any() on arrays this small
    for it in range(1, _MAX_ITERS + 1):
        f, ra, rb = _fixed_point_map(atoms_d, atoms_t, g, gb, x)
        residual = np.abs(f)
        if not all_newton:
            newton |= (it > _PICARD_WARMUP) \
                | (residual <= 1e-2 * np.maximum(np.abs(f + x), np.abs(x)))
            all_newton = np.count_nonzero(newton) == len(x)
        step = _DAMPING * f
        if all_newton or np.count_nonzero(newton):
            slope = _map_slope(atoms_d, atoms_t, ggb, ra, rb)
            usable = slope != 1.0
            np.divide(f, 1.0 - slope, out=step,
                      where=usable if all_newton else newton & usable)
        x = x + step
        # stale counts a Newton point's steps since its residual last fell
        better = residual < best
        if all_newton:
            best = np.where(better, residual, best)
            stale = np.where(better, 0, stale + 1)
            done = np.abs(step) <= _TOLERANCE * np.abs(x)
        else:
            best = np.where(newton & better, residual, best)
            stale = np.where(better, 0, stale + newton)
            done = newton & (np.abs(step) <= _TOLERANCE * np.abs(x))
        finished = np.count_nonzero(done)
        if finished == len(x):
            e2[point], its[point] = x, it
            return e2, its
        if finished:
            e2[point[done]], its[point[done]] = x[done], it
            keep = ~done
            point, x, g, gb, ggb, newton, best, stale, residual = (
                v[keep] for v in (point, x, g, gb, ggb, newton, best, stale,
                                  residual))
        # stale grows by at most one per iteration, so no point can reach
        # the window before this iteration number
        if it >= _DIVERGENCE_WINDOW \
                and np.count_nonzero(stale >= _DIVERGENCE_WINDOW):
            k = np.argmax(stale)
            raise ConvergenceFailure(
                f"fixed point diverging at gamma={gamma[point[k]]}",
                residual=residual[k], point=point[k])
    raise ConvergenceFailure(
        f"fixed point not converged after {_MAX_ITERS} iterations "
        f"at gamma={gamma[point[0]]}", residual=residual[0], point=point[0])


def _solve_one(atoms_d, atoms_t, gamma, gb, ggb, x):
    """_solve_e2 at one point: gamma, gamma beta, gamma^2 beta and the
    start x are arrays of one entry. The map, slope and step are
    _solve_e2's on a one-row array, so an unbracketed point's answer is
    bit-identical to that row of a batch; the Newton switch, best
    residual, stale counter and stop test are Python scalars. Failures
    raise as in _solve_e2, with point 0.

    For real gamma > 0 the positive root is the physical one: F(0) > 0 >
    F(x) for every x >= E[T], so the start is clamped into (0, E[T]) (a
    cold start lies inside, but can round to E[T] at gamma near 0), the
    bracket (lo, hi) shrinks to the sign change at each evaluation, and a
    step leaving it is replaced by bisection.
    """
    bracketed = gamma[0].imag == 0 and gamma[0].real > 0
    lo, hi = 0.0, atoms_t.mean
    if bracketed and not lo < x[0].real < hi:
        x = np.full_like(x, 0.5 * (lo + hi))
    newton, best, stale = False, np.inf, 0
    for it in range(1, _MAX_ITERS + 1):
        f, ra, rb = _fixed_point_map(atoms_d, atoms_t, gamma, gb, x)
        residual = abs(f[0])
        if bracketed:
            lo, hi = (x[0].real, hi) if f[0].real > 0 else (lo, x[0].real)
        if not newton:
            newton = it > _PICARD_WARMUP or residual <= 1e-2 * max(
                abs(f[0] + x[0]), abs(x[0]))
        if newton:
            slope = _map_slope(atoms_d, atoms_t, ggb, ra, rb)
            step = f / (1.0 - slope) if slope[0] != 1.0 else _DAMPING * f
        else:
            step = _DAMPING * f
        if bracketed and not lo < (x[0] + step[0]).real < hi:
            step = 0.5 * (lo + hi) - x
        x = x + step
        if newton:
            if residual < best:
                best, stale = residual, 0
            else:
                stale += 1
            if abs(step[0]) <= _TOLERANCE * abs(x[0]):
                return x, np.array([it])
            if stale >= _DIVERGENCE_WINDOW:
                raise ConvergenceFailure(
                    f"fixed point diverging at gamma={gamma[0]}",
                    residual=residual, point=0)
    raise ConvergenceFailure(
        f"fixed point not converged after {_MAX_ITERS} iterations "
        f"at gamma={gamma[0]}", residual=residual, point=0)


def _eta_given_e2(atoms_d, beta, gamma, e2):
    if np.iscomplexobj(e2):
        atoms_d = atoms_d.as_complex()
    return atoms_d.mass + np.add.reduce(atoms_d.weights / (
        1.0 + (gamma * beta * e2)[:, None] * atoms_d.values), axis=1)


def eta_transform(law_d, law_t, beta, gamma):
    """eta(gamma) = E[1/(1 + gamma beta D E2*)] for the laws of D and T.

    Accepts real or complex gamma; real nonnegative gamma keeps the whole
    computation in real arithmetic. eta(0) = 1 identically.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    if gamma == 0:
        return 1.0
    atoms_d = _LawAtoms(law_d)
    atoms_t = _LawAtoms(law_t)
    gamma = np.atleast_1d(gamma)
    e2, _ = _solve_e2(atoms_d, atoms_t, beta, gamma)
    return _eta_given_e2(atoms_d, beta, gamma, e2)[0]


@dataclass(frozen=True)
class EigenPdf:
    """Asymptotic eigenvalue density: point mass at zero plus a sampled
    continuous part on a positive lambda grid.

    ``density`` is the continuous density of the full empirical spectral
    distribution (its integral tends to beta/xi; zero_mass accounts for the
    rest). On the self-selected adaptive grid, zero_mass + integral = 1
    within 1e-2. ``nu`` is the imaginary offset used for the inversion; the
    known point mass smeared by nu is subtracted exactly before clamping.
    Negative densities are clamped to zero; ``clamped_points`` counts the
    grid points whose density stayed below minus its evaluation-error
    budget, ``rescued_points`` those re-solved from conj(E2) after falling
    below it, and ``solver_iterations`` every fixed-point iteration of the
    sweep, rescues included.
    """

    zero_mass: float
    lambda_grid: np.ndarray
    density: np.ndarray
    beta: float
    xi: float
    nu: float
    law: str = ""
    clamped_points: int = 0
    solver_iterations: int = 0
    rescued_points: int = 0

    def continuous_mass(self):
        return float(np.trapezoid(self.density, self.lambda_grid))

    def total_mass(self):
        return self.zero_mass + self.continuous_mass()

    def first_moment(self):
        return float(np.trapezoid(self.density * self.lambda_grid,
                                  self.lambda_grid))

    def cdf_nonzero(self):
        """Grid CDF of the nonzero-eigenvalue (continuous) part, normalized."""
        seg = 0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.lambda_grid)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        if total <= 0:
            raise InputError("density integrates to zero; no continuous part")
        return cum / total

    def lambda_plus(self, rel_threshold=1e-6):
        """Largest grid lambda where the density exceeds rel_threshold times
        its maximum."""
        peak = self.density.max()
        if peak <= 0:
            raise InputError("density is identically zero on the grid")
        above = np.nonzero(self.density > rel_threshold * peak)[0]
        return float(self.lambda_grid[above[-1]])


def _density_points(atoms_d, atoms_t, beta, zero_mass, lam, nu, warm=None):
    """Densities of the continuous part at the points lam, smoothed by nu.

    Solves the fixed point at gamma = -1/(lam + i nu) for all points at
    once, forms S(z) and Im S/pi minus the point mass at zero smeared by
    nu. A density's evaluation-error budget is max(1e-12, tolerance
    |S|/pi): an E2 within the relative tolerance moves Im S/pi that much,
    which near zero (|S| ~ zero_mass/|lambda + i nu|) far exceeds 1e-12. A
    density below minus its budget is taken to mark the nonphysical root,
    so those points are re-solved together from conj(E2), logged in one
    DEBUG line, and keep the larger density. Returns arrays (density, e2,
    budget, iterations, rescued); the density is not clamped.
    """
    def solve(lam, start):
        gamma = -1.0 / (lam + 1j * nu)
        try:
            e2, its = _solve_e2(atoms_d, atoms_t, beta, gamma, warm=start)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"inversion failed at lambda={lam[exc.point]:g}",
                residual=exc.residual) from exc
        s = gamma * _eta_given_e2(atoms_d, beta, gamma, e2)
        smear = zero_mass * nu / (np.pi * (lam * lam + nu * nu))
        budget = np.maximum(1e-12, _TOLERANCE * np.abs(s) / np.pi)
        return s.imag / np.pi - smear, e2, budget, its

    f, e2, budget, its = solve(lam, warm)
    rescued = f < -budget
    if np.count_nonzero(rescued):
        f_b, e2_b, budget_b, its_b = solve(lam[rescued], np.conj(e2[rescued]))
        _log.debug("nu=%g: densities %s at lambda=%s, re-solved from "
                   "conj(E2): %s", nu, f[rescued], lam[rescued], f_b)
        its[rescued] += its_b
        win = f_b > f[rescued]
        better = np.flatnonzero(rescued)[win]
        f[better], e2[better], budget[better] = f_b[win], e2_b[win], budget_b[win]
    return f, e2, budget, its, rescued


_CHAIN_STRIDE = 8       # grid points per link of the warm-started chain
_BATCH_LINKS = 4        # links walked per batched solve: <= 28 points between


def _power_law(at, x0, x1, e0, e1):
    """E2 at log lambda ``at`` on the power of lambda through E2 = e0 at log
    lambda x0 and E2 = e1 at x1 (log E2 linear in log lambda)."""
    return e0 * (e1 / e0) ** ((at - x0) / (x1 - x0))


def _sweep(atoms_d, atoms_t, beta, zero_mass, grid, nu, stop=None):
    """Densities over an increasing grid, walked from the largest lambda down.

    Every 8th point and both ends form a chain solved one link at a time;
    each link starts from E2 extrapolated as a power of lambda through the
    two links above it (the first two from a cold start and from the
    first). The chain is what keeps the sweep on the physical root. After
    every 4 links below the top, the at most 28 points between them are
    solved as one batch, each started from the chain's E2 interpolated the
    same way between the links around it. A point's answer depends only on
    the grid and nu, not on its batch.

    After each batch ``stop`` (if given) is called with the densities
    solved so far, the top slice of the grid, and the walk ends when it
    returns true. Returns (unclamped densities of the solved top slice,
    iterations, rescues, points of the slice whose density stayed below
    minus its budget).
    """
    n = len(grid)
    density, budget = np.empty(n), np.empty(n)
    e2 = np.empty(n, dtype=complex)
    iters = rescued = 0

    def solve(idx, start):
        nonlocal iters, rescued
        density[idx], e2[idx], budget[idx], its, resc = _density_points(
            atoms_d, atoms_t, beta, zero_mass, grid[idx], nu, start)
        iters += int(its.sum())
        rescued += int(resc.sum())

    log = np.log(grid)
    chain = np.unique(np.append(np.arange(0, n, _CHAIN_STRIDE), n - 1))
    rest = np.setdiff1d(np.arange(n), chain)
    pos = np.searchsorted(chain, rest)
    lower, upper = chain[pos - 1], chain[pos]
    down = chain[::-1]
    warm, top, end = None, n - 1, len(rest)
    for i, k in enumerate(down):
        solve(slice(k, k + 1), warm)
        if 0 < i < len(down) - 1:
            above = down[i - 1]
            warm = _power_law(log[down[i + 1]], log[above], log[k],
                              e2[above], e2[k])
        else:
            warm = e2[k]
        if i == 0 or (i % _BATCH_LINKS and k > 0):
            continue        # batch after every 4th link and after the last
        b = slice(np.searchsorted(rest, k), end)
        if b.start < b.stop:
            lo, up = lower[b], upper[b]
            solve(rest[b], _power_law(log[rest[b]], log[lo], log[up],
                                      e2[lo], e2[up]))
        top, end = k, b.start
        if stop is not None and stop(density[k:]):
            break
    clamped = int(np.count_nonzero(density[top:] < -budget[top:]))
    return density[top:], iters, rescued, clamped


def _tail_kept(grid, dens, beta, scale):
    """Mask of the points of an increasing grid whose tail, the density
    above them, holds at most 1e-4 beta of the mass and 1e-3 scale of the
    first moment; a suffix of the grid, since the tails only grow downward
    and each depends only on the densities above its point."""
    dens = np.maximum(dens, 0.0)
    seg_mass = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
    seg_mom = 0.5 * (dens[1:] * grid[1:] + dens[:-1] * grid[:-1]) * np.diff(grid)
    tail_mass = np.concatenate([np.cumsum(seg_mass[::-1])[::-1], [0.0]])
    tail_mom = np.concatenate([np.cumsum(seg_mom[::-1])[::-1], [0.0]])
    return (tail_mass <= 1e-4 * beta) & (tail_mom <= 1e-3 * scale)


def _support_reaches_zero(atoms_d, atoms_t, beta):
    """P(D != 0)/beta <= P(T != 0): the nonzero-eigenvalue support has no
    gap above zero (beta = 1 for identical laws). Atoms of value 0 count
    with the point mass."""
    return atoms_d.weights[atoms_d.values > 0].sum() / beta \
        <= atoms_t.weights[atoms_t.values > 0].sum()


def _default_grid(atoms_d, atoms_t, beta, zero_mass, points):
    """Adaptive log-spaced grid plus a nu override.

    A coarse sweep walks down from above the support and stops at the
    first batch whose lowest point already carries more tail than the
    budgets allow, so the upper end keeps enough of the thin right tail
    that both the truncated mass and the truncated first moment are
    negligible; the rest of the coarse grid is never solved. Only when the
    support reaches zero (beta = 1 style laws) does a cold-started fine-nu
    probe at the lower end measure the coefficient A of a possible
    A/sqrt(lambda) divergence, the conj(E2) rescue picking the physical
    root; if present, the lower limit is pushed down until the untabulated
    mass 2 A sqrt(lo) is negligible and nu is capped so the Cauchy
    smoothing does not displace the divergence's mass out of the grid.
    Returns (grid, nu_override-or-None).
    """
    scale = beta * atoms_d.mean * atoms_t.mean
    lo = 1e-8 * scale
    hi0 = 16.0 * atoms_d.values.max() * atoms_t.values.max()
    coarse = np.geomspace(lo, max(hi0, lo * 1e6), 144)
    nu_c = 1e-4 * np.median(coarse)

    def cut_found(dens):
        return not _tail_kept(coarse[-len(dens):], dens, beta, scale)[0]

    dens = _sweep(atoms_d, atoms_t, beta, zero_mass, coarse, nu_c,
                  stop=cut_found)[0]
    top = coarse[-len(dens):]
    hi = 1.3 * top[int(np.argmax(_tail_kept(top, dens, beta, scale)))]

    nu_override = None
    if _support_reaches_zero(atoms_d, atoms_t, beta):
        f_probe = _density_points(atoms_d, atoms_t, beta, zero_mass,
                                  coarse[:1], 1e-3 * coarse[0])[0][0]
        sqrt_coeff = max(f_probe, 0.0) * np.sqrt(coarse[0])
        if 2.0 * sqrt_coeff * np.sqrt(lo) > 1e-3 * beta:
            lo = max((5e-4 * beta / sqrt_coeff) ** 2, 1e-13 * scale)
            nu_override = min(1e-4 * np.sqrt(lo * hi),
                              (1e-3 * beta / sqrt_coeff) ** 2)
    return np.geomspace(lo, hi, points), nu_override


def support_lower_edge(law_d, law_t, beta, xi=1.0):
    """Lower edge of the nonzero-eigenvalue support of the limiting law.

    Outside the support the fixed point has a real solution, and the edges
    are the folds of its real inverse map (Silverstein & Choi 1995). With
    u = gamma E2 and v = gamma E1 it reads u psi(u) = phi(v) at lambda =
    -psi(u)/v, where psi(u) = E[D/(1 + beta D u)], phi(v) = E[vT/(1 + vT)].
    In w = -1/v < min T, phi = E[T/(T - w)] increases, so each u has one
    root w(u); lambda(u) = w(u) psi(u) rises through 0 at u0 psi(u0) =
    P(T != 0), then falls back to 0, and the edge is its maximum. The sign
    of dlambda/du is bracketed by doubling or halving u and bisected in
    log u to 1e-9, where lambda is flat to rounding. Atoms of value 0 count
    with the point mass. Returns 0.0 when the support reaches zero, i.e.
    P(D != 0)/beta <= P(T != 0) (beta = 1 for identical laws). ``xi`` is
    not read. Raises ConvergenceFailure if a root is not found.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    atoms_d = _LawAtoms(law_d)
    atoms_t = _LawAtoms(law_t)
    if _support_reaches_zero(atoms_d, atoms_t, beta):
        return 0.0
    pos = atoms_t.values > 0
    t, wt = atoms_t.values[pos], atoms_t.wv[pos]
    w = 0.0

    def fold(u):
        # Newton for w(u) on the bracket (-inf, min T), bisecting steps that
        # leave it; dlambda/du = w' psi + w psi', w' = (u psi)'/phi'(w)
        nonlocal w
        a = 1.0 + beta * atoms_d.values * u
        psi = (atoms_d.wv / a).sum()
        lo, hi = -np.inf, t.min()
        for _ in range(100):
            q = wt / (t - w)
            f, slope = q.sum() - u * psi, (q / (t - w)).sum()
            lo, hi = (lo, w) if f > 0 else (w, hi)
            # converged once f is within the rounding of w or of the sums
            if abs(f) <= 8.0 * np.finfo(float).eps * (abs(w) * slope + u * psi):
                return ((atoms_d.wv / (a * a)).sum() * psi
                        > w * beta * (atoms_d.wv2 / (a * a)).sum() * slope,
                        w * psi)
            w = w - f / slope if lo < w - f / slope < hi else 0.5 * (lo + hi)
        raise ConvergenceFailure(f"no real root at u={u:g}", residual=abs(f))

    lo, hi, u = 0.0, np.inf, 1.0 / (beta * atoms_d.mean)
    while hi > lo * (1.0 + 1e-9):
        if fold(u)[0]:
            lo = u
        else:
            hi = u
        u = 2.0 * u if hi == np.inf else 0.5 * u if lo == 0 else np.sqrt(lo * hi)
    return float(fold(np.sqrt(lo * hi))[1])


def eigen_pdf(law_d, law_t, beta, xi=None, grid=None, nu=None, points=512):
    """Asymptotic eigenvalue pdf of the renormalized sample autocorrelation.

    Parameters
    ----------
    law_d, law_t : SpectralLaw
        Limiting spectral laws of the two dependence-inducing Gram matrices
        (identical for the models used here).
    beta : float
        Aspect ratio K/N of the analyzed submatrix, in (0, 1].
    xi : float, optional
        Resampling factor (1 for genuine fields); sets the point mass at
        zero through the zero-eigenvalue fraction. When omitted it is the
        factor both laws carry (``SpectralLaw.xi``).
    grid : array, optional
        Increasing positive lambda grid. When omitted an adaptive log-spaced
        grid of ``points`` entries is selected to cover the full support.
    nu : float, optional
        Imaginary offset for the Stieltjes inversion; defaults to
        1e-4 times the median grid lambda.
    points : int
        Size of the default grid, from 2 to MAX_POINTS = 2**20.

    The sweep walks the grid from the largest lambda down: a chain of
    every 8th point, each link warm started from the links above it, and
    after every 4 links the points between them in one batch started from
    the chain. The default grid is calibrated by the same walk over a
    coarse grid, stopped once it reaches below the tail cut that sets the
    grid's upper end; a cold-started probe for an A/sqrt(lambda)
    divergence at zero, which sets the lower end and the nu override, runs
    only where the support reaches zero. Each point's answer depends only
    on the grid and nu, so a call with a given grid and nu reproduces the
    density of the call that chose them.

    Raises InputError for a beta outside (0, 1], a non-finite or
    nonpositive nu, a grid that is not finite, increasing and positive,
    fewer than 2 or more than 2**20 points, or an omitted xi with laws
    that carry different factors. The bound on points keeps a call near a
    minute and its per-point arrays near 16 MiB: past the calibration each
    point costs about 0.04-0.07 ms of solving (8 192 points take
    0.3-0.55 s, 512 points 20-55 ms, on a 2-core x86 box shared with
    other load), and the complex E2 of 2**20 points takes 16 MiB. The
    figures use the default 512.

    EigenPdf's budgets (zero_mass + integral = 1 within 1e-2, first moment
    = beta E[D] E[T] within 1 %) were measured to hold for beta from 0.05
    to 1, over MP and the genuine and upscaled laws of rho 0.9, 0.97 and
    0.98 (all four kernels at 3/2 and 2/1). Below 0.05 the first moment misses its
    budget (by 13 % at beta 0.04, 41 % at 0.003), and the continuous part
    vanishes at beta 1e-5 for MP, 1e-6 for linear 3/2 and 1e-8 for
    genuine rho 0.97, while the total mass, mostly zero_mass = 1 - beta/xi,
    still meets its budget.
    Raises ConvergenceFailure (annotated with the offending lambda) if
    some grid point cannot be solved.
    """
    if nu is not None:
        check_range("nu", nu, 0, low_open=True)
    if grid is None:
        check_range("points", points, 2, MAX_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or not np.all(np.isfinite(grid)) \
                or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
            raise InputError(
                "grid must be finite, increasing and strictly positive")
    if xi is None:
        if law_d.xi != law_t.xi:
            raise InputError(f"the laws carry different factors, xi = "
                             f"{law_d.xi} and {law_t.xi}; pass xi")
        xi = law_d.xi
    zero_mass = afze(beta, xi)  # checks beta
    atoms_d = _LawAtoms(law_d)
    atoms_t = _LawAtoms(law_t)
    nu_override = None
    if grid is None:
        grid, nu_override = _default_grid(atoms_d, atoms_t, beta, zero_mass,
                                          points)
    if nu is None:
        nu = nu_override if nu_override is not None \
            else 1e-4 * float(np.median(grid))

    density, iters, rescued, clamped = _sweep(
        atoms_d, atoms_t, beta, zero_mass, grid, nu)
    return EigenPdf(zero_mass=zero_mass, lambda_grid=grid,
                    density=np.maximum(density, 0.0),
                    beta=beta, xi=xi, nu=nu,
                    law=f"D~{law_d.descriptor} T~{law_t.descriptor} beta={beta}",
                    clamped_points=clamped, solver_iterations=iters,
                    rescued_points=rescued)
