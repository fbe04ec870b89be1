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

Solver notes: the solver's settings are module constants, not parameters.
Each point is iterated with damped steps until its relative residual falls
below 1e-2 (at most 60 of them) and then finished by Newton steps on
F(E2) = g(E2) - E2, whose derivative comes from the same quadrature sums
as g. A point stops at its first Newton step within the fixed tolerance
1e-6 of |E2|, returning the stepped iterate, or at its first Newton
iterate whose residual is within the map's own rounding of |E2|
((n_D + n_T) eps/2 for two sums over n_D and n_T atoms), returning that
iterate, after at most 10 000 iterations. Where Newton converges
quadratically (away from support edges) the E2 error is thus far below the
tolerance; this matters near zero, where |S| ~ zero_mass/|lambda + i nu|
amplifies it. The points are rows of (points x atoms) arrays summed along
the atom axis, so a point's answer does not depend on the other points or
on BLAS. The solver has two paths over one map and slope
(_fixed_point_map, _map_slope), picked by the number of points. A single
gamma (eta_transform's, every chain link, the sqrt probe, a one-point
rescue) keeps its Newton switch, stall counter and stop test in Python
scalars; for real gamma > 0, which only eta_transform solves, its iterates
also stay inside a bracket around the positive root, the physical one. A
vector of gamma, always complex (the density sweep's batches and rescues),
keeps them in per-point masks. Both do the same arithmetic on one-row
arrays and take magnitudes as libm's hypot (_modulus), so a point's bits
do not depend on the path. Each also returns d log E2 / d log gamma from
the sums of the last map evaluation (_log_tangent), which costs no atom
sum of its own.
_density_points is the one place that solves at points lambda + i nu,
forms S and the density and picks the root: a density below minus its
evaluation-error budget (the E2 tolerance, or the map's rounding where
that is larger, times |S|/pi, at least 1e-12) marks
the nonphysical root and the point is re-solved from conj(E2) (logged at
DEBUG on this module's logger and counted in EigenPdf.rescued_points).
A density sweep walks its grid from the largest lambda down. Every 16th
grid point, the top and the points 1, 2, 4 and 8 below it form a chain,
the chain being what keeps the sweep on the physical root; it is solved
first, one link at a time. Each link is warm started from the quadratic
in (log lambda, log E2) through the two links above it with the lower
one's tangent (numerical continuation's tangent predictor; the second
link from the top link's E2). The points between the links are then
solved in batches of 64, each started from the cubic Hermite interpolant
of log E2 between its two links. A predicted start that is not finite or
lies more than 0.5 in |log| from the power-law start (log E2 linear in
log lambda through the same links) falls back to it. The default grid
runs from 1e-8 beta E[D] E[T] to 1.02 times the upper support edge.
Where the support reaches zero (P(D != 0)/beta <= P(T != 0)) a
cold-started fine-nu solve at the grid's lower end probes for an
A/sqrt(lambda) divergence, the conj(E2) rescue picking the physical
root; where the support has a gap there is no divergence and no probe.

Both support edges read no density: they are the folds of the fixed
point's real inverse map (_fold_edge), from the same atom sums.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InputError, check_count, check_range
from .spectra import afze

_log = logging.getLogger(__name__)

_QUAD_ORDER = 32        # Gauss-Legendre nodes per quadrature panel
_QUAD_PANELS = 4        # panels on (0, pi): 128 atoms per law
_QUAD_GRADING = 3.0     # panel edges pi (k/panels)^3, dense near omega = 0
_TOLERANCE = 1e-6       # last Newton step relative to |E2|
_MAX_ITERS = 10000      # fixed-point iterations per point
_PICARD_WARMUP = 60     # most damped steps before the switch to Newton
_DAMPING = 0.5          # Picard step size before the switch to Newton
_DIVERGENCE_WINDOW = 50  # Newton steps without a smaller residual
MAX_POINTS = 2 ** 20    # largest default grid of eigen_pdf (see there)


def quadrature_nodes():
    """Graded composite Gauss-Legendre nodes and weights on (0, pi).

    4 panels of 32 nodes whose edges are graded toward 0 as
    pi (k/panels)^3, where the AR spectrum peaks; the law's symmetry around
    pi supplies the other half interval. Densities on these 128 atoms match
    a 4 096-atom solve (128 panels) to within 1.5e-9 of the peak, and lower
    support edges to 1.1e-15 relative, over MP, the genuine and upscaled
    laws of rho 0.9 and 0.97 at beta 0.25-1 and three of rho 0.99 at beta
    0.5 (58 laws). 8 panels of 16 nodes reach 5.5e-9, 96-atom rules 2.3e-8
    or worse.
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
    also returns the first atom sum e1 = E1 at x and the reciprocals
    (ra, rb) of the two atom sums, from which _map_slope forms g'(x).
    Points are rows of (points x atoms) arrays summed along the atom axis,
    so each row is computed alone."""
    ra = np.reciprocal(1.0 + (gb * x)[:, None] * atoms_d.values)
    e1 = np.add.reduce(atoms_d.wv * ra, axis=1)
    rb = np.reciprocal(1.0 + (g * e1)[:, None] * atoms_t.values)
    return np.add.reduce(atoms_t.wv * rb, axis=1) - x, e1, ra, rb


def _map_slope(atoms_d, atoms_t, ggb, ra, rb):
    """g'(x) = gamma^2 beta A B at each point from the reciprocals of
    _fixed_point_map, where ggb = gamma^2 beta, A = sum(wv2_T rb^2) and
    B = sum(wv2_D ra^2); also returns A, which _log_tangent reads."""
    a = np.add.reduce(atoms_t.wv2 * rb * rb, axis=1)
    return ggb * a * np.add.reduce(atoms_d.wv2 * ra * ra, axis=1), a


def _log_tangent(g, x, e1, slope, a):
    """d log E2 / d log gamma at each point from the sums of the map's
    evaluation at x. Differentiating E2 = g(E2, gamma) gives dE2/dgamma =
    -A (e1 - gamma beta E2 B) / (1 - g'), and gamma beta E2 A B is
    g' E2 / gamma, so the tangent costs no atom sum of its own."""
    return (slope - g * a * e1 / x) / (1.0 - slope)


def _solve_e2(atoms_d, atoms_t, beta, gamma, warm=None):
    """Solve E2 = g(E2) at each point of a vector of gamma; returns arrays
    (e2, iterations, tangent) over the points, the tangent being
    d log E2 / d log gamma (_log_tangent) from the sums of the last map
    evaluation.

    Each point takes damped Picard steps until the relative residual of g
    is below 1e-2 (at most _PICARD_WARMUP of them), then Newton steps on
    F(x) = g(x) - x, with g'(x) from the same atom sums as g. A point is
    done after its first Newton step no longer than _TOLERANCE * |E2|,
    and its stepped iterate is returned, or at its first Newton iterate x
    whose residual |F(x)| is within the map's own rounding of |x| (below),
    and x is returned. Each evaluation of g counts as one iteration of its
    point.

    The map's rounding: g is two sums over the atoms of D and of T, and a
    sum of n terms may be off by n units of roundoff (eps/2) relative to
    them, so F(x) cannot be told from zero once |F(x)| <= (n_D + n_T) eps/2
    |x|, 2.8e-14 |x| at 128 atoms per law. Without this stop a tolerance
    below rounding would leave a point at its root until the divergence
    window ran out.

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
    rounding = _map_rounding(atoms_d, atoms_t)
    if len(x) == 1:
        return _solve_one(atoms_d, atoms_t, gamma, gb, ggb, x, rounding)
    e2, its = np.empty_like(x), np.zeros(len(x), dtype=int)
    tangent = np.empty_like(x)
    point, g = np.arange(len(x)), gamma
    newton, all_newton = np.zeros(len(x), dtype=bool), False
    best, stale = np.full(len(x), np.inf), np.zeros(len(x), dtype=int)
    # the loop tests masks with np.count_nonzero, a few times cheaper than
    # .any() on arrays this small
    for it in range(1, _MAX_ITERS + 1):
        f, e1, ra, rb = _fixed_point_map(atoms_d, atoms_t, g, gb, x)
        residual, size = _modulus(f), _modulus(x)
        if not all_newton:
            newton |= (it > _PICARD_WARMUP) \
                | (residual <= 1e-2 * np.maximum(_modulus(f + x), size))
            all_newton = np.count_nonzero(newton) == len(x)
        step = _DAMPING * f
        if all_newton or np.count_nonzero(newton):
            slope, a = _map_slope(atoms_d, atoms_t, ggb, ra, rb)
            usable = slope != 1.0
            np.divide(f, 1.0 - slope, out=step,
                      where=usable if all_newton else newton & usable)
        new = x + step
        # stale counts a Newton point's steps since its residual last fell
        better = residual < best
        stepped = _modulus(step) <= _TOLERANCE * _modulus(new)
        done = stepped | (residual <= rounding * size)
        if all_newton:
            best = np.where(better, residual, best)
            stale = np.where(better, 0, stale + 1)
        else:
            best = np.where(newton & better, residual, best)
            stale = np.where(better, 0, stale + newton)
            done &= newton
        finished = np.count_nonzero(done)
        if finished == len(x):
            e2[point], its[point] = np.where(stepped, new, x), it
            tangent[point] = _log_tangent(g, x, e1, slope, a)
            return e2, its, tangent
        if finished:
            at = point[done]
            e2[at], its[at] = np.where(stepped, new, x)[done], it
            tangent[at] = _log_tangent(g, x, e1, slope, a)[done]
            keep = ~done
            point, x, g, gb, ggb, newton, best, stale, residual = (
                v[keep] for v in (point, new, g, gb, ggb, newton, best,
                                  stale, residual))
        else:
            x = new
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


def _map_rounding(atoms_d, atoms_t):
    """(n_D + n_T) eps/2, the fixed-point map's rounding relative to |E2|."""
    return 0.5 * np.finfo(float).eps \
        * (atoms_d.values.size + atoms_t.values.size)


def _modulus(z):
    """|z| elementwise, as the libm hypot that Python's abs applies to one
    complex scalar. numpy's vectorized complex absolute differs from it in
    the last ulp on about a third of inputs; measured this way, a batch row
    and _solve_one take their Newton switch and stop test on the same bits.
    """
    return np.hypot(z.real, z.imag)


def _solve_one(atoms_d, atoms_t, gamma, gb, ggb, x, rounding):
    """_solve_e2 at one point: gamma, gamma beta, gamma^2 beta and the
    start x are arrays of one entry, ``rounding`` the map's relative
    rounding. The map, slope, step and tangent are _solve_e2's on a
    one-row array, so an unbracketed point's answer is bit-identical to
    that row of a batch; the Newton switch, best residual, stale counter
    and stop test are Python scalars. Failures raise as in _solve_e2, with
    point 0.

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
        f, e1, ra, rb = _fixed_point_map(atoms_d, atoms_t, gamma, gb, x)
        residual = abs(f[0])
        if bracketed:
            lo, hi = (x[0].real, hi) if f[0].real > 0 else (lo, x[0].real)
        if not newton:
            newton = it > _PICARD_WARMUP or residual <= 1e-2 * max(
                abs(f[0] + x[0]), abs(x[0]))
        if newton:
            slope, a = _map_slope(atoms_d, atoms_t, ggb, ra, rb)
            step = f / (1.0 - slope) if slope[0] != 1.0 else _DAMPING * f
        else:
            step = _DAMPING * f
        if bracketed and not lo < (x[0] + step[0]).real < hi:
            step = 0.5 * (lo + hi) - x
        new = x + step
        if newton:
            if residual < best:
                best, stale = residual, 0
            else:
                stale += 1
            stepped = abs(step[0]) <= _TOLERANCE * abs(new[0])
            if stepped or residual <= rounding * abs(x[0]):
                return (new if stepped else x), np.array([it]), \
                    _log_tangent(gamma, x, e1, slope, a)
            if stale >= _DIVERGENCE_WINDOW:
                raise ConvergenceFailure(
                    f"fixed point diverging at gamma={gamma[0]}",
                    residual=residual, point=0)
        x = new
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
    e2 = _solve_e2(atoms_d, atoms_t, beta, gamma)[0]
    return _eta_given_e2(atoms_d, beta, gamma, e2)[0]


@dataclass(frozen=True)
class EigenPdf:
    """Asymptotic eigenvalue density: point mass at zero plus a sampled
    continuous part on a positive lambda grid.

    ``density`` is the continuous density of the full empirical spectral
    distribution (its integral tends to beta/xi; zero_mass accounts for the
    rest). On the default grid, which ends at 1.02 times the upper support
    edge, zero_mass + integral = 1 within 1e-2 (eigen_pdf states the betas
    where this was measured). ``nu`` is the imaginary offset used for the
    inversion; the known point mass smeared by nu is subtracted exactly
    before clamping.
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
    nu. A density's evaluation-error budget is max(1e-12, max(tolerance,
    rounding) |S|/pi), the rounding being the map's (n_D + n_T) eps/2: an
    E2 within the relative tolerance, or within the map's rounding where
    the tolerance lies below it, moves Im S/pi that much, which near zero
    (|S| ~ zero_mass/|lambda + i nu|) far exceeds 1e-12. A density below
    minus its budget is taken to mark the nonphysical root, so those
    points are re-solved together from conj(E2), logged in one DEBUG
    line, and keep the larger density. Returns arrays (density, e2,
    budget, iterations, rescued, tangent); the density is not clamped, and
    the tangent d log E2 / d log lambda, lambda gamma times the solver's
    d log E2 / d log gamma, is that of the solve a point keeps.
    """
    rounding = _map_rounding(atoms_d, atoms_t)

    def solve(lam, start):
        gamma = -1.0 / (lam + 1j * nu)
        try:
            e2, its, tangent = _solve_e2(atoms_d, atoms_t, beta, gamma,
                                         warm=start)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"inversion failed at lambda={lam[exc.point]:g}",
                residual=exc.residual) from exc
        s = gamma * _eta_given_e2(atoms_d, beta, gamma, e2)
        smear = zero_mass * nu / (np.pi * (lam * lam + nu * nu))
        budget = np.maximum(1e-12, max(_TOLERANCE, rounding) * np.abs(s)
                            / np.pi)
        return s.imag / np.pi - smear, e2, budget, its, lam * gamma * tangent

    f, e2, budget, its, tangent = solve(lam, warm)
    rescued = f < -budget
    if np.count_nonzero(rescued):
        f_b, e2_b, budget_b, its_b, tangent_b = solve(lam[rescued],
                                                      np.conj(e2[rescued]))
        _log.debug("nu=%g: densities %s at lambda=%s, re-solved from "
                   "conj(E2): %s", nu, f[rescued], lam[rescued], f_b)
        its[rescued] += its_b
        win = f_b > f[rescued]
        better = np.flatnonzero(rescued)[win]
        f[better], e2[better], budget[better], tangent[better] = (
            f_b[win], e2_b[win], budget_b[win], tangent_b[win])
    return f, e2, budget, its, rescued, tangent


_CHAIN_STRIDE = 16      # grid points per link of the warm-started chain
_TOP_LINKS = (1, 2, 4, 8)  # points below the top that are links too
_BATCH_POINTS = 64      # points between the links solved per batch
_START_GUARD = 0.5      # largest |log(predicted / power-law start)| taken


def _predicted(e0, du, power):
    """The start e0 exp(du) predicted from tangents, or the power-law start
    e0 exp(power) (log E2 linear in log lambda through the same links)
    where du is not finite or lies more than _START_GUARD from power, that
    is where the two starts differ by more than a factor e^0.5 in modulus
    and phase together: a tangent is far off where E2 turns sharply."""
    return e0 * np.exp(np.where(np.abs(du - power) <= _START_GUARD, du, power))


def _link_start(at, xk, ek, tk, xa, ea):
    """Start of the chain link at log lambda ``at`` below the link solved
    at (xk, ek), whose tangent d log E2 / d log lambda is tk: the quadratic
    in (log lambda, log E2) through that link with that tangent and
    through the link above it, (xa, ea), guarded by the power law through
    the two links."""
    h, d = at - xk, xa - xk
    chord = np.log(ea / ek) / d
    return _predicted(ek, (tk + (chord - tk) / d * h) * h, chord * h)


def _hermite_start(at, x0, x1, e0, e1, t0, t1):
    """Starts at log lambda ``at`` between links at x0 < x1: the cubic
    Hermite interpolant of log E2 in log lambda through (x0, log e0) and
    (x1, log e1) with tangents t0 and t1, guarded by the power law through
    the two links."""
    h = x1 - x0
    t = (at - x0) / h
    rise = np.log(e1 / e0)
    du = t * (1.0 - t) * ((1.0 - t) * t0 - t * t1) * h \
        + t * t * (3.0 - 2.0 * t) * rise
    return _predicted(e0, du, t * rise)


def _sweep(atoms_d, atoms_t, beta, zero_mass, grid, nu):
    """Densities over an increasing grid, walked from the largest lambda down.

    Every _CHAIN_STRIDE-th point, the top and the points _TOP_LINKS below
    it (clipped at 0 on small grids) form a chain, solved first, one link
    at a time from the top down; it is what keeps the sweep on the
    physical root. Each solve also yields the tangent d log E2 / d log
    lambda at its point (_density_points), so each link starts from the
    quadratic in (log lambda, log E2) through the two links above it with
    the lower one's tangent (_link_start). The second link starts from
    the top link's E2: the top lies above the support, and its tangent
    line, extrapolated across the upper support edge, lands on the root
    with no density there more often. The links 1, 2, 4 and 8 points
    below the top walk down into the support in short steps, where E2
    turns sharply (without them, 11 of a 2 688-call scan of laws and betas
    miss the first-moment budget, with them 4, each at the link just below
    the top). Then the points between the links are solved in batches of
    _BATCH_POINTS, each started from the cubic Hermite interpolant of log
    E2 between the links around it (_hermite_start). A predicted start
    that is not finite or lies more than _START_GUARD in |log| from the
    power-law start (log E2 linear in log lambda through the same two
    links) falls back to it. A point's answer depends only on the grid and
    nu, not on its batch.

    Returns (unclamped densities, iterations, rescues, points whose
    density stayed below minus its budget).
    """
    n = len(grid)
    density, budget = np.empty(n), np.empty(n)
    e2, tangent = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    iters = rescued = 0

    def solve(idx, start):
        nonlocal iters, rescued
        density[idx], e2[idx], budget[idx], its, resc, tangent[idx] = \
            _density_points(atoms_d, atoms_t, beta, zero_mass, grid[idx], nu,
                            start)
        iters += int(its.sum())
        rescued += int(resc.sum())

    log = np.log(grid)
    top = np.maximum(n - 1 - np.array((0,) + _TOP_LINKS), 0)
    chain = np.unique(np.append(np.arange(0, n, _CHAIN_STRIDE), top))
    down, warm = chain[::-1], None
    for i, k in enumerate(down):
        solve(slice(k, k + 1), warm)
        if i == 0:
            warm = e2[k]
        elif k > 0:
            above = down[i - 1]
            warm = _link_start(log[down[i + 1]], log[k], e2[k], tangent[k],
                               log[above], e2[above])
    rest = np.setdiff1d(np.arange(n), chain)[::-1]
    pos = np.searchsorted(chain, rest)
    lower, upper = chain[pos - 1], chain[pos]
    start = _hermite_start(log[rest], log[lower], log[upper], e2[lower],
                           e2[upper], tangent[lower], tangent[upper])
    for b in range(0, len(rest), _BATCH_POINTS):
        solve(rest[b:b + _BATCH_POINTS], start[b:b + _BATCH_POINTS])
    clamped = int(np.count_nonzero(density < -budget))
    return density, iters, rescued, clamped


def _support_reaches_zero(atoms_d, atoms_t, beta):
    """P(D != 0)/beta <= P(T != 0): the nonzero-eigenvalue support has no
    gap above zero (beta = 1 for identical laws). Atoms of value 0 count
    with the point mass."""
    return atoms_d.weights[atoms_d.values > 0].sum() / beta \
        <= atoms_t.weights[atoms_t.values > 0].sum()


def _default_grid(atoms_d, atoms_t, beta, zero_mass, points):
    """Log-spaced grid up to 1.02 times the upper support edge, plus a nu
    override.

    The upper edge is the fold of _fold_edge, so the top link lies just
    above the support and the density there is the smoothed tail of nu
    alone. The lower end is 1e-8 beta E[D] E[T]. Only when the support
    reaches zero (beta = 1 style laws) does a cold-started fine-nu probe
    at the lower end measure the coefficient A of a possible
    A/sqrt(lambda) divergence, the conj(E2) rescue picking the physical
    root; if present, the lower limit is pushed down until the untabulated
    mass 2 A sqrt(lo) is negligible and nu is capped so the Cauchy
    smoothing does not displace the divergence's mass out of the grid.
    Returns (grid, nu_override-or-None).
    """
    scale = beta * atoms_d.mean * atoms_t.mean
    lo = 1e-8 * scale
    hi = 1.02 * _fold_edge(atoms_d, atoms_t, beta, upper=True)
    nu_override = None
    if _support_reaches_zero(atoms_d, atoms_t, beta):
        f_probe = _density_points(atoms_d, atoms_t, beta, zero_mass,
                                  np.array([lo]), 1e-3 * lo)[0][0]
        sqrt_coeff = max(f_probe, 0.0) * np.sqrt(lo)
        if 2.0 * sqrt_coeff * np.sqrt(lo) > 1e-3 * beta:
            lo = max((5e-4 * beta / sqrt_coeff) ** 2, 1e-13 * scale)
            nu_override = min(1e-4 * np.sqrt(lo * hi),
                              (1e-3 * beta / sqrt_coeff) ** 2)
    return np.geomspace(lo, hi, points), nu_override


def _fold_edge(atoms_d, atoms_t, beta, upper):
    """An edge of the nonzero-eigenvalue support as a fold of the fixed
    point's real inverse map (Silverstein & Choi 1995).

    Outside the support the fixed point has a real solution. With u =
    gamma E2 and v = gamma E1 it reads u psi(u) = phi(v) at lambda =
    -psi(u)/v, where psi(u) = E[D/(1 + beta D u)], phi(v) = E[vT/(1 + vT)].
    In w = -1/v, phi = E[T/(T - w)] increases on each branch off the atoms
    of T, so each u has one root w(u) there, and lambda(u) = w(u) psi(u).
    The lower edge is the maximum of lambda on w < min T, u > 0 (lambda
    rises through 0 at u psi(u) = P(T != 0), then falls back to 0); the
    upper edge is the minimum on w > max T, u in (-1/(beta max D), 0)
    (lambda falls from infinity at u -> 0 and climbs back at the pole of
    psi). In s = u or s = -u the sign of dlambda/du is bracketed by
    doubling or halving s and bisected in log s to 1e-9, where lambda is
    flat to rounding. Raises ConvergenceFailure if a root w is not found.
    """
    pos = atoms_t.values > 0
    t, wt = atoms_t.values[pos], atoms_t.wv[pos]
    if upper:
        sign, branch, w = -1.0, (t.max(), np.inf), 2.0 * t.max()
        hi = 1.0 / (beta * atoms_d.values.max())
        s = 0.5 * hi
    else:
        sign, branch, w = 1.0, (-np.inf, t.min()), 0.0
        hi, s = np.inf, 1.0 / (beta * atoms_d.mean)

    def fold(u):
        # Newton for w(u) on the branch, bisecting steps that leave it;
        # dlambda/du = w' psi + w psi', w' = (u psi)'/phi'(w)
        nonlocal w
        a = 1.0 + beta * atoms_d.values * u
        psi = (atoms_d.wv / a).sum()
        lo, hi = branch
        for _ in range(100):
            q = wt / (t - w)
            f, slope = q.sum() - u * psi, (q / (t - w)).sum()
            lo, hi = (lo, w) if f > 0 else (w, hi)
            # converged once f is within the rounding of w or of the sums
            if abs(f) <= 8.0 * np.finfo(float).eps * (
                    abs(w) * slope + abs(u) * psi):
                return ((atoms_d.wv / (a * a)).sum() * psi
                        > w * beta * (atoms_d.wv2 / (a * a)).sum() * slope,
                        w * psi)
            w = w - f / slope if lo < w - f / slope < hi else 0.5 * (lo + hi)
        raise ConvergenceFailure(f"no real root at u={u:g}", residual=abs(f))

    lo = 0.0
    while hi > lo * (1.0 + 1e-9):
        if fold(sign * s)[0]:
            lo = s
        else:
            hi = s
        s = 2.0 * s if hi == np.inf else 0.5 * s if lo == 0 \
            else np.sqrt(lo * hi)
    return float(fold(sign * np.sqrt(lo * hi))[1])


def support_lower_edge(law_d, law_t, beta, xi=1.0):
    """Lower edge of the nonzero-eigenvalue support of the limiting law.

    The edge is the fold of the fixed point's real inverse map, the
    maximum of lambda(u) = w(u) psi(u) on u > 0 (_fold_edge), found from
    the same atom sums as the densities. Atoms of value 0 count with the
    point mass. Returns 0.0 when the support reaches zero, i.e.
    P(D != 0)/beta <= P(T != 0) (beta = 1 for identical laws). ``xi`` is
    not read. Raises ConvergenceFailure if a root is not found.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    atoms_d = _LawAtoms(law_d)
    atoms_t = _LawAtoms(law_t)
    if _support_reaches_zero(atoms_d, atoms_t, beta):
        return 0.0
    return _fold_edge(atoms_d, atoms_t, beta, upper=False)


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
        Increasing positive lambda grid. When omitted a log-spaced grid of
        ``points`` entries runs from 1e-8 beta E[D] E[T] to 1.02 times the
        upper support edge.
    nu : float, optional
        Imaginary offset for the Stieltjes inversion; defaults to
        1e-4 times the median grid lambda.
    points : int
        Size of the default grid, from 2 to MAX_POINTS = 2**20.

    The sweep walks the grid from the largest lambda down: first a chain
    of every 16th point and of the points 1, 2, 4 and 8 below the top,
    each link warm started from E2 predicted with the tangent d log E2 /
    d log lambda of the link above it, then the points between the links
    in batches of 64, each started from the cubic Hermite interpolant
    between its links. The default grid's top is 1.02 times the upper
    support edge, a fold of the fixed point's real inverse map that reads
    no density; a cold-started probe for an A/sqrt(lambda) divergence at
    zero, which sets the lower end and the nu override, runs only where
    the support reaches zero. Each point's answer depends only on the
    grid and nu, so a call with a given grid and nu reproduces the density
    of the call that chose them.

    Raises InputError for a beta outside (0, 1], a non-finite or
    nonpositive nu, a grid that is not finite, increasing and positive,
    fewer than 2 or more than 2**20 points, or an omitted xi with laws
    that carry different factors. The bound on points keeps a call near a
    minute and its per-point arrays near 16 MiB: each point costs about
    0.011-0.02 ms of solving over the 128 atoms (whole calls of 8 192
    points take 0.09-0.17 s, of 512 points 14-22 ms, over genuine and
    upscaled laws of rho 0.97 at beta 0.5 on a 2-core x86 box shared with
    other load), and the complex E2 of 2**20 points takes 16 MiB. The
    figures use the default 512.

    EigenPdf's budgets (zero_mass + integral = 1 within 1e-2, first moment
    = beta E[D] E[T] within 1 %) were measured over MP and the genuine and
    upscaled laws of rho 0.9, 0.97 and 0.98 (all four kernels at 3/2 and
    2/1). They hold at beta 0.05, 0.125, 0.25, 0.5 and 1, but not at every
    beta between: on a 0.01 step from 0.05 to 1, 4 of 2 688 calls miss the
    first moment by 1.1-2.9 % (each at the chain link just below the top,
    inside the support, which lands on a root with almost no density:
    4e-16 where a start from the point below it gives 1.3e-8, or 4e-14
    against 9e-7), and b-spline laws of rho 0.97 and 0.98 lose 1-3.3 % of
    the mass at beta 0.82-0.99. Below 0.05 the first moment misses its
    budget (by 4.5 % at beta 0.003 for genuine rho 0.97, 5.4 % at 0.01 for
    b-spline 2/1), the continuous part vanishes at beta 1e-5 for MP, and
    it is off by +91 % at 1e-6 for linear 3/2 and +570 % at 1e-8 for
    genuine rho 0.97, while the total mass, mostly zero_mass = 1 - beta/xi,
    still meets its budget.
    Raises ConvergenceFailure (annotated with the offending lambda) if
    some grid point cannot be solved.
    """
    if nu is not None:
        check_range("nu", nu, 0, low_open=True)
    if grid is None:
        check_count("points", points, 2, MAX_POINTS)
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
