"""Numerical eta-transform, Stieltjes transform and eigenvalue densities.

The eta-transform of the renormalized sample autocorrelation of B = C S A
solves a two-variable fixed point in the expectations

    E1 = E[ D / (1 + gamma beta D E2) ],   E2 = E[ T / (1 + gamma T E1) ],

where D and T are drawn from the limiting spectral laws of C C^T and
A A^T. After convergence eta(gamma) = E[ 1 / (1 + gamma beta D E2*) ],
which the fixed point gives as 1 - gamma beta E1 E2* exactly.
The laws are SpectralLaw values (rho and, after upscaling, the
ResampleSpec); this module reads only what they derive from those: the
transform, angular density, zero mass, xi and descriptor. Expectations
reduce to angular quadrature against the laws' transforms plus the
explicit point-mass branch. The Stieltjes transform follows from
S(-1/gamma) = gamma eta(gamma), and evaluating it just above the real axis
recovers the eigenvalue density.

Solver notes: the solver's settings are module constants, not parameters.
Every point takes Newton steps on F(E2) = g(E2) - E2 from its start,
whose derivative comes from the same quadrature sums as g. Each law's
side of the map is summed over its atoms of nonzero value in h = 1/(c +
1/v): sum(w h) for the map and sum((w h) h) for its slope, so an
evaluation is one broadcast add, one reciprocal, two products and two
sums per side over the (points x atoms) arrays. eta comes from the same
evaluation, with no pass of its own: over the atoms, exactly,
eta = mass + sum(w) - gamma beta E2 E1, and E1 at the returned E2 is E1
at the last iterate moved along its first two derivatives (one more
product and sum, sum(w h^3)); a first-order move is off by up to 1.3e-10
of the peak at a grid floor. A start is
predicted (the sqrt probe's from the physical root's leading term),
conj(E2) (a rescue), or cold: the paper-style E1 = 1 value, which only
eta_transform's solves (real gamma >= 0) and a density sweep's top link
(and a second link with no edge near) take, all outside the support. A
point stops at its first Newton step within the fixed tolerance 1e-6 of
|E2|, returning the stepped iterate, or at its first Newton iterate whose
residual is within the map's own rounding of |E2| ((n_D + n_T) eps/2 for
two sums over n_D and n_T atoms), returning that iterate. A point that
has not stopped after 100 Newton steps fails (the most any solve of the
budget scan or of an eta_transform sweep takes is 29). A chain link's
loose walk (below) stops at its first Newton step within 1e-2 instead.
Where Newton converges quadratically (away from support edges) the E2
error is thus far below the tolerance; this matters near zero, where
|S| ~ zero_mass/|lambda + i nu| amplifies it. The points are rows of
(points x atoms) arrays summed along the atom axis, so a point's answer
does not depend on the other points or on BLAS. Every solve enters
_solve_e2, and the solver has two paths over one map and slope
(_fixed_point_map). A scalar gamma that is real
(eta_transform's) or walked loose (each chain link) is solved in Python
scalars (_solve_one): its start, iterates, stop test and tangent are
scalars, and numpy does only the atom operations of each evaluation, so
a chain link does not pay numpy's per-call cost on one-row arrays, and a
loose walk forms no eta. For
real gamma > 0, which only eta_transform solves, its iterates also stay
inside a bracket around the positive root, the physical one. Every other
gamma (the density sweep's batches, the sqrt probe, a rescue) is solved
as a vector with its stop test in per-point masks, so a point solved to
the tolerance has the same bits in any batch. Both paths take magnitudes
as libm's hypot (_modulus); Python's complex multiply and divide round
differently from numpy's array loops in the last ulp on some inputs, so
a link's loose E2, which is only a start, can differ in its last bits
from a batch row's. Complex solves add and multiply complex copies of
the atoms' 1/v and w, cast once per law, and a complex batch writes
every evaluation into the same four (points x atoms) work arrays, kept
per thread and grown on demand (_work_arrays): at 128 points each is
past glibc's 128 KiB mmap threshold, so arrays allocated at each
evaluation would be faulted in again every time. Each
path also returns d log E2 / d log gamma from the sums of the last map
evaluation (_log_tangent), which costs no atom sum of its own.
_density_points is
the one place that solves at points lambda + i nu, forms S and the
density and picks the root: a density below minus its evaluation-error
budget (the E2 tolerance, or the map's rounding where that is larger,
times |S|/pi, at least 1e-12) marks the nonphysical root and the point is
re-solved from conj(E2) (logged at DEBUG on this module's logger and
counted in EigenPdf.rescued_points). A density sweep always walks the
512-point default grid, with the points of the requested grid merged in,
from the largest lambda down to the requested grid's first point, and
reads the densities back at the requested points: every walk enters the
support from above it, the physical root being the one that continues
from outside the support. A grid that reaches the default grid's top in
steps no longer than its own (a default grid of 512 or more points) is
walked alone. Every 16th point of the walk, the top and the
points 1, 2, 4 and 8 below it form a chain, which keeps the sweep on the
physical root. The sweep has three stages. Every link, one at a time from
the top down, is walked only until its Newton step is within 1e-2 of
|E2|, which keeps it in the physical root's basin; it keeps its E2 and
tangent for the next link's start and forms no density. The top link,
above the support, starts cold. The links are then corrected to the
tolerance in batches of 128 from their loose E2, like every batch
point, with the conj(E2) rescue. Last the points at stride 4 between the
links, then the remaining points, are solved in batches of 128 (a
512-point sweep in 5 batches). Every start but
the top link's is predicted from the points solved around it (numerical
continuation's tangent predictor). Both ends of the support are folds
where E2 has a square-root branch point, so a point within a factor 2 of
an edge (the upper one first) is predicted in s = sqrt(+-(z - lambda_e)),
z = lambda + i nu, where E2 is analytic: a link from the quadratic in s
through the fold's own E2 and the E2 and tangent of the link above it,
any other point from the cubic Hermite interpolant in s between the
solved points on both sides (the corrected links for the stride-4 points,
those and the links for the rest). Elsewhere a link starts from the
quadratic in (log lambda, log E2) through the two links above it with the
lower one's tangent, any other point from the cubic Hermite interpolant
of log E2 between the solved points on both sides. A prediction that is
not finite or lies more than 0.5 in |log E2| from the chord through the
same two points falls back to the chord. The default grid runs to 1.02
times the upper support edge, from 0.98 times the lower one where the
support has a gap above zero; one of other than 512 points spans the same
ends. The default nu is 1e-4 times the grid's first point, default or
given: 1/250 to 1/600 of the smallest step on the figures' 512-point
grids, but closer to it on a narrow support (1/70 for MP at beta 0.5,
1/19 at 0.05, about the step at 1e-5). Where the support reaches zero
(P(D != 0)/beta <= P(T != 0)) the grid starts at 1e-8 beta E[D] E[T], and
a solve there, at that end's nu and started on the physical root's -i
sqrt(lambda) branch, probes for an A/sqrt(lambda) divergence, which
extends the grid down; where the support has a gap there is no divergence
and no probe.

Both support edges read no density: they are the folds of the fixed
point's real inverse map (_fold_edge), found by Newton steps from the same
atom sums, and each gives E2 at the edge as well.

What depends only on a law or on a sweep's length is built once: a law's
atoms per quadrature rule (_law_atoms, shared by equal laws), the order
of a sweep per number of points (_walk_plan).
"""

import copy
import functools
import logging
import threading
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InputError, check_count, check_range
from .spectra import afze

_log = logging.getLogger(__name__)

_QUAD_ORDER = 32        # Gauss-Legendre nodes per quadrature panel
_QUAD_PANELS = 4        # panels on (0, pi): 128 atoms per law
_QUAD_GRADING = 3.0     # panel edges pi (k/panels)^3, dense near omega = 0
_TOLERANCE = 1e-6       # last Newton step relative to |E2|
_MAX_ITERS = 100        # Newton steps per point
_LOOSE = 1e-2           # relative Newton step ending a chain link's walk
_FOLD_STEP = 1e-6       # relative Newton step ending a fold's search
MAX_POINTS = 2 ** 20    # largest default grid of eigen_pdf (see there)
_WALK_POINTS = 512      # the default grid every density sweep walks
_EPS = np.finfo(float).eps


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
    return _quadrature(*_rule())


def _rule():
    """The quadrature rule in force: (order, panels, grading)."""
    return _QUAD_ORDER, _QUAD_PANELS, _QUAD_GRADING


@functools.cache
def _quadrature(order, panels, grading):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.pi * (np.arange(panels + 1) / panels) ** grading
    a, b = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    return nodes, weights


class _LawAtoms:
    """A law reduced to quadrature atoms: values, weights and zero mass.

    Weights fold in the angular density and the symmetric doubling, so
    sum(weights) + mass = 1 and E[g] = mass * g(0) + sum(weights * g(values));
    ``total`` is mass + sum(weights) as summed, eta's value at gamma = 0.
    ``wv`` is the weights times the values. The fixed-point map reads the
    atoms of nonzero value only: ``inv`` holds their reciprocal values and
    ``wpos`` their weights, so E[V/(1 + c V)] = sum(wpos h) with h = 1/(c
    + inv), and atoms of value 0 drop out. ``positive`` holds the values
    and wv of those atoms, ``nonzero`` their probability P(value != 0) and
    ``harmonic`` the harmonic mean of their values (the folds read these).
    The arrays are read-only: _law_atoms shares one object among all
    callers of a law.
    """

    __slots__ = ("values", "weights", "mass", "mean", "total", "wv", "inv",
                 "wpos", "positive", "nonzero", "harmonic", "_complex")

    def __init__(self, law):
        nodes, panel_w = quadrature_nodes()
        self.values = np.asarray(law.transform(nodes), dtype=float)
        self.weights = 2.0 * law.angular_density * panel_w
        self.mass = law.zero_mass
        self.total = self.mass + float(self.weights.sum())
        self.wv = self.weights * self.values
        self.mean = float(self.wv.sum())
        pos = self.values > 0
        self.positive = self.values[pos], self.wv[pos]
        self.inv, self.wpos = 1.0 / self.positive[0], self.weights[pos]
        self.nonzero = float(self.wpos.sum())
        self.harmonic = self.nonzero / float(
            (self.positive[1] / self.positive[0] ** 2).sum())
        self._complex = None
        _freeze(self.values, self.weights, self.wv, self.inv, self.wpos,
                *self.positive)

    def as_complex(self):
        """These atoms with inv and wpos cast to complex.

        numpy has no real x complex loop: it casts the real operand to
        (w, 0.0) on every call. Complex solves add and multiply these
        copies, cast once per law, and get the same bits.
        """
        if self._complex is None:
            twin = copy.copy(self)
            twin.inv, twin.wpos = (self.inv.astype(complex),
                                   self.wpos.astype(complex))
            _freeze(twin.inv, twin.wpos)
            self._complex = twin
        return self._complex


def _freeze(*arrays):
    """Mark the arrays read-only."""
    for a in arrays:
        a.flags.writeable = False


_ATOMS_KEPT = 16        # laws whose atoms _law_atoms keeps


def _law_atoms(law):
    """The atoms of ``law`` under the quadrature rule in force, built once
    per law and rule: equal laws, such as a call's D and T, share one
    read-only _LawAtoms, kept for the last _ATOMS_KEPT (law, rule) pairs.
    A law that does not hash (a stand-in holding the three fields the
    atoms read) gets atoms of its own."""
    if not isinstance(law, Hashable):
        return _LawAtoms(law)
    return _atoms_of(law, _rule())


@functools.lru_cache(maxsize=_ATOMS_KEPT)
def _atoms_of(law, rule):
    return _LawAtoms(law)


def _column(v):
    """A vector of points as a column against the atom axis, a scalar as
    it is: v times an atom array is then (points x atoms) or (atoms,)."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _side(atoms, c, h=None, wh=None):
    """A law's side of the map at a scalar c or at each point of a vector
    c: sum(w h) = E[V/(1 + c V)] with h = 1/(c + 1/v) over the atoms of
    nonzero value, and the arrays (w h, h), written into the arrays h and
    wh where given (_work_arrays) and else into new ones.

    numpy gives each operand it broadcasts an iterator buffer of up to
    8 192 elements, 128 KiB for complex, so given arrays are filled with
    1/v first and c added in place: one such buffer at a time, not two."""
    if h is None:
        h = _column(c) + atoms.inv
    else:
        np.copyto(h, atoms.inv)
        h += _column(c)
    np.reciprocal(h, out=h)
    wh = np.multiply(atoms.wpos, h, out=wh)
    return np.add.reduce(wh, axis=-1), wh, h


def _fixed_point_map(atoms_d, atoms_t, g, gb, ggb, x, work=(None,) * 4):
    """F(x) = g(x) - x at a scalar x, or at each point of a vector x, where
    gb = gamma beta and ggb = gamma^2 beta, with its slope g'(x) = ggb A B
    from the same arrays (_side): A = sum(w_T h_T^2), B = sum(w_D h_D^2).
    Returns (F, E1 at x, g'(x), A, (B, w_D h_D^2, h_D)); _log_tangent reads
    A, _eta the last three. A vector's points are rows of (points x atoms)
    arrays summed along the atom axis, so each row is computed alone, by
    the same loops over the atoms as a scalar point. ``work`` holds the
    arrays (h_D, w_D h_D, h_T, w_T h_T) to write into (_work_arrays), or
    Nones for new ones."""
    e1, whd, hd = _side(atoms_d, gb * x, *work[:2])
    gx, wht, ht = _side(atoms_t, g * e1, *work[2:])
    wht *= ht
    whd *= hd
    a, b = np.add.reduce(wht, axis=-1), np.add.reduce(whd, axis=-1)
    return gx - x, e1, ggb * a * b, a, (b, whd, hd)


def _eta(atoms_d, gb, e2, e1, step, b, whh, h):
    """eta = E[1/(1 + c D)] at the returned E2, c = gamma beta E2, from
    the sums of the map's evaluation at x = E2 - step (the last three
    values of _fixed_point_map): over the atoms eta = mass + sum(w) - c E1
    exactly, and E1 at E2 is E1 - gb step B + (gb step)^2 C + O(step^3),
    with B = sum(w h^2) and C = sum(w h^3), since dh/dx = -gb h^2. The
    second-order term matters: without it the grid floor of b-spline 2/1,
    rho 0.97, beta 1 moves by 1.3e-10 of the peak. whh becomes w h^3."""
    c = np.add.reduce(np.multiply(whh, h, out=whh), axis=-1)
    return atoms_d.total - gb * e2 * (e1 + gb * step * (gb * step * c - b))


def _log_tangent(g, x, e1, slope, a):
    """d log E2 / d log gamma at each point from the sums of the map's
    evaluation at x. Differentiating E2 = g(E2, gamma) gives dE2/dgamma =
    -A (e1 - gamma beta E2 B) / (1 - g'), and gamma beta E2 A B is
    g' E2 / gamma, so the tangent costs no atom sum of its own."""
    return (slope - g * a * e1 / x) / (1.0 - slope)


def _solve_e2(atoms_d, atoms_t, beta, gamma, warm=None, loose=False):
    """Solve E2 = g(E2) at a gamma or at each point of a vector of gamma;
    returns (e2, iterations, tangent, eta), the tangent being d log E2 /
    d log gamma (_log_tangent) and eta = E[1/(1 + gamma beta D E2)] at the
    returned E2 (_eta), both from the sums of the last map evaluation. A
    loose solve returns eta None: its E2 is only a start.

    ``warm`` gives each point its start E2. Every point takes Newton steps
    on F(x) = g(x) - x from its start, with g'(x) from the same atom sums
    as g (predictor-corrector continuation corrects a predicted point with
    Newton directly). Only a single gamma may omit its start (a cold
    start: eta_transform's real gamma, a sweep's top link, both outside
    the support): it starts from the paper-style E1 = 1 value. A cold
    complex start inside the support has no root selector and can settle
    on the nonphysical root; the sweep's walk from above the support and
    the conj(E2) rescue select the physical one. A
    point is done after its first Newton step no longer than _TOLERANCE *
    |E2|, and its stepped iterate is returned, or at its first iterate x
    whose residual |F(x)| is within the map's own rounding of |x| (below),
    and x is returned. ``loose`` puts _LOOSE in place of _TOLERANCE: a
    chain link's walk needs E2 only close enough to stay in the physical
    root's basin, and is corrected to _TOLERANCE later (_sweep). Each
    evaluation of g counts as one iteration of its point.

    The map's rounding: g is two sums over the atoms of D and of T, and a
    sum of n terms may be off by n units of roundoff (eps/2) relative to
    them, so F(x) cannot be told from zero once |F(x)| <= (n_D + n_T) eps/2
    |x|, 2.8e-14 |x| at 128 atoms per law. Without this stop a tolerance
    below rounding would leave a point at its root until the iteration
    cap ran out.

    Every step is the Newton step F(x) / (1 - g'(x)), with no damping and
    no watch on the residual: a point that has not stopped after
    _MAX_ITERS (100) steps raises ConvergenceFailure with its last
    residual. The most any solve of the budget scan or of an
    eta_transform sweep takes is 29 (test_rmt's TestIterationCap).

    Every solve enters here, and the form of gamma picks the path. A
    scalar gamma that is real (eta_transform's) or solved loose (a chain
    link's walk) is solved by _solve_one in Python scalars, which returns
    scalars and brackets real gamma > 0. Any other gamma, a vector or a
    complex scalar at the full tolerance (the density sweep's batches,
    the sqrt probe, a rescue), is solved here as a vector (a scalar as one
    point) and gives arrays over its points: points are the rows of
    (points x atoms) arrays, summed along the atom axis only, and each has
    its own stop test, so a point's answer does not depend on the other
    points. Converged rows leave the arrays. A failure names the index of
    its point in ConvergenceFailure.point. A vector of more than one gamma
    without starts raises ValueError.
    """
    if not isinstance(gamma, np.ndarray) and (
            loose or not isinstance(gamma, complex)):
        return _solve_one(atoms_d, atoms_t, beta, gamma, warm, loose)
    tolerance = _LOOSE if loose else _TOLERANCE
    gamma = np.atleast_1d(gamma) * 1.0
    if warm is None:
        if len(gamma) != 1:
            raise ValueError("a vector of gamma needs its starts")
        x = _side(atoms_t, gamma)[0]  # E[T/(1 + gamma T)]: E1 = 1
    else:
        x = warm + np.zeros(len(gamma), gamma.dtype)
    work = (None,) * 4  # a real vector's arrays are new at each evaluation
    if np.iscomplexobj(x):
        atoms_d, atoms_t = atoms_d.as_complex(), atoms_t.as_complex()
        work = _work_arrays(len(x), atoms_d, atoms_t)
    gb, ggb = gamma * beta, gamma * gamma * beta
    rounding = _map_rounding(atoms_d, atoms_t)
    e2, tangent, eta = np.empty((3, len(x)), x.dtype)
    point, g, its = np.arange(len(x)), gamma, np.zeros(len(x), dtype=int)
    # the loop tests masks with np.count_nonzero, a few times cheaper than
    # .any() on arrays this small
    for it in range(1, _MAX_ITERS + 1):
        f, e1, slope, a, terms = _fixed_point_map(atoms_d, atoms_t, g, gb,
                                                  ggb, x, work)
        residual = _modulus(f)
        step = f / (1.0 - slope)
        new = x + step
        stepped = _modulus(step) <= tolerance * _modulus(new)
        done = stepped | (residual <= rounding * _modulus(x))
        finished = np.count_nonzero(done)
        if finished:
            # eta of every row (two more atom operations), kept where done
            got, rows = np.where(stepped, new, x), point[done]
            e2[rows], its[rows] = got[done], it
            tangent[rows] = _log_tangent(g, x, e1, slope, a)[done]
            eta[rows] = _eta(atoms_d, gb, got, e1,
                             np.where(stepped, step, 0.0), *terms)[done]
            if finished == len(x):
                return e2, its, tangent, eta
            keep = ~done
            point, x, g, gb, ggb, residual = (
                v[keep] for v in (point, new, g, gb, ggb, residual))
            # the rows left are the first rows of the same buffers
            work = [w if w is None else w[:len(x)] for w in work]
        else:
            x = new
    raise ConvergenceFailure(
        f"fixed point not converged after {_MAX_ITERS} iterations "
        f"at gamma={gamma[point[0]]}", residual=residual[0], point=point[0])


_WORK = threading.local()  # per thread: the batch loop's work buffers


def _work_arrays(rows, atoms_d, atoms_t):
    """The batch loop's four complex work arrays (h_D, w_D h_D, h_T, w_T
    h_T), each (rows x atoms of nonzero value), as contiguous views of
    flat buffers that each thread keeps and grows on demand, so a row is
    summed as in a new array. A batch of 128 points over 128 atoms makes
    each array 256 KiB, past glibc's 128 KiB mmap threshold: arrays
    allocated at every evaluation would be mapped and faulted in again
    each time. These outlive the solve (1 MiB at that size); each thread
    has its own, so concurrent solves do not share them."""
    held = getattr(_WORK, "buffers", None)
    if held is None:
        held = _WORK.buffers = [np.empty(0, complex) for _ in range(4)]
    views = []
    for i, n in enumerate((atoms_d.inv.size,) * 2 + (atoms_t.inv.size,) * 2):
        if held[i].size < rows * n:
            held[i] = np.empty(rows * n, complex)
        views.append(held[i][:rows * n].reshape(rows, n))
    return views


def _map_rounding(atoms_d, atoms_t):
    """(n_D + n_T) eps/2, the fixed-point map's rounding relative to |E2|."""
    return 0.5 * _EPS * (atoms_d.values.size + atoms_t.values.size)


def _modulus(z):
    """|z| elementwise, as the libm hypot that Python's abs applies to one
    complex scalar. numpy's vectorized complex absolute differs from it in
    the last ulp on about a third of inputs; measured this way, a batch row
    and _solve_one stop by the same rule.
    """
    return np.hypot(z.real, z.imag)


def _solve_one(atoms_d, atoms_t, beta, gamma, x, loose):
    """_solve_e2 at one scalar gamma from the scalar start x (None for a
    cold start), to _LOOSE if ``loose`` (a chain link's walk) and else to
    _TOLERANCE. The start, iterates, stop test and tangent are scalars,
    and numpy does only the atom operations of each evaluation
    (_fixed_point_map, the batch loop's map and slope on one point): a
    chain link's walk does not pay numpy's per-call cost on one-row arrays.
    Returns (e2, iterations, tangent, eta) as scalars, eta None if
    ``loose``. Failures raise as in _solve_e2, with point 0.

    Python's complex multiply and divide round differently from numpy's
    array loops in the last ulp on some inputs, so a complex point solved
    here may differ from that row of a batch in its last bits; _solve_e2
    sends a complex gamma here only for a loose walk, whose E2 is a start.

    For real gamma > 0 the positive root is the physical one: F(0) > 0 >
    F(x) for every x >= E[T], so the start is clamped into (0, E[T]) (a
    cold start lies inside, but can round to E[T] at gamma near 0), the
    bracket (lo, hi) shrinks to the sign change at each evaluation, and a
    step leaving it is replaced by bisection.
    """
    if x is None:
        x = _side(atoms_t, gamma)[0]  # E[T/(1 + gamma T)]: E1 = 1
    if isinstance(x, complex) or isinstance(gamma, complex):
        atoms_d, atoms_t = atoms_d.as_complex(), atoms_t.as_complex()
    bracketed = not isinstance(gamma, complex) and gamma > 0
    lo, hi = 0.0, atoms_t.mean
    if bracketed and not lo < x.real < hi:
        x = 0.5 * (lo + hi)
    gb, ggb = gamma * beta, gamma * gamma * beta
    rounding = _map_rounding(atoms_d, atoms_t)
    tolerance = _LOOSE if loose else _TOLERANCE
    for it in range(1, _MAX_ITERS + 1):
        f, e1, slope, a, terms = _fixed_point_map(atoms_d, atoms_t, gamma,
                                                  gb, ggb, x)
        residual = abs(f)
        if bracketed:
            lo, hi = (x.real, hi) if f.real > 0 else (lo, x.real)
        step = f / (1.0 - slope)
        if bracketed and not lo < (x + step).real < hi:
            step = 0.5 * (lo + hi) - x
        new = x + step
        stepped = abs(step) <= tolerance * abs(new)
        if stepped or residual <= rounding * abs(x):
            new, step = (new, step) if stepped else (x, 0.0)
            return new, it, _log_tangent(gamma, x, e1, slope, a), \
                None if loose else _eta(atoms_d, gb, new, e1, step, *terms)
        x = new
    raise ConvergenceFailure(
        f"fixed point not converged after {_MAX_ITERS} iterations "
        f"at gamma={gamma}", residual=residual, point=0)


def eta_transform(law_d, law_t, beta, gamma):
    """eta(gamma) = E[1/(1 + gamma beta D E2*)] for the laws of D and T, at
    real gamma >= 0, the paper's eta-transform. eta(0) = 1 identically.

    The whole computation stays in real arithmetic, and E2* is the
    positive root of the fixed point, the physical one, which the solver
    brackets. eta comes with E2* from the solver's own sums, as mass +
    sum(w) - gamma beta E2* E1 (_eta): within 3.1e-16 absolute of a direct
    sum over D at the same E2* for gamma from 1e-4 to 1e14 (MP, genuine rho
    0.97 and 0.9999, b-spline 2/1 rho 0.97, beta 0.25 and 1). The
    difference loses relative precision only where eta is near 0: 1.3e-9
    relative at eta 1e-7 (MP, beta 1, gamma 1e14). Raises InputError for a
    beta outside (0, 1] and for a gamma
    that is complex, negative or not finite: the Stieltjes transform
    S(z) = gamma eta(gamma) at gamma = -1/z inside the support needs a
    root selector that a lone solve lacks, and eigen_pdf's walk into the
    support from above it is that selector.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    if np.iscomplexobj(gamma):
        raise InputError(f"gamma must be real, got {gamma}")
    check_range("gamma", gamma, 0)
    if gamma == 0:
        return 1.0
    return _solve_e2(_law_atoms(law_d), _law_atoms(law_t), beta,
                     float(gamma))[3]


@dataclass(frozen=True)
class EigenPdf:
    """Asymptotic eigenvalue density: point mass at zero plus a sampled
    continuous part on a positive lambda grid.

    ``density`` is the continuous density of the full empirical spectral
    distribution (its integral tends to beta/xi; zero_mass accounts for the
    rest). ``upper_edge`` is the upper edge of the nonzero-eigenvalue
    support: the fold of the fixed point's real inverse map, not read from
    the grid. On the default grid, which ends at 1.02 times that edge,
    zero_mass + integral = 1 within 1e-2 (eigen_pdf states the betas
    where this was measured). ``nu`` is the imaginary offset used for the
    inversion, by default 1e-4 times the grid's first point; the known
    point mass smeared by nu, at the floor of a grid with a gap still 0.8
    to 4 times the density there, is subtracted exactly before clamping.
    Negative densities are clamped to zero; ``clamped_points`` counts the
    grid points whose density stayed below minus its evaluation-error
    budget, ``rescued_points`` the points of eigen_pdf's walk (the grid and,
    unless it is swept alone, the 512-point default grid above its first
    point) re-solved from
    conj(E2) after falling below it, and ``solver_iterations`` every
    fixed-point iteration of the walk, rescues included.
    """

    zero_mass: float
    lambda_grid: np.ndarray
    density: np.ndarray
    beta: float
    xi: float
    nu: float
    upper_edge: float
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


def _solve_at(atoms_d, atoms_t, beta, lam, nu, warm, loose=False):
    """_solve_e2 at gamma = -1/(lam + i nu) for a point lam or the points
    of a vector lam; returns (gamma, e2, iterations, tangent), the tangent
    d log E2 / d log lambda being lambda gamma times the solver's d log E2
    / d log gamma. A failure raises ConvergenceFailure naming the lambda of
    its point."""
    gamma = -1.0 / (lam + 1j * nu)
    try:
        e2, its, tangent, eta = _solve_e2(atoms_d, atoms_t, beta, gamma,
                                          warm=warm, loose=loose)
    except ConvergenceFailure as exc:
        at = lam[exc.point] if np.ndim(lam) else lam
        raise ConvergenceFailure(f"inversion failed at lambda={at:g}",
                                 residual=exc.residual) from exc
    return gamma, e2, its, lam * gamma * tangent, eta


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
        gamma, e2, its, tangent, eta = _solve_at(atoms_d, atoms_t, beta, lam,
                                                 nu, start)
        s = gamma * eta
        smear = zero_mass * nu / (np.pi * (lam * lam + nu * nu))
        budget = np.maximum(1e-12, max(_TOLERANCE, rounding) * np.abs(s)
                            / np.pi)
        return s.imag / np.pi - smear, e2, budget, its, tangent

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
_FILL_STRIDES = (4, 1)  # the points between links, by two passes
_BATCH_POINTS = 128     # points solved per batch after the chain's walk
_START_GUARD = 0.5      # largest |log(predicted / chord start)| taken
_EDGE_WINDOW = 2.0      # points within this factor of an edge start in s


def _quadratic(at, x0, v0, t0, x1, v1):
    """At ``at``: the quadratic through (x0, v0) with slope t0 and through
    (x1, v1), and the chord through the two points."""
    h, d = at - x0, x1 - x0
    chord = (v1 - v0) / d
    return v0 + (t0 + (chord - t0) / d * h) * h, v0 + chord * h


def _hermite(at, x0, x1, v0, v1, t0, t1):
    """At ``at`` between x0 and x1: the cubic Hermite interpolant through
    (x0, v0) and (x1, v1) with slopes t0 and t1, and the chord."""
    h = x1 - x0
    t = (at - x0) / h
    rise = v1 - v0
    return v0 + t * (1.0 - t) * ((1.0 - t) * t0 - t * t1) * h \
        + t * t * (3.0 - 2.0 * t) * rise, v0 + t * rise


def _predicted(value, chord, logs):
    """The start E2 from a predicted value, or from the chord's where the
    prediction is not finite or differs from it by more than _START_GUARD
    in |log E2| (in modulus and phase together): a tangent is far off where
    E2 turns sharply. The values are log E2 when ``logs`` is true, else E2,
    whose difference is then taken relative to the chord's. The values are
    scalars (a chain link's start) or arrays of the same shape."""
    near = abs(value - chord) <= _START_GUARD * (1.0 if logs else abs(chord))
    start = np.where(near, value, chord) if np.ndim(near) \
        else value if near else chord
    return np.exp(start) if logs else start


def _support_edges(atoms_d, atoms_t, beta):
    """The folds that end the nonzero-eigenvalue support, upper first, as
    (lambda_e, E2_e, side): the upper edge (side 1) and, where the support
    has a gap above zero, the lower edge (side -1)."""
    edges = [_fold_edge(atoms_d, atoms_t, beta, upper=True) + (1.0,)]
    if not _support_reaches_zero(atoms_d, atoms_t, beta):
        edges.append(_fold_edge(atoms_d, atoms_t, beta, upper=False) + (-1.0,))
    return edges


def _sweep(atoms_d, atoms_t, beta, zero_mass, grid, nu, edges):
    """Densities over an increasing grid, walked from the largest lambda down.

    eigen_pdf gives a grid whose top lies above the support. Every
    _CHAIN_STRIDE-th point, the top and the points _TOP_LINKS below it
    (clipped at 0 on small grids) form a chain, which keeps the sweep on
    the physical root (Allgower & Georg's predictor-corrector walk: each
    link need only land in the corrector's basin). The sweep has three
    stages:

    1. every link, one at a time from the top down, is walked as one
       scalar gamma (_solve_at on a scalar lambda, solved in Python
       scalars by _solve_one) only until its Newton step is within _LOOSE
       of |E2|; it keeps only E2 and its tangent, for the next link's
       start, and forms no eta, density, budget or rescue check. The top
       link starts cold;
    2. the links are corrected to _TOLERANCE, started from their loose
       E2, through _density_points like every batch point, with its
       conj(E2) rescue;
    3. the other points at the strides _FILL_STRIDES, the stride-4 points
       between the corrected links and then the rest between the solved
       points on both sides, are started by interpolation and solved.

    Stages 2 and 3 solve in batches of _BATCH_POINTS, from the top. A
    point's answer depends only on the grid, nu and the edges, not on its
    batch.

    Each solve also yields the tangent d log E2 / d log lambda at its point
    (_solve_at), and every start but the top link's is predicted from the
    solved points around it, in one of two coordinates. At each support
    edge (_support_edges) E2 has a square-root branch point, so a point
    within a factor _EDGE_WINDOW of an edge, the upper one first, is
    predicted in s = sqrt(side (z - lambda_e)), z = lambda + i nu, where E2
    is analytic: a link from the quadratic E2_e + c1 s + c2 s^2 through the
    edge, the E2 and the tangent dE2/ds of the link above it; any other
    point from the cubic Hermite interpolant in s between the solved points
    on both sides. Elsewhere E2 is smooth in (log lambda, log E2): a link
    starts from the quadratic through the two links above it with the
    lower one's tangent, any other point from the cubic Hermite
    interpolant of log E2 (_quadratic, _hermite). A second link outside
    the windows has one link above it and starts cold. A prediction that
    is not finite or far from the chord through the same two points falls
    back to the chord (_predicted).

    Returns (unclamped densities, iterations, rescues, a mask of the
    points whose density stayed below minus its budget).
    """
    n = len(grid)
    density, budget = np.empty(n), np.empty(n)
    e2, tangent = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    iters = rescued = 0

    def solve(idx, start):
        # in batches of _BATCH_POINTS, from the start of idx
        nonlocal iters, rescued
        for b in range(0, len(idx), _BATCH_POINTS):
            at = idx[b:b + _BATCH_POINTS]
            density[at], e2[at], budget[at], its, resc, tangent[at] = \
                _density_points(atoms_d, atoms_t, beta, zero_mass, grid[at],
                                nu, start[b:b + _BATCH_POINTS])
            iters += int(its.sum())
            rescued += int(resc.sum())

    log, z = np.log(grid), grid + 1j * nu
    # the edge each point is predicted at, -1 for none
    frame = np.select([np.abs(log - np.log(edge[0])) <= np.log(_EDGE_WINDOW)
                       for edge in edges], range(len(edges)), -1)

    def abscissa(idx, f):
        if f < 0:
            return log[idx]
        lam_e, _, side = edges[f]
        return np.sqrt(side * (z[idx] - lam_e))

    def coords(idx, f):
        # (abscissa, value, slope) of solved points; dE2/ds = 2 side s
        # dE2/dz, and dE2/dz = E2 tangent / lambda
        x = abscissa(idx, f)
        if f < 0:
            return x, np.log(e2[idx]), tangent[idx]
        return x, e2[idx], 2.0 * edges[f][2] * x * e2[idx] * tangent[idx] \
            / grid[idx]

    links, down, fills = _walk_plan(n)
    for i, k in enumerate(links):
        # the quadratic through the link above, with its slope, and through
        # the edge or else the link above that; the top starts cold
        f = frame[k]
        anchor = (0.0, edges[f][1]) if f >= 0 \
            else coords(links[i - 2], f)[:2] if i > 1 else None
        warm = None if i == 0 or anchor is None else _predicted(
            *_quadratic(abscissa(k, f), *coords(links[i - 1], f), *anchor),
            f < 0)
        _, e2[k], its, tangent[k], _ = _solve_at(
            atoms_d, atoms_t, beta, grid.item(k), nu, warm, loose=True)
        iters += its
    solve(down, e2[down])
    for rest, lower, upper in fills:
        start = np.empty(len(rest), dtype=complex)
        for f in range(-1, len(edges)):
            m = frame[rest] == f
            x0, v0, t0 = coords(lower[m], f)
            x1, v1, t1 = coords(upper[m], f)
            start[m] = _predicted(*_hermite(abscissa(rest[m], f), x0, x1, v0,
                                            v1, t0, t1), f < 0)
        solve(rest, start)
    return density, iters, rescued, density < -budget


_PLAN_POINTS = 2 ** 14  # longest sweep whose walk plan is kept


def _walk_plan(n):
    """The order of a sweep of n points, which depends on n alone: (links,
    down, fills), the chain's links from the top down as Python ints and
    as an array, and per stride of _FILL_STRIDES the points it solves, from
    the top down, with the solved points just below and above each. Kept
    for the last few lengths up to _PLAN_POINTS, read-only; a longer
    sweep's plan is built for its call alone."""
    key = n, _CHAIN_STRIDE, _TOP_LINKS, _FILL_STRIDES
    return _kept_plan(*key) if n <= _PLAN_POINTS else _plan(*key)


def _plan(n, chain_stride, top_links, fill_strides):
    top = np.maximum(n - 1 - np.array((0,) + top_links), 0)
    chain = np.unique(np.append(np.arange(0, n, chain_stride), top))
    known, fills = chain, []
    for stride in fill_strides:
        rest = np.setdiff1d(np.arange(0, n, stride), known)[::-1]
        pos = np.searchsorted(known, rest)
        fills.append((rest, known[pos - 1], known[pos]))
        known = np.union1d(known, rest)
    down = chain[::-1]
    _freeze(down, *(idx for fill in fills for idx in fill))
    return tuple(down.tolist()), down, tuple(fills)


_kept_plan = functools.lru_cache(maxsize=4)(_plan)


def _support_reaches_zero(atoms_d, atoms_t, beta):
    """P(D != 0)/beta <= P(T != 0): the nonzero-eigenvalue support has no
    gap above zero (beta = 1 for identical laws). Atoms of value 0 count
    with the point mass."""
    return atoms_d.nonzero / beta <= atoms_t.nonzero


def _default_grid(atoms_d, atoms_t, beta, zero_mass, edges):
    """The default grid of _WALK_POINTS points, log-spaced up to 1.02
    times the upper support edge, which every density sweep walks.

    ``edges`` are _support_edges', so the top link lies just above the
    support and the density there is the smoothed tail of nu alone. Where
    the support has a gap above zero the grid starts at 0.98 times the
    lower fold, so it tabulates the support alone. Where the support
    reaches zero (beta = 1 style laws, no lower edge) the lower end is
    1e-8 beta E[D] E[T], and a probe there, smoothed by the default nu of
    that end (1e-4 lo), measures the coefficient A of a possible
    A/sqrt(lambda) divergence; if present, the lower end is pushed down
    until the untabulated mass 2 A sqrt(lo) is negligible. The probe starts
    from the physical root's leading term as z -> 0: where P(D != 0) =
    beta P(T != 0) (alike laws at beta = 1) the fixed point's leading terms
    at large gamma balance, and the next ones give E2^2 ~ -P(D != 0) z /
    beta^3, E2 ~ -i sqrt(P(D != 0) lambda / beta^3) on the physical branch
    (within 0.3 % of the root on the median and 23 % on the worst of 120
    beta = 1 laws: MP, genuine and upscaled of rho 0.5-0.999). A cold start
    lies near the real axis and can settle on a root with almost no
    density, which the conj(E2) rescue does not catch (b-spline 3/2, rho
    0.97, beta 1: 3.2e-5 against 1 619).
    """
    if len(edges) > 1:
        return np.geomspace(0.98 * edges[1][0], 1.02 * edges[0][0],
                            _WALK_POINTS)
    scale = beta * atoms_d.mean * atoms_t.mean
    lo = 1e-8 * scale
    start = -1j * np.sqrt((1.0 - atoms_d.mass) * lo / beta ** 3)
    f_probe = _density_points(atoms_d, atoms_t, beta, zero_mass,
                              np.array([lo]), 1e-4 * lo, start)[0][0]
    sqrt_coeff = max(f_probe, 0.0) * np.sqrt(lo)
    if 2.0 * sqrt_coeff * np.sqrt(lo) > 1e-3 * beta:
        lo = max((5e-4 * beta / sqrt_coeff) ** 2, 1e-13 * scale)
    return np.geomspace(lo, 1.02 * edges[0][0], _WALK_POINTS)


def _fold_sums(q, r):
    """(sum(q), sum(q r), sum(q r^2)) over the atoms. Every atom sum of a
    fold is taken here (_fold_edge: one call per evaluation of lambda(u),
    over D; _fold_root: one per Newton step of w(u), over T)."""
    qr = q * r
    return np.add.reduce(q), np.add.reduce(qr), np.add.reduce(qr * r)


def _fold_edge(atoms_d, atoms_t, beta, upper):
    """An edge of the nonzero-eigenvalue support as a fold of the fixed
    point's real inverse map (Silverstein & Choi 1995).

    Outside the support the fixed point has a real solution. With u =
    gamma E2 and v = gamma E1 it reads u psi(u) = phi(v) at lambda =
    -psi(u)/v, where psi(u) = E[D/(1 + beta D u)], phi(v) = E[vT/(1 + vT)].
    In w = -1/v, phi = E[T/(T - w)] increases on each branch off the atoms
    of T, so each u has one root w(u) there (_fold_root), and lambda(u) =
    w(u) psi(u). The lower edge is the maximum of lambda on w < min T, u >
    0 (lambda rises through 0 at u psi(u) = P(T != 0), then falls back to
    0); the upper edge is the minimum on w > max T, u in (-1/(beta max D),
    0) (lambda falls from infinity at u -> 0 and climbs back at the pole
    of psi).

    In s = u or s = -u the root of dlambda/du = w' psi + w psi' is found by
    Newton steps in 1/s, whose derivative d2lambda/du2 = w'' psi + 2 w'
    psi' + w psi'' takes psi'' and phi''(w), two more sums over the same
    atoms (w' = (u psi)'/phi'(w), w'' = ((u psi)'' - phi''(w) w'^2) /
    phi'(w)). The upper edge starts at the smaller of half the pole and the
    upper fold of Marchenko-Pastur, u = -1/(m r (1 + r)) for r = sqrt(beta)
    and m = E[D^3]/E[D^2], a mean that follows the peak of a peaked D, so
    the start follows the fold toward u = 0 as beta falls (MP takes one
    evaluation at every beta). The lower edge starts at half the lower
    fold of Marchenko-Pastur, u = 1/(m r (1 - r)), for D's harmonic mean m
    and r = sqrt(beta P(T != 0)/P(D != 0)). Each
    evaluation narrows a bracket on the sign of dlambda/du (> 0 below the
    root), and a step leaving it doubles or halves s while one end is
    open, else takes the bracket's geometric mean. The steps stop at the
    first within _FOLD_STEP (1e-6) of s, which is taken: Newton's next
    error is then of order 1e-12 in s, and lambda is flat there. Each w(u)
    starts from the last root moved to the new u along w' and w''. Over
    the density benchmark's 12 folds this takes about 5 evaluations and 18
    Newton steps of w per fold (a bracketed regula falsi took 14 and 65).
    Returns (lambda_e, E2_e): lambda_e is lambda at the last evaluation
    plus half the first-order change of its last step (lambda to second
    order), and E2_e = -lambda_e u at u after that step is the real fixed
    point's double root at gamma = -1/lambda_e, the branch point of E2
    there. Raises ConvergenceFailure if a root w is not found, or the fold
    after 100 evaluations.
    """
    d, wd = atoms_d.values, atoms_d.wv
    t, wt = atoms_t.positive
    if upper:
        sign, branch, w = -1.0, (t.max(), np.inf), 2.0 * t.max()
        lo, hi = 0.0, 1.0 / (beta * d.max())
        m, r = float((wd * d * d).sum() / (wd * d).sum()), np.sqrt(beta)
        s = min(0.5 * hi, 1.0 / (m * r * (1.0 + r)))
    else:
        sign, branch, w = 1.0, (-np.inf, t.min()), 0.0
        r = np.sqrt(beta * atoms_t.nonzero / atoms_d.nonzero)
        lo, hi = 0.0, np.inf
        s = 0.5 / (atoms_d.harmonic * r * (1.0 - r))
    last = None
    for _ in range(100):
        u = sign * s
        a = 1.0 + beta * u * d
        psi, p2, p3 = _fold_sums(wd / a, d / a)
        if last is not None:
            # the last root moved along w' and w''
            du = u - last[0]
            guess = w + (last[1] + 0.5 * last[2] * du) * du
            if branch[0] < guess < branch[1]:
                w = guess
        w, phi1, phi2 = _fold_root(t, wt, u, u * psi, w, branch)
        dpsi, ddpsi = -beta * p2, 2.0 * beta * beta * p3
        dw = (psi + u * dpsi) / phi1
        ddw = (2.0 * dpsi + u * ddpsi - phi2 * dw * dw) / phi1
        slope = dw * psi + w * dpsi
        lam = w * psi
        if slope > 0:
            lo = s
        else:
            hi = s
        # Newton in 1/s, which grows by the fraction slope / (2 slope + u
        # lambda''): s changes by the fraction step
        den = 3.0 * slope + u * (ddw * psi + 2.0 * dw * dpsi + w * ddpsi)
        step = -slope / den if den else np.inf
        new = s * (1.0 + step)
        if abs(step) <= _FOLD_STEP and lo <= new <= hi:
            lam += 0.5 * slope * sign * (new - s)
            return float(lam), float(-lam * sign * new)
        last = u, dw, ddw
        s = new if lo < new < hi else 2.0 * s if hi == np.inf \
            else 0.5 * s if lo == 0 else np.sqrt(lo * hi)
    raise ConvergenceFailure(f"no fold found after 100 steps, last at "
                             f"u={u:g}", residual=abs(slope))


def _fold_root(t, wt, u, target, w, branch):
    """The root w of phi(w) = E[T/(T - w)] = target = u psi(u) on the
    branch (lo, hi) of _fold_edge, from w; returns (w, phi'(w), phi''(w)).

    Newton steps on 1/phi(w) = 1/target, exactly linear in w for a T of one
    atom and nearly so at both ends of each branch, where phi has a pole or
    decays as E[T]/|w|; a step leaving the bracket of the sign changes
    seen is replaced by bisection. At the first w where phi - target is
    within the rounding of w or of the sums, returns w moved by its Newton
    step. Raises ConvergenceFailure after 100 steps."""
    lo, hi = branch
    for _ in range(100):
        r = 1.0 / (t - w)
        phi, phi1, phi2 = _fold_sums(wt * r, r)
        f = phi - target
        lo, hi = (lo, w) if f > 0 else (w, hi)
        new = w - f * phi / (target * phi1)
        if abs(f) <= 8.0 * _EPS * (abs(w) * phi1 + abs(target)):
            return new, phi1, 2.0 * phi2
        w = new if lo < new < hi else 0.5 * (lo + hi)
    raise ConvergenceFailure(f"no real root at u={u:g}", residual=abs(f))


def support_lower_edge(law_d, law_t, beta, xi=1.0):
    """Lower edge of the nonzero-eigenvalue support of the limiting law.

    The edge is the fold of the fixed point's real inverse map, the
    maximum of lambda(u) = w(u) psi(u) on u > 0 (_fold_edge), found from
    the same atom sums as the densities by Newton steps on dlambda/du,
    about 5 evaluations of lambda(u) on the benchmark's laws (the atoms of
    a law are built once, _law_atoms). It matches the Marchenko-Pastur
    (1 - sqrt beta)^2 within 3e-13 relative for beta from 0.125 to 0.995
    and within 1e-12 up to 0.999, where the edge is 2.5e-7. Atoms of value
    0 count with the point mass. Returns 0.0 when the support reaches
    zero, i.e. P(D != 0)/beta <= P(T != 0) (beta = 1 for identical laws).
    ``xi`` is not read. Raises ConvergenceFailure if a root is not found.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    atoms_d, atoms_t = _law_atoms(law_d), _law_atoms(law_t)
    if _support_reaches_zero(atoms_d, atoms_t, beta):
        return 0.0
    return _fold_edge(atoms_d, atoms_t, beta, upper=False)[0]


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
        ``points`` entries runs to 1.02 times the upper support edge, from
        0.98 times the lower one where the support has a gap above zero
        and from 1e-8 beta E[D] E[T] (or below, see the probe) where it
        reaches zero: the ends of the 512-point default grid.
    nu : float, optional
        Imaginary offset for the Stieltjes inversion; defaults to
        1e-4 times the grid's first (smallest) lambda, for default and
        given grids alike.
    points : int
        Size of the default grid, from 2 to MAX_POINTS = 2**20.

    Every call finds both support edges as folds of the fixed point's
    real inverse map, with E2 there (the lower one only where the support
    has a gap), and builds the 512-point default grid: its top is 1.02
    times the upper edge and its bottom 0.98 times the lower edge where
    there is one; a probe for an A/sqrt(lambda) divergence at zero, which
    can extend the lower end, runs only where the support reaches zero.
    The sweep walks that grid, with the requested grid's points merged in,
    from the largest lambda down to the requested grid's first point, and
    reads the densities back at the requested points. So every walk
    enters the support from above it, where the physical root is the one
    that continues from outside the support. A grid that reaches that
    grid's top in steps no longer than its own (every default grid of 512
    or more points, which has the same ends) enters it alike and is swept
    alone, so a 512-point default call sweeps exactly its own grid and a
    finer one does not pay for the 510 inner points of the 512-point
    grid. Laws' atoms are built once per law (equal laws share them), the
    sweep's order once per length. The walk follows a chain of every 16th
    point and of the points 1, 2, 4 and 8 below the top: every link is
    solved only until its Newton step is within 1e-2 of |E2|, the top one
    from a cold start, and then the links are corrected to the tolerance
    in batches of 128. Last the points at stride 4 between the links, then
    the rest, are solved in batches of 128. Every start but the top link's
    is predicted from E2 and its tangent at the solved points around it;
    within a factor 2 of an edge it is predicted in s = sqrt(+-(z -
    lambda_e)), anchored at the edge's E2, because E2 has a square-root
    branch point there. Every start goes straight to Newton. Each point's
    answer depends only on the grid, nu and the laws, so a call with a
    given grid and nu reproduces the density of the call that chose them.
    ``solver_iterations`` and ``rescued_points`` count the whole walk,
    ``clamped_points`` the requested points.

    Raises InputError for a beta outside (0, 1], a non-finite or
    nonpositive nu, a grid that is not finite, increasing and positive,
    fewer than 2 or more than 2**20 points, or an omitted xi with laws
    that carry different factors. The bound on points keeps a call to a few
    seconds and its per-point arrays near 16 MiB: each point costs about
    0.004-0.008 ms of solving over the 128 atoms (whole calls of 8 192
    points take 35-42 ms, of 512 points 3.5-4.1 ms, best of 7 and of 9
    repeated calls over genuine and five upscaled laws of rho 0.97 at beta
    0.5, linear 3/2, catmull-rom 2/1, b-spline 2/1 and 3/2 and lanczos3
    3/2, alike in a fresh process and after three 512-point calls of the
    same laws, in the quiet rounds on a 2-core Intel Xeon box with AVX-512
    whose speed swings by up to 80 % with other load; 2**20 points take
    about 6.4 s for the genuine law), and the complex E2 of 2**20 points
    takes 16 MiB. The
    figures use the default 512.

    EigenPdf's budgets (zero_mass + integral = 1 within 1e-2, first moment
    = beta E[D] E[T] within 1 %) were measured over MP and the genuine and
    upscaled laws of rho 0.9, 0.97 and 0.98 (all four kernels at 3/2 and
    2/1). On a 0.01 step of beta from 0.05 to 1 (tests/budget_scan.py,
    2 688 calls) every call meets both budgets with no point re-solved
    from conj(E2): the largest errors are 8.1e-4 in mass (b-spline 2/1,
    rho 0.9, beta 1) and 2.1e-3 in first moment (the same law at beta
    0.05). Below 0.05 the first moment can miss its budget (by 4.6 % at
    beta 0.003 for genuine rho 0.97; b-spline 2/1, rho 0.97 is 0.94 % low
    at 0.01, inside it). MP's continuous part stays within 0.4 % of beta
    down to beta 1e-8, but the continuous part is off by +7.3 % at 1e-6
    for linear 3/2 and -35 % at 1e-8 for genuine rho 0.97, while the total
    mass, mostly zero_mass = 1 - beta/xi, still meets its budget.
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
    atoms_d, atoms_t = _law_atoms(law_d), _law_atoms(law_t)
    edges = _support_edges(atoms_d, atoms_t, beta)
    walk = _default_grid(atoms_d, atoms_t, beta, zero_mass, edges)
    if grid is None:
        grid = np.geomspace(walk[0], walk[-1], points)
    if nu is None:
        nu = 1e-4 * float(grid[0])

    # a grid that reaches the walk's top in steps no longer than the walk's
    # (a default grid of at least _WALK_POINTS points) is swept alone; any
    # other has the walk's points above its first merged in
    alone = grid[-1] >= walk[-1] and \
        np.diff(np.log(grid)).max() <= np.diff(np.log(walk)).max()
    sweep = grid if alone else np.union1d(grid, walk[walk > grid[0]])
    density, iters, rescued, clamped = _sweep(
        atoms_d, atoms_t, beta, zero_mass, sweep, nu, edges)
    at = np.searchsorted(sweep, grid)
    return EigenPdf(zero_mass=zero_mass, lambda_grid=grid,
                    density=np.maximum(density[at], 0.0),
                    beta=beta, xi=xi, nu=nu, upper_edge=edges[0][0],
                    law=f"D~{law_d.descriptor} T~{law_t.descriptor} beta={beta}",
                    clamped_points=int(np.count_nonzero(clamped[at])),
                    solver_iterations=iters, rescued_points=rescued)
