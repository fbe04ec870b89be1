import logging
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import budget_scan
import respectra

from respectra import (ArParams, ConvergenceFailure, InputError, KERNELS,
                       ResampleSpec, afze, eigen_pdf,
                       eta_transform, generate_field, law_genuine,
                       law_upscaled, quadrature_nodes, support_lower_edge)
from respectra.rmt import (_CHAIN_STRIDE, MAX_POINTS, _PLAN_POINTS,
                           _atoms_of, _density_points, _fixed_point_map,
                           _fold_edge, _fold_root, _hermite, _kept_plan,
                           _law_atoms, _LawAtoms, _LawForms, _modulus,
                           _predicted, _quadratic, _solve_e2,
                           _support_edges, _support_reaches_zero,
                           _walk_plan)


def mp_eta_closed_form(gamma, beta):
    """Closed-form Marchenko-Pastur eta-transform (independent oracle)."""
    f = (np.sqrt(gamma * (1 + np.sqrt(beta)) ** 2 + 1)
         - np.sqrt(gamma * (1 - np.sqrt(beta)) ** 2 + 1)) ** 2
    return 1.0 - f / (4.0 * gamma)


def mp_density(lam, beta, s2=1.0):
    """Closed-form density of the continuous part of the N x N empirical
    spectral law of (1/N) B B^T with B of shape N x (beta N): the standard
    MP shape sqrt((hi-x)(x-lo)) / (2 pi s2 x), integrating to beta."""
    lo = s2 * (1 - np.sqrt(beta)) ** 2
    hi = s2 * (1 + np.sqrt(beta)) ** 2
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    m = (lam > lo) & (lam < hi)
    out[m] = np.sqrt((hi - lam[m]) * (lam[m] - lo)) / (2 * np.pi * s2 * lam[m])
    return out


@dataclass(frozen=True)
class StandIn:
    """A law reduced to the three fields _LawAtoms reads, and an r_hh of
    three terms, which _law_atoms gives atoms."""

    zero_mass: float
    angular_density: float
    transform: object
    r_hh: tuple = (0.0, 0.0, 0.0)


def cold_starts(atoms, gamma):
    """The paper-style cold value E2 = E[T / (1 + gamma T)] (E1 = 1) at
    each gamma, which a scalar gamma starts from when it is given none; an
    array of gamma must be given its starts. A law of closed forms gives
    it as E[h] at c = gamma."""
    gamma = np.atleast_1d(gamma)
    if isinstance(atoms, _LawForms):
        return atoms.map_sums(gamma)[0]
    return np.add.reduce(
        atoms.wv / (1.0 + gamma[:, None] * atoms.values), axis=1)


def exact_sums(law, c):
    """(E[h], E[h^2], E[h^3], eta) of a genuine or linear law at each c,
    with h = V/(1 + c V) and eta = E[1/(1 + c V)]: sums over 16 384 atoms
    (512 graded panels of 32 Gauss-Legendre nodes) of V = P/Q, with Q =
    (1 - rho)^2 + 4 rho sin^2(omega/2), which does not cancel near omega =
    0. An oracle for the closed forms that shares none of their algebra."""
    nodes, weights = respectra.rmt._quadrature(32, 512, 3.0)
    r0, *rest = law.r_hh
    v = (r0 + 2.0 * sum(rest) * np.cos(nodes)) / (
        (1.0 - law.rho) ** 2 + 4.0 * law.rho * np.sin(0.5 * nodes) ** 2)
    w = 2.0 * law.angular_density * weights
    c = np.atleast_1d(c)[:, None]
    h = v / (1.0 + c * v)
    return tuple(np.add.reduce(w * h ** k, axis=1) for k in (1, 2, 3)) \
        + (law.zero_mass + np.add.reduce(w / (1.0 + c * v), axis=1),)


def staged_sweep(atoms, beta, zero_mass, grid, nu, walk):
    """A density sweep, written out plainly in three stages. It walks the
    grid together with the points of the default grid ``walk`` above the
    grid's first point, so every walk enters the support from above it. The
    chain is every 16th point of that walk, the top and the points 1, 2, 4
    and 8 below it (clipped at 0). (1) The links are walked from the top
    down, each as one scalar gamma and only until its Newton step is
    within 1e-2 of |E2|, the top from a cold start. (2) They are corrected
    to the full tolerance from their loose E2. (3) The other points at
    stride 4 start from the cubic Hermite interpolant between the corrected
    links around them, and then the rest from that between the solved
    points around them. Stages 2 and 3 solve in chunks of 32 from the
    bottom up. A point within a factor 2
    of a support edge (the upper one first) is predicted over s =
    sqrt(side (z - lambda_e)): a link below the top from the quadratic
    through the edge's E2 and the E2 and slope of the link above it,
    another point by the interpolant in s. Any other link below the top
    starts from the quadratic in (log lambda, log E2) through the two links
    above it with the lower one's tangent (cold if it is the second), any
    other point from the interpolant of log E2. Returns the densities and
    E2 at the grid's points and the iterations of the walk's points."""
    sweep = np.union1d(grid, walk[walk > grid[0]])
    keep = np.searchsorted(sweep, grid)
    grid = sweep
    n = len(grid)
    dens, e2, its = np.zeros(n), np.zeros(n, dtype=complex), np.zeros(n, int)
    tangent = np.zeros(n, dtype=complex)
    edges = _support_edges(atoms, atoms, beta)

    def solve(idx, start):
        for i in range(0, len(idx), 32):
            at = idx[i:i + 32]
            dens[at], e2[at], _, got, _, tangent[at] = _density_points(
                atoms, atoms, beta, zero_mass, grid[at], nu, start[i:i + 32])
            its[at] += got

    def edge_of(lam):
        near = [f for f, edge in enumerate(edges)
                if abs(np.log(lam) - np.log(edge[0])) <= np.log(2.0)]
        return near[0] if near else None

    def where(k, f):
        if f is None:
            return np.log(grid[k])
        lam_e, _, side = edges[f]
        return np.sqrt(side * (grid[k] + 1j * nu - lam_e))

    def solved(k, f):
        # abscissa, value and slope of solved points k
        if f is None:
            return where(k, f), np.log(e2[k]), tangent[k]
        s = where(k, f)
        return s, e2[k], 2.0 * edges[f][2] * s * e2[k] * tangent[k] / grid[k]

    top = np.maximum(n - 1 - np.array([0, 1, 2, 4, 8]), 0)
    chain = np.unique(np.append(np.arange(0, n, _CHAIN_STRIDE), top))
    down = chain[::-1]
    for i in range(len(down)):
        k, f = down[i], edge_of(grid[down[i]])
        if i == 0 or i == 1 and f is None:
            warm = None
        elif f is not None:
            warm = _predicted(*_quadratic(where(k, f), *solved(down[i - 1], f),
                                          0.0, edges[f][1]), False)
        else:
            x1, v1, _ = solved(down[i - 2], None)
            warm = _predicted(*_quadratic(np.log(grid[k]),
                                          *solved(down[i - 1], None), x1, v1),
                              True)
        lam = float(grid[k])
        gamma = -1.0 / (lam + 1j * nu)
        e2[k], its[k], t, _ = _solve_e2(atoms, atoms, beta, gamma, warm)
        tangent[k] = lam * gamma * t
    solve(chain, e2[chain])
    known = chain
    for stride in (4, 1):
        rest = np.setdiff1d(np.arange(0, n, stride), known)
        pos = np.searchsorted(known, rest)
        lower, upper = known[pos - 1], known[pos]
        start = np.zeros(len(rest), dtype=complex)
        frames = [edge_of(lam) for lam in grid[rest]]
        for f in [None] + list(range(len(edges))):
            m = np.array([g == f for g in frames], dtype=bool)
            x0, v0, t0 = solved(lower[m], f)
            x1, v1, t1 = solved(upper[m], f)
            start[m] = _predicted(*_hermite(where(rest[m], f), x0, x1, v0,
                                            v1, t0, t1), f is None)
        solve(rest, start)
        known = np.union1d(known, rest)
    return dens[keep], e2[keep], its


def walk_e2(law, beta, xi, lam):
    """E2 of the default call's walk at its grid point nearest each lam: a
    start on the physical branch there."""
    pdf = eigen_pdf(law, law, beta, xi=xi)
    grid = pdf.lambda_grid
    e2 = staged_sweep(_law_atoms(law), beta, pdf.zero_mass, grid, pdf.nu,
                      grid)[1]
    lam = np.asarray(lam, dtype=float)[:, None]
    return e2[np.argmin(np.abs(np.log(grid / lam)), axis=1)]


def brute_upper_edge(law, beta):
    """The minimum of lambda(u) = w(u) psi(u) over u in (-1/(beta max D),
    0) by brute force: w(u) = max T (1 + e^x) by bisection in x on every
    point of a scan of u, the scan refined twice around its smallest
    lambda. psi and phi are the law's expectations (_law_atoms) at every
    point of the scan at once: closed forms take arrays, atoms are summed
    here."""
    ex = _law_atoms(law)
    if isinstance(ex, _LawForms):
        def psi_of(s):
            return ex.fold(-beta * s)[0]

        def phi_of(w):
            return ex.phi(w)[0]
    else:
        d, wd = ex.values, ex.wv
        t, wt = ex.positive

        def psi_of(s):
            return (wd / (1.0 - beta * d * s[:, None])).sum(axis=1)

        def phi_of(w):
            return (wt / (t - w[:, None])).sum(axis=1)
    s_max = 1.0 / (beta * ex.peak)

    def lam(s):
        psi = psi_of(s)
        lo, hi = np.full(len(s), -36.0), np.full(len(s), 60.0)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            w = ex.peak * (1.0 + np.exp(mid))
            f = phi_of(w) + s * psi
            lo, hi = np.where(f > 0, lo, mid), np.where(f > 0, mid, hi)
        return ex.peak * (1.0 + np.exp(0.5 * (lo + hi))) * psi

    s = s_max * np.geomspace(1e-9, 1.0, 4001)[:-1]
    for _ in range(3):
        vals = lam(s)
        k = int(np.argmin(vals))
        s = np.linspace(s[max(k - 1, 0)], s[min(k + 1, len(s) - 1)], 401)
    return float(vals.min())


def scan_laws():
    """rho in {0, 0.5, 0.9, 0.97, 0.98}: genuine plus four kernels at 3/2
    and 2/1, each at beta 0.125, 0.25, 0.5 and 1 (rho 0 genuine is MP)."""
    for rho in (0.0, 0.5, 0.9, 0.97, 0.98):
        laws = [(law_genuine(rho), 1.0)]
        for name in ("linear", "catmull-rom", "b-spline", "lanczos3"):
            for lnum, m in ((3, 2), (2, 1)):
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                laws.append((law_upscaled(rho, spec), spec.xi))
        for law, xi in laws:
            for beta in (0.125, 0.25, 0.5, 1.0):
                yield law, xi, beta


def density_workload():
    """(law, xi, beta) of the benchmark's density workload's six calls."""
    calls = [(law_genuine(0.97), 1.0, beta) for beta in (0.25, 0.5, 1.0)]
    for name, lnum, m, beta in (("b-spline", 2, 1, 0.5),
                                ("linear", 3, 2, 0.5),
                                ("lanczos3", 3, 2, 1.0)):
        spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
        calls.append((law_upscaled(0.97, spec), spec.xi, beta))
    return calls


class TestEtaTransform:
    def test_eta_at_zero_is_one(self):
        law = law_genuine(0.97)
        assert eta_transform(law, law, 0.5, 0.0) == 1.0

    def test_eta_at_infinity_matches_afze(self):
        for beta in (0.5, 1.0):
            law = law_genuine(0.97)
            got = eta_transform(law, law, beta, 1e8)
            assert got == pytest.approx(afze(beta, 1.0), abs=1e-3)
        law = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        got = eta_transform(law, law, 1.0, 1e8)
        assert got == pytest.approx(afze(1.0, 2.0), abs=1e-3)

    def test_matches_mp_closed_form(self, solver_settings):
        law = law_genuine(0.0)
        for beta in (0.25, 0.5, 1.0):
            for gamma in (0.1, 1.0, 10.0):
                with solver_settings(tolerance=1e-12):
                    got = eta_transform(law, law, beta, gamma)
                assert got == pytest.approx(mp_eta_closed_form(gamma, beta),
                                            abs=1e-6)

    def test_real_axis_monotone_decreasing(self):
        law = law_genuine(0.9)
        grid = np.geomspace(1e-3, 1e3, 25)
        vals = [eta_transform(law, law, 0.5, g) for g in grid]
        assert all(isinstance(v, float) for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1.0

    def test_real_gamma_takes_positive_root(self):
        # the criterion-2 laws: at real gamma > 0 the physical E2 is
        # positive, so eta lies between the zero-eigenvalue fraction and 1
        gen = law_genuine(0.97)
        ups = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        for law, beta, xi in ((gen, 0.5, 1.0), (gen, 1.0, 1.0),
                              (ups, 1.0, 2.0)):
            atoms = _LawAtoms(law)
            for gamma in (1.0, 1e4, 1e8):
                e2 = _solve_e2(atoms, atoms, beta, gamma)[0]
                eta = eta_transform(law, law, beta, gamma)
                assert e2 > 0, f"beta={beta} xi={xi} gamma={gamma}: E2={e2}"
                assert afze(beta, xi) <= eta <= 1.0, \
                    f"beta={beta} xi={xi} gamma={gamma}: eta={eta}"

    def test_real_gamma_stays_real_and_complex_copies_match(self):
        # real gamma keeps real arithmetic (a complex iterate stored into
        # the real E2 would warn that it drops imaginary parts); complex
        # solves multiply by the atoms' complex copies, which are exact
        # casts and do not depend on an earlier real solve on the atoms
        law = law_genuine(0.97)
        atoms = _LawAtoms(law)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # real gamma takes the scalar path
            e2 = [_solve_e2(atoms, atoms, 0.5, g)[0] for g in (1.0, 1e4)]
            eta = eta_transform(law, law, 0.5, 1e8)
        assert all(isinstance(e, float) for e in e2) and np.isrealobj(eta)
        lam, nu = np.geomspace(0.05, 2.0, 5), 1e-5
        start = cold_starts(atoms, -1.0 / (lam + 1j * nu))
        args = (0.5, afze(0.5, 1.0), lam, nu, start)
        used = _density_points(atoms, atoms, *args)
        fresh = _LawAtoms(law)
        for got, want in zip(used, _density_points(fresh, fresh, *args)):
            assert got.tobytes() == want.tobytes()
        for name in ("inv", "wpos"):
            cast = getattr(atoms, name).astype(complex)
            assert getattr(atoms.as_complex(), name).tobytes() \
                == cast.tobytes()

    def test_rejects_bad_beta(self):
        law = law_genuine(0.5)
        with pytest.raises(InputError, match=r"beta must lie in \(0, 1\]"):
            eta_transform(law, law, 1.5, 1.0)

    def test_divergence_reported(self, solver_settings):
        law = law_genuine(0.97)
        with solver_settings(tolerance=1e-12, max_iters=3), \
                pytest.raises(ConvergenceFailure,
                              match="not converged after 3 iterations") as err:
            eta_transform(law, law, 1.0, 7.7)
        assert err.value.residual is not None
        # a genuine divergence: MP at beta 0.5 and gamma = -10 puts
        # z = -1/gamma = 0.1 inside the support [0.086, 2.914], where the
        # fixed point has no real root; from a real start the iterates stay
        # real, the residual stays far from zero, and the cap ends it
        mp = _LawAtoms(law_genuine(0.0))
        gamma = -10.0
        for tol in (1e-6, 1e-14):
            with solver_settings(tolerance=tol), \
                    pytest.raises(ConvergenceFailure,
                                  match=r"not converged after 100 iterations "
                                        r"at gamma=-10\.0") as err:
                _solve_e2(mp, mp, 0.5, gamma)
            assert err.value.residual > 1e-3

    def test_rejects_complex_and_negative_gamma(self):
        # the paper's eta-transform is taken at real gamma >= 0; a cold
        # complex solve has no way to pick the physical root, which
        # eigen_pdf's walk into the support from above it selects
        law = law_genuine(0.97)
        for gamma in (-10.0, -1e-300, 1j, -1.0 / (1.0 + 1e-4j),
                      np.complex128(2.0), np.nan, np.inf):
            with pytest.raises(InputError, match="gamma must be"):
                eta_transform(law, law, 0.5, gamma)


class TestOnePointPath:
    """The form of gamma picks the solver's path and tolerance. A real
    scalar (eta_transform's) is solved to the tolerance on the scalar
    path, bracketed when it is positive; a complex scalar (a chain link)
    is walked loose on the same path. A complex array with given starts
    is a batch solved to the tolerance, and a one-point array (the sqrt
    probe, a one-point rescue) must answer and fail exactly as row 0 of a
    longer batch."""

    @staticmethod
    def solves_of(monkeypatch, *calls):
        """(gamma, warm, result) of every _solve_e2 call that the calls,
        each a function of no arguments, make."""
        solves = []
        solve = respectra.rmt._solve_e2

        def spy(atoms_d, atoms_t, beta, gamma, warm=None):
            solves.append((gamma, warm, solve(atoms_d, atoms_t, beta, gamma,
                                              warm)))
            return solves[-1][2]

        with monkeypatch.context() as patch:
            patch.setattr(respectra.rmt, "_solve_e2", spy)
            for call in calls:
                call()
        return solves

    @staticmethod
    def gammas(lam, nu):
        # formed as _density_points forms them, so the bits agree
        return -1.0 / (np.array([lam, 2.0 * lam]) + 1j * nu)

    def test_cold_probe_matches_batch_row(self):
        # the sqrt probe's point, the default grid's lower end 1e-8 beta
        # E[D] E[T] at nu 1e-4 of it, solved from the paper-style cold
        # value (given as a start, so both paths take Newton steps from it)
        # and from the probe's start -i sqrt(lambda) (no zero mass, beta 1)
        law = law_genuine(0.97)
        atoms = _LawAtoms(law)
        lo = 1e-8 * (1.0 * atoms.mean * atoms.mean)
        gammas = self.gammas(lo, 1e-4 * lo)
        for start in (cold_starts(atoms, gammas),
                      np.full(2, -1j * np.sqrt(lo))):
            one = _solve_e2(atoms, atoms, 1.0, gammas[:1], warm=start[:1])
            row = _solve_e2(atoms, atoms, 1.0, gammas, warm=start)
            assert one[0].tobytes() == row[0][:1].tobytes()
            assert one[1].tobytes() == row[1][:1].tobytes()
            # and the conj(E2) re-solve a rescue makes from there
            again = _solve_e2(atoms, atoms, 1.0, gammas[:1],
                              warm=np.conj(one[0]))
            rows = _solve_e2(atoms, atoms, 1.0, gammas, warm=np.conj(row[0]))
            assert again[0].tobytes() == rows[0][:1].tobytes()
            assert again[1][0] == rows[1][0]

    def test_batch_magnitudes_equal_scalar_abs(self):
        # the scalar path takes Python's abs of complex scalars, the
        # batch loop _modulus of arrays; numpy's own complex absolute
        # rounds differently on some of these inputs, _modulus on none
        rng = np.random.default_rng(20)
        z = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) \
            * np.exp(rng.uniform(-30.0, 30.0, 20000))
        scalar = np.array([abs(v) for v in z])
        assert np.count_nonzero(np.abs(z) != scalar) > 1000
        assert _modulus(z).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("rho,settings,lam,nu,match", [
        (0.97, {"tolerance": 1e-14, "max_iters": 4},
         1.0, 1e-4, "not converged after 4 iterations"),
        # MP at beta 0.5 puts lambda 0.1 inside its support [0.086, 2.914],
        # where a real gamma has no root; nu = 1e-300 leaves gamma real to
        # rounding, so Newton wanders until the cap ends it
        (0.0, {}, 0.1, 1e-300, "not converged after 100 iterations"),
    ], ids=["max_iters", "divergence"])
    def test_failure_matches_batch_row(self, solver_settings, rho, settings,
                                       lam, nu, match):
        # a batch row and a one-point solve from the same given start fail
        # alike. The sweep of a grid that tops at lam starts cold only at
        # the walk's top, 1.02 times the upper fold, above the support:
        # starved of iterations it fails there first, in its loose walk,
        # with the residual of a loose scalar solve of that point and the
        # message of a one-point solve there from the cold value
        law = law_genuine(rho)
        gammas = self.gammas(lam, nu)
        with solver_settings(**settings):
            atoms = _law_atoms(law)
            start = cold_starts(atoms, gammas)
            with pytest.raises(ConvergenceFailure, match=match) as one:
                _solve_e2(atoms, atoms, 0.5, gammas[:1], warm=start[:1])
            with pytest.raises(ConvergenceFailure) as row:
                _solve_e2(atoms, atoms, 0.5, gammas, warm=start)
        assert str(one.value) == str(row.value)
        assert one.value.residual == row.value.residual
        assert one.value.point == row.value.point == 0
        top = np.array([1.02 * _support_edges(atoms, atoms, 0.5)[0][0]])
        with solver_settings(**dict(settings, max_iters=2)):
            with pytest.raises(ConvergenceFailure) as first:
                _density_points(atoms, atoms, 0.5, afze(0.5, 1.0), top, nu,
                                cold_starts(atoms, -1.0 / (top + 1j * nu)))
            with pytest.raises(ConvergenceFailure) as link:
                _solve_e2(atoms, atoms, 0.5, -1.0 / (top.item() + 1j * nu))
            with pytest.raises(ConvergenceFailure) as pdf:
                eigen_pdf(law, law, 0.5, grid=[0.5 * lam, lam], nu=nu)
        assert str(pdf.value).startswith(
            f"inversion failed at lambda={top[0]:g} ")
        assert str(pdf.value) == str(first.value)
        assert pdf.value.residual == link.value.residual

    def test_every_solve_enters_solve_e2(self, monkeypatch):
        # the chain walk solves each link as one complex scalar gamma,
        # loose, in Python scalars; that path and the batches both enter
        # _solve_e2, whose spy then counts every iteration of a call. Each
        # link's E2 corrected at the full tolerance as a one-point array
        # has the bits of row 0 of a longer batch
        law = law_genuine(0.97)
        atoms = _LawAtoms(law)
        pdfs = []
        solves = self.solves_of(
            monkeypatch, lambda: pdfs.append(eigen_pdf(law, law, 0.5)))
        links = [(gamma, result) for gamma, _, result in solves
                 if not isinstance(gamma, np.ndarray)]
        assert len(links) == 37
        assert all(isinstance(gamma, complex) and isinstance(result[1], int)
                   for gamma, result in links)
        assert sum(int(np.sum(result[1])) for _, _, result in solves) \
            == pdfs[0].solver_iterations == 666
        for (gamma, (e2, *_)), (other, (near, *_)) in zip(links, links[1:]):
            one = _solve_e2(atoms, atoms, 0.5, np.array([gamma]), warm=e2)
            rows = _solve_e2(atoms, atoms, 0.5, np.array([gamma, other]),
                             warm=np.array([e2, near]))
            for got, row in zip(one, rows):
                assert got.tobytes() == row[:1].tobytes()

    def test_library_solves_take_the_three_forms(self, monkeypatch):
        # the library gives _solve_e2 only the three forms its paths
        # serve: a complex array with its starts, a complex scalar (one of
        # the chain's 37 links, with no eta) and a real scalar (with a
        # float eta). A default call solves no real gamma, eta_transform
        # no complex one
        law = law_genuine(0.97)
        solves = self.solves_of(monkeypatch,
                                lambda: eigen_pdf(law, law, 0.5),
                                lambda: eta_transform(law, law, 0.5, 2.0))
        arrays = [(g, w) for g, w, _ in solves if isinstance(g, np.ndarray)]
        links = [r for g, _, r in solves if isinstance(g, complex)]
        reals = [(g, r) for g, _, r in solves if isinstance(g, float)]
        assert len(arrays) + len(links) + len(reals) == len(solves)
        assert arrays and all(np.iscomplexobj(g) and w is not None
                              for g, w in arrays)
        assert len(links) == 37 and all(r[3] is None for r in links)
        assert len(reals) == 1 and all(isinstance(r[3], float)
                                       for _, r in reals)


class TestIterationCap:
    """A point that has not stopped after _MAX_ITERS Newton steps fails;
    the solves that need the most steps stay far below that."""

    def test_cap_has_a_threefold_margin(self, monkeypatch):
        # _solve_at and eta_transform both solve through _solve_e2, so its
        # spy sees every solve. Measured maxima: 3 over the benchmark's
        # density calls, 27 at b-spline 2/1, beta 0.01 and 21 at genuine
        # rho 0.97, beta 0.003 (the budget scan's calls below beta 0.05),
        # 29 at genuine rho 0.9999, beta 1, gamma 1e14.
        # count_iterations replaces _solve_e2 by its spy; monkeypatch puts
        # the solver back after the test
        monkeypatch.setattr(respectra.rmt, "_solve_e2",
                            respectra.rmt._solve_e2)
        most = budget_scan.count_iterations()
        calls = density_workload() + [
            (law, xi, beta) for _, law, xi, beta in budget_scan.outside()
            if beta < 0.05]
        for law, xi, beta in calls:
            eigen_pdf(law, law, beta, xi=xi)
        assert len(calls) == 8
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        for law in (law_genuine(0.9999), law_upscaled(0.97, spline)):
            for beta in (0.003, 0.01, 0.03, 0.1, 0.3, 1.0):
                for gamma in np.logspace(-8, 14, 45):
                    eta_transform(law, law, beta, gamma)
        assert most[0] <= respectra.rmt._MAX_ITERS // 3, most[0]


class TestTangentStarts:
    """The sweep starts each point from E2 predicted with the tangent
    d log E2 / d log lambda that each solve returns."""

    @pytest.mark.parametrize("law,xi", [
        (law_genuine(0.97), 1.0),
        (law_upscaled(0.97, ResampleSpec(L=3, M=2, kernel=KERNELS["linear"])),
         1.5),
        (law_upscaled(0.97, ResampleSpec(L=2, M=1,
                                         kernel=KERNELS["b-spline"])), 2.0),
    ], ids=["genuine", "linear-3/2", "b-spline-2/1"])
    def test_tangent_matches_central_difference(self, solver_settings, law,
                                                xi):
        # in the gap below the support, at the peak and above it inside the
        # support, and in the upper tail: the tangent from the sums of a
        # default solve against a central difference of E2 solved to 1e-12
        # at lambda e^(+-1e-4), within 1e-5 relative (measured: 7.8e-7, at
        # the b-spline peak, where the sums are taken one Newton step short
        # of the root). Each solve starts from the E2 of the default call's
        # walk at its nearest grid point, on the physical branch
        beta, h = 0.5, 1e-4
        pdf = eigen_pdf(law, law, beta, xi=xi)
        edge = support_lower_edge(law, law, beta)
        atoms, zero_mass = _law_atoms(law), afze(beta, xi)
        peak = pdf.lambda_grid[np.argmax(pdf.density)]
        lams = (0.5 * edge, peak, 3.0 * edge, 2.0 * pdf.upper_edge)
        for lam, start in zip(lams, walk_e2(law, beta, xi, lams)):
            args = (atoms, atoms, beta, zero_mass)
            _, e2, _, _, rescued, tangent = _density_points(
                *args, np.array([lam]), pdf.nu, start)
            assert not rescued[0]
            with solver_settings(tolerance=1e-12):
                up, down = (_density_points(*args, np.array([lam * f]),
                                            pdf.nu, warm=e2)[1]
                            for f in (np.exp(h), np.exp(-h)))
            central = np.log(up / down)[0] / (2.0 * h)
            assert abs(tangent[0] - central) <= 1e-5 * abs(central), \
                f"lambda={lam:g}: {tangent[0]} against {central}"

    def test_unusable_prediction_falls_back_to_power_law(self):
        # a slope that is not finite, or so large that its start would
        # overflow exp, gives the chord's start; so does a finite one whose
        # start differs from it by more than a factor e^0.5; in log E2
        # (the chord is the power law) and in E2 over s near an edge alike
        e0, e1 = np.complex128(0.5 + 0.2j), np.complex128(0.3 + 0.4j)
        at = np.array([0.25, 0.5, 0.75])
        v0, v1 = np.log(e0), np.log(e1)
        power = e0 * (e1 / e0) ** at
        below = e0 * (e1 / e0) ** -1.0
        linear = e0 + (e1 - e0) * at
        with np.errstate(all="ignore"):
            for bad in (np.nan, np.inf, complex(np.inf, np.nan), 1e300,
                        -1e300j, 20.0):
                bad = np.complex128(bad)
                assert _predicted(*_hermite(at, 0.0, 1.0, v0, v1, bad, 0.0),
                                  True) == pytest.approx(power, rel=1e-14)
                assert _predicted(*_quadratic(-1.0, 0.0, v0, bad, 1.0, v1),
                                  True) == pytest.approx(below, rel=1e-14)
                assert _predicted(*_hermite(at, 0.0, 1.0, e0, e1, bad, 0.0),
                                  False) == pytest.approx(linear, rel=1e-14)
                assert _predicted(*_quadratic(-1.0, 0.0, e0, bad, 1.0, e1),
                                  False) == pytest.approx(2 * e0 - e1,
                                                          rel=1e-14)
        # slopes consistent with the chord reproduce it
        chord = v1 - v0
        assert _predicted(*_hermite(at, 0.0, 1.0, v0, v1, chord, chord),
                          True) == pytest.approx(power, rel=1e-14)
        assert _predicted(*_quadratic(-1.0, 0.0, v0, chord, 1.0, v1),
                          True) == pytest.approx(below, rel=1e-14)
        assert _predicted(*_hermite(at, 0.0, 1.0, e0, e1, e1 - e0, e1 - e0),
                          False) == pytest.approx(linear, rel=1e-14)

    def test_predictors_are_exact_on_their_polynomials(self):
        # over complex abscissae, as s is near an edge: the quadratic
        # reproduces a quadratic from a value, a slope and a second value,
        # the Hermite interpolant a cubic from both ends' values and slopes
        def p(x):
            return (0.3 - 0.1j) + (0.2 + 0.4j) * x - 0.05j * x * x \
                + 0.01 * x ** 3

        def dp(x):
            return (0.2 + 0.4j) - 0.1j * x + 0.03 * x * x

        x0, x1 = 0.3 + 0.1j, 0.05 + 0.8j
        at = np.array([0.1 + 0.3j, 0.2 + 0.5j])
        value, _ = _hermite(at, x0, x1, p(x0), p(x1), dp(x0), dp(x1))
        assert np.allclose(value, p(at), rtol=1e-14, atol=0.0)

        def q(x):
            return p(x) - 0.01 * x ** 3

        def dq(x):
            return dp(x) - 0.03 * x * x

        value, _ = _quadratic(0.0, x0, q(x0), dq(x0), x1, q(x1))
        assert value == pytest.approx(q(0.0), rel=1e-14)


class TestEdgeStarts:
    """Both ends of the support are folds, where E2 has a square-root
    branch point; the sweep starts the points near them in s = sqrt(side
    (z - lambda_e)) from the E2 of the fold."""

    @pytest.mark.parametrize("law", [
        law_genuine(0.0), law_genuine(0.97),
        law_upscaled(0.97, ResampleSpec(L=2, M=1,
                                        kernel=KERNELS["b-spline"])),
    ], ids=["MP", "genuine", "b-spline-2/1"])
    def test_edge_e2_solves_the_real_fixed_point(self, law):
        # at both folds (beta 0.5 leaves a gap on each law) E2_e =
        # -lambda_e u solves E2 = g(E2) at gamma = -1/lambda_e; at the fold
        # the root is double, so the residual is taken relative to E2
        atoms = _law_atoms(law)
        edges = _support_edges(atoms, atoms, 0.5)
        assert [side for _, _, side in edges] == [1.0, -1.0]
        pdf = eigen_pdf(law, law, 0.5)
        grid = pdf.lambda_grid
        e2 = staged_sweep(atoms, 0.5, pdf.zero_mass, grid, pdf.nu, grid)[1]
        for lam_e, e2_e, _ in edges:
            gamma = np.array([-1.0 / lam_e])
            f = _fixed_point_map(atoms, atoms, gamma, 0.5 * gamma,
                                 0.5 * gamma * gamma, np.array([e2_e]))[0]
            assert abs(f[0]) <= 1e-12 * abs(e2_e), f"lambda_e={lam_e:g}"
            # it is the limit of the swept, physical E2, which leaves it
            # as the square root of the distance (measured: 0.92-1.21
            # |E2_e| sqrt(|z - lambda_e| / lambda_e) at the grid points
            # two on each side of the edge)
            k = np.searchsorted(grid, lam_e)
            near = np.arange(max(k - 2, 0), min(k + 2, len(grid)))
            dist = np.abs(grid[near] + 1j * pdf.nu - lam_e) / lam_e
            assert np.all(np.abs(e2[near] - e2_e)
                          <= 2.0 * abs(e2_e) * np.sqrt(dist)), lam_e

    @pytest.mark.parametrize("kernel,lnum,m,rho,beta", [
        ("b-spline", 2, 1, 0.9, 0.6),
        ("linear", 3, 2, 0.97, 0.34),
        ("catmull-rom", 3, 2, 0.97, 0.79),
        ("b-spline", 2, 1, 0.98, 0.07),
    ])
    def test_link_below_the_top_keeps_the_first_moment(self, kernel, lnum, m,
                                                       rho, beta):
        # these calls of the beta scan (tests/budget_scan.py) put the link
        # just below the top, inside the support, on the root with no
        # density when it started from the top link's E2: first-moment
        # ratios 0.971-0.989 and one rescue each
        spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[kernel])
        law = law_upscaled(rho, spec)
        nodes, weights = quadrature_nodes()
        mean = law.mean(nodes, weights)
        pdf = eigen_pdf(law, law, beta)
        ratio = pdf.first_moment() / (beta * mean * mean)
        assert abs(ratio - 1.0) <= 1e-2, ratio
        assert pdf.rescued_points == 0


class TestStieltjes:
    """S(z) = gamma eta(gamma) at gamma = -1/z, solved from a start on the
    physical branch."""

    def test_mp_density_at_unit_lambda(self, solver_settings):
        # beta=1 MP density at lambda = sigma^2 = 1: sqrt(3)/(2 pi); MP at
        # beta 1 has no zero mass, so the density is Im S/pi
        law = law_genuine(0.0)
        atoms = _LawAtoms(law)
        start = walk_e2(law, 1.0, 1.0, [1.0])
        with solver_settings(tolerance=1e-12):
            density = _density_points(atoms, atoms, 1.0, 0.0, np.array([1.0]),
                                      1e-4, start)[0]
        assert density[0] == pytest.approx(mp_density(1.0, 1.0)[()],
                                           rel=1e-2)

    def test_decay_far_from_support(self):
        # at |z| = 1e6 the paper-style cold value is the physical root to
        # O(|gamma|)
        atoms = _LawAtoms(law_genuine(0.5))
        gamma = np.array([-1.0 / (1.0 + 1e6j)])
        eta = _solve_e2(atoms, atoms, 1.0, gamma,
                        warm=cold_starts(atoms, gamma))[3]
        s = gamma[0] * eta[0]
        assert abs(s - gamma[0]) < 1e-5


def direct_eta(law, atoms, beta, gamma, e2):
    """eta = E[1/(1 + gamma beta D E2)] at the given E2 from its
    definition: summed over every atom of D where the law takes atoms, and
    over the 16 384 atoms of exact_sums where it takes closed forms."""
    gamma, e2 = np.atleast_1d(gamma), np.atleast_1d(e2)
    if isinstance(atoms, _LawForms):
        return exact_sums(law, gamma * beta * e2)[3]
    return atoms.mass + np.add.reduce(atoms.weights / (
        1.0 + (gamma * beta * e2)[:, None] * atoms.values), axis=1)


class TestEtaIdentity:
    """The solver returns eta with E2: a kernel law's from the map's own
    sums, eta = mass + sum(w) - gamma beta E2 E1, with E1 moved to the
    returned E2 to second order; a genuine or linear law's from its closed
    form at the returned E2."""

    @pytest.mark.parametrize("rho", [0.9, 0.97])
    def test_densities_match_a_direct_sum(self, rho, monkeypatch):
        # every row _density_points returns over the beta = 1 laws (genuine
        # and four kernels at 3/2 and 2/1), the sqrt probe at the grid floor
        # included, against the density from eta's definition at the E2
        # it returns. A first-order E1 (no sum(w h^3) term) moves the
        # probe of b-spline 2/1, rho 0.97 by 1.3e-10 of the peak
        rows = []
        solve = respectra.rmt._density_points

        def spy(atoms_d, atoms_t, beta, zero_mass, lam, nu, warm=None):
            out = solve(atoms_d, atoms_t, beta, zero_mass, lam, nu, warm)
            rows.append((atoms_d, beta, zero_mass, lam, nu, out))
            return out

        monkeypatch.setattr(respectra.rmt, "_density_points", spy)
        laws = [(law_genuine(rho), 1.0)]
        for name in ("linear", "catmull-rom", "b-spline", "lanczos3"):
            for lnum, m in ((3, 2), (2, 1)):
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                laws.append((law_upscaled(rho, spec), spec.xi))
        for law, xi in laws:
            rows.clear()
            peak = eigen_pdf(law, law, 1.0, xi=xi).density.max()
            assert len(rows) > 1
            for atoms, beta, zero_mass, lam, nu, out in rows:
                gamma = -1.0 / (lam + 1j * nu)
                s = gamma * direct_eta(law, atoms, beta, gamma, out[1])
                direct = s.imag / np.pi \
                    - zero_mass * nu / (np.pi * (lam * lam + nu * nu))
                err = np.abs(out[0] - direct).max()
                assert err <= 1e-12 * peak, (law.descriptor, lam.min(), err)

    def test_eta_transform_matches_a_direct_sum(self):
        # within 1e-15 absolute, against the definition at the solver's E2;
        # relative to eta a kernel law's identity loses precision only
        # where eta is near 0 (1.3e-9 at eta 1e-7, MP, beta 1, gamma 1e14,
        # when MP took atoms)
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        for law in (law_genuine(0.0), law_genuine(0.97), law_genuine(0.9999),
                    law_upscaled(0.97, spline)):
            atoms = _law_atoms(law)
            for beta in (0.25, 1.0):
                for gamma in np.logspace(-4, 14, 37).tolist():
                    e2 = _solve_e2(atoms, atoms, beta, gamma)[0]
                    eta = eta_transform(law, law, beta, gamma)
                    assert abs(eta - direct_eta(law, atoms, beta, gamma,
                                                e2)[0]) \
                        <= 1e-15, (law.descriptor, beta, gamma)


class TestEigenPdf:
    def test_mp_support_edges(self):
        law = law_genuine(0.0)
        pdf = eigen_pdf(law, law, 0.5)
        lo = (1 - np.sqrt(0.5)) ** 2
        hi = (1 + np.sqrt(0.5)) ** 2
        step = np.diff(np.log(pdf.lambda_grid)).max()
        assert support_lower_edge(law, law, 0.5) == pytest.approx(
            lo, rel=1e-12)
        assert abs(np.log(pdf.upper_edge / hi)) <= 2 * step
        assert pdf.upper_edge == pytest.approx(hi, rel=1e-12)

    @staticmethod
    def grid_from_near_zero(law, beta):
        # 512 points from 1e-8 beta E[D] E[T] to the default top: the
        # default grid of a law with a gap starts at its lower fold and
        # has no point near zero
        atoms = _LawAtoms(law)
        top = 1.02 * _support_edges(atoms, atoms, beta)[0][0]
        return np.geomspace(1e-8 * beta * atoms.mean * atoms.mean, top, 512)

    def test_mp_density_vanishes_below_lower_edge(self):
        # error in E2 is amplified by |S| ~ zero_mass/|lambda + i nu| near
        # zero; it must not show up as density outside the support
        law = law_genuine(0.0)
        for beta in (0.5, 0.25):
            pdf = eigen_pdf(law, law, beta,
                            grid=self.grid_from_near_zero(law, beta))
            lo = (1 - np.sqrt(beta)) ** 2
            below = pdf.lambda_grid < 0.9 * lo
            assert pdf.density[below].max() <= 1e-6 * pdf.density.max()
            assert support_lower_edge(law, law, beta) == pytest.approx(
                lo, rel=1e-12)

    def test_mp_rounding_noise_is_not_rescued_or_clamped(self,
                                                         solver_settings):
        # near zero Im S/pi and the subtracted point mass are both ~1e7, so
        # densities of -1e-9 there are within the evaluation-error budget;
        # at tolerance 0 that budget is the map's rounding times |S|/pi,
        # not 1e-12, which took 13 points of this grid for the nonphysical
        # root and clamped 8
        law = law_genuine(0.0)
        grid = self.grid_from_near_zero(law, 0.25)
        for settings in ({}, {"tolerance": 0.0}):
            with solver_settings(**settings):
                pdf = eigen_pdf(law, law, 0.25, grid=grid)
            assert pdf.rescued_points == 0, settings
            assert pdf.clamped_points == 0, settings

    def test_support_edge_oracle_brackets(self):
        # brackets from tolerance-1e-13 densities for nu from 1e-6 down to
        # 1e-10: below the lower end the density scales with nu (outside
        # the support), at the upper end it does not (inside)
        cases = (("linear", 0.1860, 0.1862), ("b-spline", 0.02153, 0.02154))
        for name, lo, hi in cases:
            spec = ResampleSpec(L=2, M=1, kernel=KERNELS[name])
            law = law_upscaled(0.95, spec)
            edge = support_lower_edge(law, law, 0.125)
            assert lo <= edge <= hi, f"{name}: {edge}"

    def test_density_matches_tight_solve(self, solver_settings):
        cases = ((0.97, None, 0.25), (0.97, None, 0.5), (0.97, None, 1.0),
                 (0.97, ("b-spline", 2, 1), 0.5),
                 (0.97, ("linear", 3, 2), 0.5),
                 (0.97, ("lanczos3", 3, 2), 1.0))
        for rho, kernel, beta in cases:
            if kernel is None:
                law, xi = law_genuine(rho), 1.0
            else:
                spec = ResampleSpec(L=kernel[1], M=kernel[2],
                                    kernel=KERNELS[kernel[0]])
                law, xi = law_upscaled(rho, spec), spec.xi
            pdf = eigen_pdf(law, law, beta, xi=xi)
            with solver_settings(tolerance=1e-12):
                ref = eigen_pdf(law, law, beta, xi=xi, grid=pdf.lambda_grid,
                                nu=pdf.nu)
            err = np.abs(pdf.density - ref.density).max()
            assert err <= 1e-5 * ref.density.max(), f"{law.descriptor}"

    def test_tolerance_below_rounding_stops_at_the_maps_rounding(
            self, solver_settings):
        # with no step small enough, each point stops once its residual is
        # within the map's rounding; without that stop every one of these
        # 27 calls would sit at its root until the iteration cap. The
        # default solve lies within its tolerance of the peak of the
        # rounding-level one (measured: 5.3e-8, MP at beta 0.25)
        laws = [(law_genuine(0.0), 1.0), (law_genuine(0.9), 1.0),
                (law_genuine(0.97), 1.0)]
        for name, lnum, m in (("linear", 3, 2), ("b-spline", 3, 2),
                              ("catmull-rom", 2, 1), ("lanczos3", 2, 1),
                              ("linear", 2, 1), ("b-spline", 2, 1)):
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            laws.append((law_upscaled(0.97, spec), spec.xi))
        for law, xi in laws:
            for beta in (0.25, 0.5, 1.0):
                pdf = eigen_pdf(law, law, beta, xi=xi)
                with solver_settings(tolerance=0.0):
                    exact = eigen_pdf(law, law, beta, xi=xi,
                                      grid=pdf.lambda_grid, nu=pdf.nu)
                assert np.abs(pdf.density - exact.density).max() \
                    <= 1e-6 * exact.density.max(), \
                    f"{law.descriptor} beta={beta}"

    def test_negative_density_rescued_from_conjugate_root(self, caplog):
        # a cold start at this point lands on the nonphysical root; the
        # rescue must recover what a sweep warm started from above finds.
        # eigen_pdf starts cold only above the support, so the cold start
        # is made directly; a given grid that tops at the point is walked
        # into from above and needs no rescue
        law = law_upscaled(0.9, ResampleSpec(L=3, M=2))
        atoms = _LawAtoms(law)
        lam, nu = 0.120091, 7.27324e-7
        start = cold_starts(atoms, -1.0 / (lam + 1j * nu))
        with caplog.at_level(logging.DEBUG, logger="respectra.rmt"):
            density, _, budget, _, rescued, _ = _density_points(
                atoms, atoms, 0.125, afze(0.125, 1.5), np.array([lam]), nu,
                start)
        assert rescued[0]
        assert density[0] >= -budget[0]
        assert any("conj(E2)" in r.getMessage() for r in caplog.records)
        sweep = eigen_pdf(law, law, 0.125, xi=1.5,
                          grid=np.geomspace(lam, 0.5, 200), nu=nu)
        assert sweep.rescued_points == 0
        assert density[0] == pytest.approx(sweep.density[0], rel=1e-6)
        pdf = eigen_pdf(law, law, 0.125, xi=1.5, grid=[0.11, lam], nu=nu)
        assert pdf.rescued_points == 0
        assert pdf.clamped_points == 0
        assert pdf.density[-1] == pytest.approx(sweep.density[0], rel=1e-6)

    def test_points_solved_together_match_points_solved_alone(self):
        # a point's density, E2, budget, iterations and rescue do not depend
        # on the other points of its batch; lambda = 0.120091 is the point
        # whose paper-style cold start needs the conj(E2) rescue
        law = law_upscaled(0.9, ResampleSpec(L=3, M=2))
        atoms = _LawAtoms(law)
        lam, nu = np.append(np.geomspace(0.05, 2.0, 23), 0.120091), 7.27324e-7
        start = cold_starts(atoms, -1.0 / (lam + 1j * nu))
        args = (atoms, atoms, 0.125, afze(0.125, 1.5))
        batch = _density_points(*args, lam, nu, start)
        assert batch[4][-1] and not batch[4][:-1].all()
        for k in range(len(lam)):
            alone = _density_points(*args, lam[k:k + 1], nu, start[k:k + 1])
            for got, want in zip(batch, alone):
                assert np.array_equal(got[k:k + 1], want), f"lambda={lam[k]}"

    def test_given_grid_reproduces_default_call(self):
        # a law with a gap below its support, and a beta = 1 law whose
        # support reaches zero, so the sqrt probe moves its grid floor; a
        # default grid of other than 512 points is walked together with
        # the 512-point one, and so is its replay
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        for law, beta, xi in ((law_genuine(0.97), 0.5, 1.0),
                              (law_upscaled(0.97, spline), 1.0, 2.0)):
            for points in (17, 64, 512):
                pdf = eigen_pdf(law, law, beta, xi=xi, points=points)
                assert pdf.nu == 1e-4 * pdf.lambda_grid[0]
                again = eigen_pdf(law, law, beta, xi=xi,
                                  grid=pdf.lambda_grid, nu=pdf.nu)
                assert np.array_equal(again.density, pdf.density), points
                assert again.solver_iterations == pdf.solver_iterations

    def test_dense_default_grid_walks_alone(self):
        # a default grid of 8 192 points has the 512-point grid's ends and
        # finer steps, so it is swept without that grid's 510 inner points,
        # which took 9 260 iterations; replayed as a given grid it is swept
        # alone as well
        law = law_genuine(0.97)
        nodes, weights = quadrature_nodes()
        mean = law.mean(nodes, weights)
        pdf = eigen_pdf(law, law, 0.5, points=8192)
        assert pdf.solver_iterations < 9260
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-2)
        assert pdf.first_moment() == pytest.approx(0.5 * mean * mean,
                                                   rel=1e-2)
        assert pdf.rescued_points == pdf.clamped_points == 0
        again = eigen_pdf(law, law, 0.5, grid=pdf.lambda_grid, nu=pdf.nu)
        assert np.array_equal(again.density, pdf.density)
        assert again.solver_iterations == pdf.solver_iterations

    def test_default_512_point_call_is_its_merged_walk(self):
        # the 512-point default grid is the walk itself: swept alone, it
        # gives the bits and the 666 iterations of its merge with the walk
        law = law_genuine(0.97)
        atoms, zero_mass = _law_atoms(law), afze(0.5, 1.0)
        pdf = eigen_pdf(law, law, 0.5)
        assert pdf.solver_iterations == 666
        dens, _, its = staged_sweep(atoms, 0.5, zero_mass, pdf.lambda_grid,
                                    pdf.nu, pdf.lambda_grid)
        assert np.array_equal(pdf.density, np.maximum(dens, 0.0))
        assert its.sum() == 666

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("law", [
        law_genuine(0.0), law_genuine(0.97),
        law_upscaled(0.97, ResampleSpec(L=2, M=1,
                                        kernel=KERNELS["b-spline"])),
    ], ids=["MP", "genuine", "b-spline-2/1"])
    def test_part_of_the_default_grid_reproduces_it(self, law, beta):
        # a given grid is walked into from above the support like the
        # default one: its slices topped at 5-95 % of it, and its pairs of
        # neighbouring points there, read the default call's densities
        # within 1e-6 of the peak. Started cold at its own top inside the
        # support, such a grid at beta 1 read 7.05e-11 against 64.2
        # (genuine, point 101) and 8.2e-8 against 366 (b-spline, point 102)
        pdf = eigen_pdf(law, law, beta)
        grid, peak = pdf.lambda_grid, pdf.density.max()
        for top in (26, 102, 179, 256, 332, 409, 485):
            for part in (slice(0, top + 1), slice(top - 1, top + 1)):
                got = eigen_pdf(law, law, beta, grid=grid[part], nu=pdf.nu)
                assert np.abs(got.density - pdf.density[part]).max() \
                    <= 1e-6 * peak, f"points {part.start}-{top}"

    def test_batched_walk_matches_two_level_sweep(self):
        # densities and iterations do not depend on how the walk batches
        # its points: these 100 and the 512 of the default grid, all above
        # 0.05, give 44 links, 114 stride-4 points and 454 others, solved
        # in batches of 128 from the top and by the oracle in chunks of 32
        # from the bottom
        law = law_upscaled(0.9, ResampleSpec(L=3, M=2))
        atoms = _law_atoms(law)
        grid, nu = np.geomspace(0.05, 2.0, 100), 7.27324e-7
        walk = eigen_pdf(law, law, 0.125, xi=1.5).lambda_grid
        assert len(np.union1d(grid, walk[walk > grid[0]])) == 612
        pdf = eigen_pdf(law, law, 0.125, xi=1.5, grid=grid, nu=nu)
        dens, _, its = staged_sweep(atoms, 0.125, afze(0.125, 1.5), grid, nu,
                                    walk)
        assert np.array_equal(pdf.density, np.maximum(dens, 0.0))
        assert pdf.solver_iterations == its.sum()

    def test_small_grids_clip_the_chain_at_zero(self):
        # the links 1, 2, 4 and 8 below the top fall below index 0 on the
        # smallest walks. Default grids of 2, 3, 5 and 17 points and a
        # 10-point custom grid are walked with the 512-point default grid
        # and read back at their own points; given grids of 2, 3 and 5
        # points above that grid's top are walked alone, on the clipped
        # chain
        law = law_genuine(0.97)
        atoms, zero_mass = _law_atoms(law), afze(0.5, 1.0)
        walk = eigen_pdf(law, law, 0.5).lambda_grid
        pdfs = [eigen_pdf(law, law, 0.5, points=n) for n in (2, 3, 5, 17)]
        pdfs.append(eigen_pdf(law, law, 0.5, grid=np.geomspace(0.01, 40.0, 10),
                              nu=1e-3))
        pdfs += [eigen_pdf(law, law, 0.5,
                           grid=walk[-1] * np.geomspace(1.1, 4.0, n))
                 for n in (2, 3, 5)]
        for pdf in pdfs:
            dens, _, its = staged_sweep(atoms, 0.5, zero_mass,
                                        pdf.lambda_grid, pdf.nu, walk)
            assert np.array_equal(pdf.density, np.maximum(dens, 0.0)), \
                len(pdf.lambda_grid)
            assert pdf.solver_iterations == its.sum()

    @pytest.mark.parametrize("beta", [1e-5, 1e-3, 0.25, 0.5, 1.0])
    def test_upper_edge_matches_mp(self, beta):
        atoms = _LawAtoms(law_genuine(0.0))
        assert _fold_edge(atoms, atoms, beta, upper=True)[0] \
            == pytest.approx((1 + np.sqrt(beta)) ** 2, rel=1e-12)

    def test_upper_edge_matches_brute_scan_and_tops_the_grid(self):
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        for law, xi in ((law_genuine(0.97), 1.0),
                        (law_upscaled(0.97, spline), 2.0)):
            atoms = _law_atoms(law)
            edge = _fold_edge(atoms, atoms, 0.5, upper=True)[0]
            assert edge == pytest.approx(brute_upper_edge(law, 0.5),
                                         rel=1e-12), law.descriptor
            grid = eigen_pdf(law, law, 0.5, xi=xi, points=16).lambda_grid
            assert grid[-1] == 1.02 * edge

    def test_no_law_with_a_gap_extends_the_grid_floor(self):
        # the sqrt probe runs only where the support reaches zero; where it
        # has a gap the floor is 0.98 times the lower fold, and the density
        # there, smoothed by the default nu, is far from the extension
        # 2 A sqrt(lo) = 2 f(lo) lo > 1e-3 beta on every such law of the scan
        gaps = 0
        for law, xi, beta in scan_laws():
            atoms = _LawAtoms(law)
            if _support_reaches_zero(atoms, atoms, beta):
                continue
            gaps += 1
            pdf = eigen_pdf(law, law, beta, xi=xi)
            lo = pdf.lambda_grid[0]
            assert lo == 0.98 * support_lower_edge(law, law, beta)
            assert 2.0 * pdf.density[0] * lo <= 1e-3 * beta, \
                f"{law.descriptor} beta={beta}"
        assert gaps == 135

    def test_sqrt_probe_agrees_with_the_sweep(self):
        # where the support reaches zero, the probe extends the grid floor
        # exactly when the swept density at the unextended floor shows the
        # divergence; a cold start at the same nu missed it for b-spline
        # 3/2, rho 0.97 (3.2e-5 against 1 619, mass 0.991)
        reach = 0
        for law, xi, beta in scan_laws():
            atoms = _law_atoms(law)
            if not _support_reaches_zero(atoms, atoms, beta):
                continue
            reach += 1
            pdf = eigen_pdf(law, law, beta, xi=xi)
            lo = 1e-8 * (beta * atoms.mean * atoms.mean)
            grid = np.geomspace(lo, pdf.lambda_grid[-1], 512)
            f = eigen_pdf(law, law, beta, xi=xi, grid=grid,
                          nu=1e-4 * lo).density[0]
            assert (pdf.lambda_grid[0] < lo) == (2.0 * f * lo > 1e-3 * beta), \
                f"{law.descriptor} beta={beta}"
        assert reach == 45

    @pytest.mark.parametrize("kernel,rho,beta", [
        (None, 0.999, 0.25), (None, 0.999, 0.5), (None, 0.9999, 0.25),
        (("b-spline", 3, 2), 0.98, 0.95), (("b-spline", 2, 1), 0.98, 0.95),
        (None, 0.9999, 0.5), (("b-spline", 3, 2), 0.98, 0.99),
    ])
    def test_default_nu_keeps_the_mass_next_to_zero(self, kernel, rho,
                                                     beta):
        # the lower edge lies near zero or the support reaches it; nu at
        # 1e-4 of the grid median smoothed mass off the grid's bottom:
        # total mass 0.989, 0.940, 0.901, 0.974 and 0.982. A floor at
        # 1e-8 beta E[D] E[T] left the bottom of the last two supports
        # untabulated, above the lower edge 0.0228 (0.878) and far below
        # it at 6.2e-6 against 1.5e-7 (0.9899)
        if kernel is None:
            law = law_genuine(rho)
        else:
            law = law_upscaled(rho, ResampleSpec(L=kernel[1], M=kernel[2],
                                                 kernel=KERNELS[kernel[0]]))
        assert eigen_pdf(law, law, beta).total_mass() == pytest.approx(
            1.0, abs=1e-2)

    @pytest.mark.parametrize("beta", [1e-3, 1e-5])
    def test_mp_continuous_mass_at_small_beta(self, beta):
        # the support shrinks around 1 as beta drops; a floor at 1e-8 beta
        # left its bottom off the grid: -8.8 % at beta 1e-3, -100 % at 1e-5
        law = law_genuine(0.0)
        pdf = eigen_pdf(law, law, beta)
        assert pdf.continuous_mass() == pytest.approx(beta, rel=1e-2)

    def test_density_matches_4096_atom_quadrature(self, solver_settings):
        # the criterion-3 laws, MP at beta 0.5, and at rho 0.99, where the
        # spectral peak is sharpest, genuine, b-spline 2/1 and lanczos3 3/2
        # at beta 0.5, against 4 096 atoms (128 panels) on the same grid
        # and nu: within 1e-8 of the peak, or no worse than 1 024 atoms
        # (32 panels) plus 1e-10 of the peak. Near zero the density is
        # Im S/pi minus a smeared point mass of size ~|S| (1e7 for MP), so
        # it is compared to within the rounding of that difference, 8 eps
        # times the smear, on top.
        cases = [(law_genuine(0.0), 1.0, 0.5)]
        for rho in (0.9, 0.97):
            laws = [(law_genuine(rho), 1.0)]
            for name in ("linear", "catmull-rom", "b-spline", "lanczos3"):
                for lnum, m in ((3, 2), (2, 1)):
                    spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                    laws.append((law_upscaled(rho, spec), spec.xi))
            cases += [(law, xi, beta) for law, xi in laws
                      for beta in (0.25, 0.5, 1.0)]
        cases.append((law_genuine(0.99), 1.0, 0.5))
        for name, lnum, m in (("b-spline", 2, 1), ("lanczos3", 3, 2)):
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            cases.append((law_upscaled(0.99, spec), spec.xi, 0.5))
        with solver_settings(quad_panels=128):
            assert len(quadrature_nodes()[0]) == 4096
        for law, xi, beta in cases:
            pdf = eigen_pdf(law, law, beta, xi=xi)
            on_grid = dict(xi=xi, grid=pdf.lambda_grid, nu=pdf.nu)
            with solver_settings(quad_panels=128):
                ref = eigen_pdf(law, law, beta, **on_grid)
                fine_edge = support_lower_edge(law, law, beta)
            peak = ref.density.max()
            smear = pdf.zero_mass * pdf.nu / (
                np.pi * (pdf.lambda_grid ** 2 + pdf.nu ** 2))
            diff = np.abs(pdf.density - ref.density)
            err = (diff - 8 * np.finfo(float).eps * smear).max()
            if err > 1e-8 * peak:
                with solver_settings(quad_panels=32):
                    mid = eigen_pdf(law, law, beta, **on_grid)
                floor = (np.abs(mid.density - ref.density)
                         - 8 * np.finfo(float).eps * smear).max()
                assert err <= floor + 1e-10 * peak, \
                    f"{law.descriptor} beta={beta}: {err / peak:.2e} of peak"
            assert support_lower_edge(law, law, beta) == pytest.approx(
                fine_edge, rel=1e-12)

    def test_density_bytes_do_not_depend_on_blas_threads(self):
        # two interpreters whose environments differ only in
        # OPENBLAS_NUM_THREADS
        script = ("import sys, respectra as r\n"
                  "law = r.law_genuine(0.97)\n"
                  "pdf = r.eigen_pdf(law, law, 0.5, points=96)\n"
                  "sys.stdout.write(pdf.density.tobytes().hex())\n")
        src = str(Path(respectra.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = [subprocess.run([sys.executable, "-c", script], check=True,
                               capture_output=True, text=True, timeout=120,
                               env=dict(env, OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]
        assert len(runs[0].stdout) == 96 * 16
        assert runs[0].stdout == runs[1].stdout

    def test_genuine_support_compresses_as_beta_drops(self):
        law = law_genuine(0.97)
        lams = [support_lower_edge(law, law, b) for b in (1.0, 0.5, 0.25)]
        assert lams[0] < lams[1] < lams[2]

    def test_support_edge_matches_mp(self):
        law = law_genuine(0.0)
        for beta in (0.125, 0.25, 0.5, 0.99, 0.999):
            edge = support_lower_edge(law, law, beta)
            assert edge == pytest.approx((1 - np.sqrt(beta)) ** 2, rel=1e-8)

    def test_support_edge_is_zero_when_support_reaches_zero(self):
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        for law in (law_genuine(0.97), law_upscaled(0.97, spline)):
            assert support_lower_edge(law, law, 1.0) == 0.0

    def test_support_edge_counts_zero_atoms_with_point_mass(self):
        # a law that is 0 on part of the angles has the edge of the law
        # with that part moved into its point mass. Every SpectralLaw is
        # positive at every angle, so both laws are stand-ins holding the
        # three fields the atoms read (hashable, as _law_atoms needs)
        nodes, weights = quadrature_nodes()
        p = weights[nodes < 1.0].sum() / np.pi
        cut = StandIn(zero_mass=0.0, angular_density=0.5 / np.pi,
                      transform=lambda w: np.where(w < 1.0, 1.0, 0.0))
        massed = StandIn(zero_mass=1.0 - p, angular_density=0.5 * p / np.pi,
                         transform=np.ones_like)
        for beta in (0.25, 0.5):
            assert support_lower_edge(cut, cut, beta) == pytest.approx(
                support_lower_edge(massed, massed, beta), rel=1e-12)

    def test_support_edge_rejects_beta_outside_unit_interval(self):
        law = law_genuine(0.9)
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(InputError, match=r"beta must lie in \(0, 1\]"):
                support_lower_edge(law, law, beta)

    def test_upscaled_total_probability(self):
        law = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        pdf = eigen_pdf(law, law, 0.5, xi=2.0)
        assert pdf.zero_mass == pytest.approx(0.75)
        assert pdf.continuous_mass() == pytest.approx(0.25, abs=1e-2)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-2)

    def test_omitted_xi_is_the_laws_factor(self):
        # without it an upscaled law got the genuine zero mass 1 - beta:
        # zero_mass 0.5 and total mass 0.872 for this law
        law = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        pdf = eigen_pdf(law, law, 0.5)
        assert pdf.xi == 2.0
        assert pdf.zero_mass == pytest.approx(0.75)
        assert pdf.total_mass() == pytest.approx(1.0, abs=1e-2)
        ref = eigen_pdf(law, law, 0.5, xi=2.0)
        assert np.array_equal(pdf.density, ref.density)

    def test_omitted_xi_rejects_laws_of_different_factors(self):
        up = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        with pytest.raises(InputError, match="laws carry different factors"):
            eigen_pdf(law_genuine(0.97), up, 0.5)

    def test_first_moment_identity(self):
        # trace identity: first moment = beta E[D] E[T]
        nodes, weights = quadrature_nodes()
        law = law_genuine(0.97)
        mean = law.mean(nodes, weights)
        pdf = eigen_pdf(law, law, 0.5)
        assert pdf.first_moment() == pytest.approx(0.5 * mean * mean,
                                                   rel=0.01)

    def test_density_nonnegative(self):
        law = law_upscaled(0.9, ResampleSpec(L=3, M=2,
                                             kernel=KERNELS["b-spline"]))
        pdf = eigen_pdf(law, law, 1.0, xi=1.5)
        assert pdf.density.min() >= 0.0

    def test_custom_grid_validation(self):
        law = law_genuine(0.5)
        with pytest.raises(InputError, match="grid must be finite"):
            eigen_pdf(law, law, 0.5, grid=np.array([0.0, 1.0]))
        with pytest.raises(InputError, match="grid must be finite"):
            eigen_pdf(law, law, 0.5, grid=np.array([2.0, 1.0]))
        for grid in ([np.nan, 1.0], [0.5, np.inf], [1.0]):
            with pytest.raises(InputError, match="grid must be finite"):
                eigen_pdf(law, law, 0.5, grid=np.array(grid), nu=1e-4)

    def test_rejects_nonfinite_nu_and_too_few_points(self):
        law = law_genuine(0.5)
        for nu in (np.nan, np.inf, -np.inf, 0.0, -1e-4):
            with pytest.raises(InputError, match="nu must be positive"):
                eigen_pdf(law, law, 0.5, nu=nu)
        for points in (1, 0, -3):
            with pytest.raises(InputError, match="points must be at least 2"):
                eigen_pdf(law, law, 0.5, points=points)

    def test_support_edge_monotone_in_rho_and_xi(self):
        # the smallest nonzero support point shrinks toward zero as the
        # correlation and the resampling factor approach 1
        edges = {}
        for rho in (0.9, 0.95, 0.98):
            for (lnum, m) in ((6, 5), (3, 2), (2, 1)):
                law = law_upscaled(rho, ResampleSpec(L=lnum, M=m))
                edges[(rho, lnum / m)] = support_lower_edge(
                    law, law, 0.125, xi=lnum / m)
        for xi in (1.2, 1.5, 2.0):
            assert edges[(0.98, xi)] < edges[(0.95, xi)] < edges[(0.9, xi)]
        for rho in (0.9, 0.95, 0.98):
            assert edges[(rho, 1.2)] < edges[(rho, 1.5)] < edges[(rho, 2.0)]

    def test_pdf_failure_reports_lambda(self, solver_settings):
        # every start takes Newton steps from its first iteration, and four
        # solve each point of this walk to 1e-14; at three one fails
        law = law_genuine(0.97)
        with solver_settings(tolerance=1e-14, max_iters=3), \
                pytest.raises(ConvergenceFailure) as err:
            eigen_pdf(law, law, 0.5, grid=np.array([1.0, 2.0]), nu=1e-4)
        assert "lambda" in str(err.value)

    def test_loose_link_failure_reports_lambda(self, solver_settings,
                                              monkeypatch):
        # MP at beta 0.5: lambda 1 lies inside the support [0.086, 2.914],
        # where nu = 1e-300 leaves gamma real to rounding and the fixed point
        # has no real root; a cold start there diverges. The walk enters the
        # support from its top link, 5, above it, and reads MP's density at
        # 1 to rounding. Starved of iterations, that top link, the loose
        # walk's first, fails before any point reaches _density_points, and
        # the failure reads as a failure there would
        law = law_genuine(0.0)
        atoms = _LawAtoms(law)

        def cold(lam):
            return np.array([lam]), 1e-300, cold_starts(
                atoms, -1.0 / (np.array([lam]) + 1e-300j))

        with pytest.raises(ConvergenceFailure) as cold_failure:
            _density_points(atoms, atoms, 0.5, afze(0.5, 1.0), *cold(1.0))
        assert "not converged after 100 iterations" \
            in str(cold_failure.value.__cause__)
        pdf = eigen_pdf(law, law, 0.5, grid=[1.0, 5.0], nu=1e-300)
        assert pdf.density[0] == pytest.approx(mp_density(1.0, 0.5)[()],
                                               rel=1e-12)
        solved = []

        def spy(*args):
            solved.append(args[4].tolist())
            return _density_points(*args)

        with solver_settings(max_iters=1):
            with pytest.raises(ConvergenceFailure) as there:
                _density_points(atoms, atoms, 0.5, afze(0.5, 1.0),
                                *cold(5.0))
            monkeypatch.setattr(respectra.rmt, "_density_points", spy)
            with pytest.raises(ConvergenceFailure) as err:
                eigen_pdf(law, law, 0.5, grid=[1.0, 5.0], nu=1e-300)
        assert solved == []
        assert str(err.value).startswith("inversion failed at lambda=5 ")
        assert str(err.value) == str(there.value)
        assert "not converged after 1 iterations" in str(err.value.__cause__)

    def test_density_workload_solver_iterations(self):
        # the six laws of the benchmark's density workload at their default
        # calls take 4 098 iterations; solving every chain link to the full
        # tolerance on the walk itself takes 5 292
        pdfs = [eigen_pdf(law, law, beta, xi=xi)
                for law, xi, beta in density_workload()]
        assert sum(pdf.solver_iterations for pdf in pdfs) <= 4200
        assert sum(pdf.rescued_points for pdf in pdfs) == 0

    def test_monte_carlo_agreement_small_scale(self):
        # empirical nonzero eigenvalues vs analytic conditional CDF, N=256
        law = law_genuine(0.97)
        pdf = eigen_pdf(law, law, 0.5)
        n, k = 256, 128
        eigs = []
        for s in range(6):
            x = generate_field(ArParams(rho=0.97, n=n), seed=100 + s)
            xk = x[:, :k]
            ev = np.linalg.eigvalsh(xk.T @ xk / n)
            eigs.append(ev[ev > 1e-9 * ev.max()])
        eigs = np.sort(np.concatenate(eigs))
        emp = np.arange(1, len(eigs) + 1) / len(eigs)
        ana = np.interp(eigs, pdf.lambda_grid, pdf.cdf_nonzero())
        assert np.abs(emp - ana).max() < 0.08


def inline_plan(n):
    """The sweep's order written out from its definition: the chain is
    every 16th point, the top and the points 1, 2, 4 and 8 below it
    (clipped at 0); then every 4th point not yet known and last every
    other point, each from the top down with the nearest known points
    below and above it."""
    top = [max(n - 1 - k, 0) for k in (0, 1, 2, 4, 8)]
    chain = sorted(set(range(0, n, 16)) | set(top))
    known, fills = set(chain), []
    for stride in (4, 1):
        rest = sorted(set(range(0, n, stride)) - known, reverse=True)
        ordered = sorted(known)
        pos = np.searchsorted(ordered, rest)
        fills.append((rest, [ordered[p - 1] for p in pos],
                      [ordered[p] for p in pos]))
        known |= set(rest)
    return chain[::-1], fills


class TestFixedCost:
    """What depends only on the law or on the sweep's length is built once:
    a law's atoms per quadrature rule, and the walk plan per length."""

    def test_atoms_follow_the_quadrature_rule(self, solver_settings):
        # a memo keyed on the law alone would hand the 4 096-atom solves
        # the 128 atoms already built, and compare them with themselves. A
        # genuine or linear law takes closed forms under every rule
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        law = law_upscaled(0.97, spline)
        linear = law_upscaled(0.97, ResampleSpec(L=3, M=2))
        assert _law_atoms(law).values.size == 128
        with solver_settings(quad_panels=128):
            assert _law_atoms(law).values.size == 4096
            assert _law_atoms(law_upscaled(0.97, spline)).wv.size == 4096
            assert isinstance(_law_atoms(law_genuine(0.97)), _LawForms)
            assert isinstance(_law_atoms(linear), _LawForms)
        assert _law_atoms(law).values.size == 128
        assert isinstance(_law_atoms(law_genuine(0.97)), _LawForms)

    def test_equal_laws_share_read_only_atoms(self):
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        one, other = law_upscaled(0.97, spline), law_upscaled(0.97, spline)
        assert one is not other and one == other
        atoms = _law_atoms(one)
        assert _law_atoms(other) is atoms
        twin = atoms.as_complex()
        for arrays in (atoms.values, atoms.weights, atoms.wv, atoms.inv,
                       atoms.wpos, *atoms.positive, twin.inv, twin.wpos):
            with pytest.raises(ValueError, match="read-only"):
                arrays[0] = 1.0

    def test_shared_atoms_give_the_bits_of_a_fresh_call(self):
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        one, other = law_upscaled(0.97, spline), law_upscaled(0.97, spline)
        shared = [eigen_pdf(one, other, 0.5) for _ in range(2)]
        _atoms_of.cache_clear()
        fresh = eigen_pdf(law_upscaled(0.97, spline),
                          law_upscaled(0.97, spline), 0.5)
        for pdf in shared:
            assert np.array_equal(pdf.lambda_grid, fresh.lambda_grid)
            assert np.array_equal(pdf.density, fresh.density)
            assert pdf.upper_edge == fresh.upper_edge
            assert pdf.solver_iterations == fresh.solver_iterations
        assert support_lower_edge(one, other, 0.5) \
            == _fold_edge(_LawAtoms(one), _LawAtoms(other), 0.5, False)[0]

    @pytest.mark.parametrize("n", [2, 17, 512, 8192])
    def test_kept_walk_plan_matches_its_definition(self, n):
        links, down, fills = _walk_plan(n)
        assert _walk_plan(n)[1] is down
        chain, plain = inline_plan(n)
        assert list(links) == chain and down.tolist() == chain
        assert len(fills) == len(plain)
        for kept, written in zip(fills, plain):
            for got, want in zip(kept, written):
                assert got.tolist() == want
                assert not got.flags.writeable

    def test_no_plan_is_kept_for_the_largest_sweep(self, monkeypatch):
        # a sweep of MAX_POINTS points builds its plan for its call alone
        built = []
        monkeypatch.setattr(respectra.rmt, "_plan",
                            lambda *key: built.append(key) or key)
        _kept_plan.cache_clear()
        assert _walk_plan(MAX_POINTS)[0] == MAX_POINTS
        assert built and _kept_plan.cache_info().currsize == 0
        _walk_plan(512)
        assert _kept_plan.cache_info().currsize == 1

    def test_sweep_past_the_kept_plans(self):
        # a default grid of 2**14 + 1 points sweeps past _PLAN_POINTS: its
        # plan is built for its call and not kept, a replay on its grid
        # and nu gives the same bits, and both budgets hold
        law = law_genuine(0.97)
        mean = law.mean(*quadrature_nodes())
        _kept_plan.cache_clear()
        pdf = eigen_pdf(law, law, 0.5, points=_PLAN_POINTS + 1)
        again = eigen_pdf(law, law, 0.5, grid=pdf.lambda_grid, nu=pdf.nu)
        assert _kept_plan.cache_info().currsize == 0
        assert again.density.tobytes() == pdf.density.tobytes()
        assert abs(pdf.total_mass() - 1.0) <= 1e-2
        assert pdf.first_moment() == pytest.approx(0.5 * mean * mean,
                                                   rel=0.01)


class TestWorkArrays:
    """A complex batch writes every map evaluation into four (points x
    atoms) work arrays that its thread keeps, so the sweep's batches of
    128 allocate no such array once the arrays have grown."""

    def test_batch_allocates_no_points_by_atoms_array(self):
        # after a warm-up solve, a 128-point call peaks below one 128 x 128
        # complex array (256 KiB); arrays allocated at each evaluation
        # would take four of them
        atoms = _LawAtoms(law_upscaled(0.9, ResampleSpec(L=3, M=2)))
        lam, nu = np.geomspace(0.05, 2.0, 128), 7.27324e-7
        args = (atoms, atoms, 0.125, afze(0.125, 1.5), lam, nu,
                cold_starts(atoms, -1.0 / (lam + 1j * nu)))
        warm = _density_points(*args)
        assert warm[3].max() > 2  # several evaluations of the batch
        tracemalloc.start()
        try:
            again = _density_points(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * atoms.inv.size * 16, f"peak {peak} bytes"
        for got, want in zip(again, warm):
            assert got.tobytes() == want.tobytes()

    def test_threads_keep_their_own_arrays(self):
        # two threads sweeping different laws at once each get the bits of
        # a serial call; arrays shared between the threads would be
        # overwritten by the other thread's evaluations
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        laws = (law_genuine(0.97), law_upscaled(0.97, spline))
        grids = [eigen_pdf(law, law, 0.5).lambda_grid[::3] for law in laws]

        start = threading.Barrier(2, timeout=60)

        def sweeps(k, together=False):
            if together:
                start.wait()
            law = laws[k]
            return [eigen_pdf(law, law, 0.5),
                    eigen_pdf(law, law, 0.5, grid=grids[k])]

        serial = [sweeps(k) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [pool.submit(sweeps, k, True) for k in range(2)]
                together = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(together, serial):
            for pdf, ref in zip(got, want):
                assert pdf.density.tobytes() == ref.density.tobytes()
                assert pdf.solver_iterations == ref.solver_iterations


# the upper and lower support edges of fig5's 40 laws at beta 0.125, from
# the bracketed regula falsi (Illinois) folds this module used before its
# Newton folds. The linear laws take closed forms: their rows are the
# closed forms' folds, within 1.1e-16 of Newton folds over 16 384 atoms
# with Q = (1 - rho)^2 + 4 rho sin^2(omega/2) at rho 0.9 and 0.98 (the
# atom rows read up to 1.4e-13 off, from the cancelling Q of the atoms)
FIG5_EDGES = {
    ("linear", 0.9, 3, 2): (1023.8936290236484, 0.11970404291762773),
    ("linear", 0.92, 3, 2): (1987.8723742970483, 0.11744942788284078),
    ("linear", 0.94, 3, 2): (4684.322477719528, 0.11477681861264458),
    ("linear", 0.96, 3, 2): (15718.097079530779, 0.11165630783592424),
    ("linear", 0.98, 3, 2): (125027.51633543873, 0.1080880605343518),
    ("linear", 0.95, 6, 5): (6449.955818677085, 0.07833856269525097),
    ("linear", 0.95, 7, 5): (7524.244943314676, 0.09014185642893335),
    ("linear", 0.95, 8, 5): (8598.615242092099, 0.10209105136488646),
    ("linear", 0.95, 9, 5): (9673.039657040052, 0.11413716877691624),
    ("linear", 0.95, 2, 1): (10780.231166311924, 0.18614124852311098),
    ("catmull-rom", 0.9, 3, 2): (1037.6471291541527, 0.16442637926030887),
    ("catmull-rom", 0.92, 3, 2): (2009.1025416130237, 0.16131609689323084),
    ("catmull-rom", 0.94, 3, 2): (4721.616501286446, 0.15764085132657207),
    ("catmull-rom", 0.96, 3, 2): (15801.027766687797, 0.1533555039017731),
    ("catmull-rom", 0.98, 3, 2): (125355.4235944821, 0.1484565487927628),
    ("catmull-rom", 0.95, 6, 5): (6499.316410106066, 0.12395012639331858),
    ("catmull-rom", 0.95, 7, 5): (7582.530393091008, 0.14459294500388822),
    ("catmull-rom", 0.95, 8, 5): (8665.746052728571, 0.1652406372374859),
    ("catmull-rom", 0.95, 9, 5): (9748.962547290643, 0.1858907312132201),
    ("catmull-rom", 0.95, 2, 1): (10833.9350322083, 0.2122764273688305),
    ("b-spline", 0.9, 3, 2): (1002.3522603395913, 0.01650957249690247),
    ("b-spline", 0.92, 3, 2): (1954.6741102721485, 0.016291566354941993),
    ("b-spline", 0.94, 3, 2): (4626.101352458856, 0.01599568320513047),
    ("b-spline", 0.96, 3, 2): (15588.851739413542, 0.015614935680713359),
    ("b-spline", 0.98, 3, 2): (124517.37666222738, 0.01514798075553492),
    ("b-spline", 0.95, 6, 5): (6390.136332717429, 0.012606853151755583),
    ("b-spline", 0.95, 7, 5): (7455.1584526406505, 0.01470661881757842),
    ("b-spline", 0.95, 8, 5): (8520.180758895596, 0.01680681825762362),
    ("b-spline", 0.95, 9, 5): (9585.203157938236, 0.018907230736040125),
    ("b-spline", 0.95, 2, 1): (10650.420708361025, 0.021535021987412833),
    ("lanczos3", 0.9, 3, 2): (1031.3160028741609, 0.18907017468879564),
    ("lanczos3", 0.92, 3, 2): (1994.5055855409926, 0.18557063235698174),
    ("lanczos3", 0.94, 3, 2): (4681.946929775768, 0.18141074175705998),
    ("lanczos3", 0.96, 3, 2): (15650.742703743155, 0.1765319266492018),
    ("lanczos3", 0.98, 3, 2): (124027.35933116692, 0.17092528940371043),
    ("lanczos3", 0.95, 6, 5): (6440.856767553484, 0.14325250206344844),
    ("lanczos3", 0.95, 7, 5): (7514.319689122172, 0.16712794849484064),
    ("lanczos3", 0.95, 8, 5): (8587.786659124884, 0.19100338390791216),
    ("lanczos3", 0.95, 9, 5): (9661.255659272289, 0.21487881458831315),
    ("lanczos3", 0.95, 2, 1): (10738.714165668693, 0.23870270179006448),
}


# per law, (beta, upper edge, lower edge, evaluations of the upper fold,
# of the lower fold): the edges as found when the upper search started at
# half the pole whatever beta, the evaluations since it starts from the
# Marchenko-Pastur upper fold for E[D^3]/E[D^2] (then 28 and 2 for MP at
# beta 1e-8, 33 and 27 for b-spline 2/1). MP and the genuine laws take
# closed forms: their rows are the closed forms' folds, within 2.2e-16 of
# the same folds searched from half the pole
SMALL_BETA_FOLDS = {
    "MP": [
        (1e-08, 1.00020001, 0.9998000100000002, 1, 2),
        (1e-05, 1.0063345553203369, 0.9936854446796631, 1, 2),
        (0.001, 1.0642455532033679, 0.9377544467966323, 1, 2),
        (0.05, 1.497213595499958, 0.602786404500042, 1, 2),
        (0.25, 2.25, 0.25, 1, 7),
        (0.5, 2.9142135623730954, 0.08578643762690492, 1, 6),
        (0.999, 3.9979997498749213, 2.5012507817971426e-07, 1, 3),
    ],
    "genuine 0.5": [
        (1e-08, 5.333366216209535, 0.5925849927363714, 12, 11),
        (1e-05, 5.33662210152243, 0.5918329719618067, 9, 8),
        (0.001, 5.404402297855093, 0.5763895532851145, 7, 7),
        (0.05, 6.335649758930839, 0.40002344867611256, 5, 4),
        (0.25, 8.481885906080441, 0.1646036671971732, 5, 4),
        (0.5, 10.619535899174027, 0.055436456143042344, 5, 5),
        (0.999, 14.388932359207113, 1.6008005362448978e-07, 6, 3),
    ],
    "genuine 0.97": [
        (1e-08, 18800.630331623215, 4.359543293060013, 12, 21),
        (1e-05, 18810.919997129087, 4.320867488001827, 9, 16),
        (0.001, 19025.29502600478, 3.5855719381312734, 7, 11),
        (0.05, 21999.58951716971, 0.492588699913859, 5, 7),
        (0.25, 29004.77101834469, 0.08490886062522264, 4, 4),
        (0.5, 36112.77739765616, 0.02419123111399678, 5, 4),
        (0.999, 48824.55062709439, 6.639738440362605e-08, 6, 3),
    ],
    "genuine 0.9999": [
        (1e-08, 500027764417.1065, 1245.1065975112688, 12, 25),
        (1e-05, 500301368323.87506, 827.5192564042424, 9, 17),
        (0.001, 506001646189.8106, 24.040992375577055, 7, 12),
        (0.05, 585090556410.4069, 0.4776300220509532, 5, 7),
        (0.25, 771373036797.5498, 0.08007139865758973, 4, 4),
        (0.5, 960397367582.7498, 0.022791546256090534, 5, 4),
        (0.999, 1298453469764.5842, 6.254378487533575e-08, 6, 3),
    ],
    "b-spline 2/1": [
        (1e-08, 36961.49733529506, 0.47617622559974215, 11, 27),
        (1e-05, 36982.223205987146, 0.4741019256753666, 9, 19),
        (0.001, 37412.875709191205, 0.42327990109214203, 7, 13),
        (0.05, 43371.377564007555, 0.06558416688008087, 5, 8),
        (0.25, 57344.3873261356, 0.006634359595423295, 4, 5),
        (0.5, 71472.65770068979, 0.001134548824589336, 5, 4),
        (0.999, 96671.28674264817, 2.121561435078142e-09, 6, 3),
    ],
}


class TestFolds:
    """Both support edges are folds found by Newton steps on dlambda/du,
    each evaluation solving w(u) by Newton from the last root moved along
    its tangent."""

    def test_upper_start_follows_the_fold_as_beta_falls(self, monkeypatch):
        # the upper search starts at the smaller of half the pole and the
        # Marchenko-Pastur upper fold for E[D^3]/E[D^2]: the evaluations
        # of lambda(u) per fold are pinned, and both edges stay within
        # 1e-14 of those found from half the pole
        evaluations = []
        root = _fold_root
        monkeypatch.setattr(respectra.rmt, "_fold_root",
                            lambda *a: evaluations.append(1) or root(*a))
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        laws = {"MP": law_genuine(0.0), "genuine 0.5": law_genuine(0.5),
                "genuine 0.97": law_genuine(0.97),
                "genuine 0.9999": law_genuine(0.9999),
                "b-spline 2/1": law_upscaled(0.97, spline)}
        for name, rows in SMALL_BETA_FOLDS.items():
            atoms = _law_atoms(laws[name])
            for beta, upper, lower, n_upper, n_lower in rows:
                found = []
                for edge, want in ((True, upper), (False, lower)):
                    evaluations.clear()
                    lam = _fold_edge(atoms, atoms, beta, upper=edge)[0]
                    assert lam == pytest.approx(want, rel=1e-14), \
                        (name, beta, edge)
                    found.append(len(evaluations))
                assert found == [n_upper, n_lower], (name, beta)

    def test_density_workload_folds_take_half_the_sums(self, monkeypatch):
        # the benchmark's six eigen_pdf and two support_lower_edge calls
        # make 12 folds. Their bracketed regula falsi took 170 evaluations
        # of lambda(u) and 775 Newton steps of w(u), one atom sum call each.
        # A step reads phi from T's object: closed forms or atoms
        steps, roots = [], []
        for kind in (_LawAtoms, _LawForms):
            monkeypatch.setattr(
                kind, "phi", lambda ex, w, phi=kind.phi:
                steps.append(1) or phi(ex, w))
        fold_root = _fold_root
        monkeypatch.setattr(respectra.rmt, "_fold_root",
                            lambda *a: roots.append(1) or fold_root(*a))
        folds = []
        edge = respectra.rmt._fold_edge
        monkeypatch.setattr(respectra.rmt, "_fold_edge",
                            lambda *a, **kw: folds.append(1) or edge(*a, **kw))
        for law, xi, beta in density_workload():
            eigen_pdf(law, law, beta, xi=xi)
        for name, lnum, m in (("linear", 3, 2), ("b-spline", 2, 1)):
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            law = law_upscaled(0.95, spec)
            support_lower_edge(law, law, 0.125)
        evaluations = len(roots)
        assert len(folds) == 12
        assert evaluations <= 170 // 2
        assert len(steps) <= 775 // 2

    def test_edges_match_the_regula_falsi_folds_on_fig5(self):
        for (name, rho, lnum, m), (upper, lower) in FIG5_EDGES.items():
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            atoms = _law_atoms(law_upscaled(rho, spec))
            edges = _support_edges(atoms, atoms, 0.125)
            assert [side for _, _, side in edges] == [1.0, -1.0]
            assert edges[0][0] == pytest.approx(upper, rel=1e-14), name
            assert edges[1][0] == pytest.approx(lower, rel=1e-14), name

    def test_mp_edges_match_the_closed_form(self):
        # relative to the edge; the lower one, (1 - sqrt beta)^2 = 2.5e-7
        # at beta 0.999, is the difference of w(u) and psi terms near 1
        atoms = _law_atoms(law_genuine(0.0))
        for beta in np.linspace(0.125, 0.999, 47):
            r = np.sqrt(beta)
            upper, lower = _support_edges(atoms, atoms, beta)
            assert upper[0] == pytest.approx((1 + r) ** 2, rel=3e-13), beta
            assert lower[0] == pytest.approx(
                (1 - r) ** 2, rel=3e-13 if beta <= 0.995 else 1e-12), beta
            # E2 at the edge, -lambda_e u: (1 + r)/r above, -(1 - r)/r below
            assert upper[1] == pytest.approx((1 + r) / r, rel=1e-10)
            assert lower[1] == pytest.approx(-(1 - r) / r, rel=1e-10)

    def test_unfound_root_raises(self, monkeypatch):
        # phi(w) = E[T/(T - w)] is negative above max T, so a positive
        # target has no root there; and a fold whose sums are not numbers
        # finds no root either: a kernel law's atom sums, or a genuine
        # law's closed forms
        spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
        laws = (law_genuine(0.97), law_upscaled(0.97, spline))
        with np.errstate(all="ignore"):
            for law in laws:
                ex = _law_atoms(law)
                with pytest.raises(ConvergenceFailure,
                                   match="no real root at u=-1"):
                    _fold_root(ex, -1.0, 1.0, 2.0 * ex.peak,
                               (ex.peak, np.inf))
            monkeypatch.setattr(respectra.rmt, "_fold_sums",
                                lambda q, r: (np.nan,) * 3)
            monkeypatch.setattr(_LawForms, "_forms",
                                lambda self, x, ends: (np.nan,) * 3)
            for law in laws:
                with pytest.raises(ConvergenceFailure, match="no real root"):
                    support_lower_edge(law, law, 0.5)
                with pytest.raises(ConvergenceFailure, match="no real root"):
                    eigen_pdf(law, law, 0.5)


def closed_form_laws():
    """(label, law) of MP, genuine rho 0.5, 0.97 and 0.999 and linear 3/2
    and 2/1 at each of those rho: the laws that take closed forms."""
    yield "MP", law_genuine(0.0)
    for rho in (0.5, 0.97, 0.999):
        yield f"genuine {rho}", law_genuine(rho)
        for lnum, m in ((3, 2), (2, 1)):
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS["linear"])
            yield f"linear {lnum}/{m} {rho}", law_upscaled(rho, spec)


def stable_atoms(law, solver_settings):
    """``law`` over 16 384 atoms (512 graded panels of 32 nodes), its
    spectrum taken with Q = (1 - rho)^2 + 4 rho sin^2(omega/2): the atoms
    of today's rule grown 128-fold, without the cancelling Q of
    law.transform, which moves the upper fold of rho 0.9999 by 1e-8."""
    r0, *rest = law.r_hh

    def transform(omega):
        return (r0 + 2.0 * sum(rest) * np.cos(omega)) / (
            (1.0 - law.rho) ** 2 + 4.0 * law.rho * np.sin(0.5 * omega) ** 2)

    with solver_settings(quad_panels=512):
        return _LawAtoms(StandIn(law.zero_mass, law.angular_density,
                                 transform))


class TestClosedForms:
    """A law whose r_hh has one or two terms (genuine, linear) takes
    closed forms: E[h], E[h^2], E[h^3] with h = V/(1 + c V), eta and the
    folds' phi, against 16 384-atom sums of the exact law (exact_sums)."""

    # off the cut: the complex half-planes, small and large |c|
    POINTS = (0.3 + 0.2j, 5.0 - 1.0j, 1e-3 + 1e-6j, 100.0 + 1.0j,
              -0.3 + 0.5j, 2.0j, 1e6 + 1e3j)

    def test_expectations_match_16384_atom_sums(self):
        # measured: 1.9e-15 relative at most (E[h^3]); linear laws also at
        # points near B = 2 rho - 2 r1 c = 0, where t = B/(A + s) vanishes
        for label, law in closed_form_laws():
            ex = _law_atoms(law)
            assert isinstance(ex, _LawForms), label
            c = np.array(self.POINTS)
            if len(law.r_hh) == 2 and law.rho > 0:
                at_zero = law.rho / law.r_hh[1]
                c = np.append(c, [at_zero + 1e-9j,
                                  at_zero * (1.0 + 1e-8) + 1e-12j])
            want = exact_sums(law, c)
            got = ex.fold(c) + (ex.eta(c, 0.0, None, None, None),)
            for name, g, w in zip(("E[h]", "E[h^2]", "E[h^3]", "eta"), got,
                                  want):
                err = np.abs(g / w - 1.0).max()
                assert err <= 1e-14, (label, name, err)
            # the map's E[h] and E[h^2], taken without the second derivative
            for g, w in zip(ex.map_sums(c)[:2], want):
                assert np.abs(g / w - 1.0).max() <= 1e-14, label

    def test_real_c_stays_real_with_the_laws_sign(self):
        # real c > 0 (eta_transform), c between the cut and 0 (the upper
        # fold's psi) and c below the cut, where Q + c P < 0 at every
        # angle, so E[h] and E[h^3] are negative: floats, of the sign and
        # value of the 16 384-atom sums
        for label, law in closed_form_laws():
            ex = _law_atoms(law)
            cut = (-1.0 / ex.low, -1.0 / ex.peak)
            for c in (0.7, 1e4, 0.5 * cut[1], 2.0 * cut[0]):
                values = ex.map_sums(c)[:2] + ex.fold(c) \
                    + (ex.eta(c, 0.0, None, None, None),)
                assert all(type(v) is float for v in values), (label, c)
                want = exact_sums(law, c)
                for got, ref in zip(ex.fold(c), want):
                    assert got == pytest.approx(ref[0], rel=1e-13), (label, c)
                assert values[-1] == pytest.approx(want[3][0], rel=1e-13)
                sign = -1.0 if c < cut[0] else 1.0
                assert sign * values[0] > 0 and values[1] > 0, (label, c)
            # phi(w) = E[T/(T - w)] = c E[h] at c = -1/w, on both branches
            for w in (2.0 * ex.peak, 0.5 * ex.low, -ex.low):
                phi = ex.phi(w)
                assert all(type(v) is float for v in phi), (label, w)
                c = -1.0 / w
                e, e2, e3, _ = (v[0] for v in exact_sums(law, c))
                want = (c * e, c * c * (e - c * e2),
                        c ** 3 * (e - 2.0 * c * e2 + c * c * e3))
                assert phi == pytest.approx(want, rel=1e-12), (label, w)
                assert (phi[0] < 0) == (w > ex.peak), (label, w)

    def test_densities_match_16384_atom_solves(self, solver_settings):
        # genuine and linear laws, and closed-form D against b-spline 2/1
        # atoms T (one side of each kind in one solve), against the same
        # call with every closed-form law replaced by its 16 384 atoms
        # (stable_atoms), on the same grid and nu: within 1.5e-9 of the
        # peak, the bound 128 atoms held against 4 096 (measured: 1.9e-12
        # at most), with the rounding of the smeared point mass on top.
        # The reference solves 16 points a batch in work arrays of its own
        rho = 0.97

        def linear(rho, lnum, m):
            return law_upscaled(rho, ResampleSpec(L=lnum, M=m,
                                                  kernel=KERNELS["linear"]))

        kernel = law_upscaled(rho, ResampleSpec(L=2, M=1,
                                                kernel=KERNELS["b-spline"]))
        cases = [(law_genuine(0.9), law_genuine(0.9), 0.25, 1.0),
                 (law_genuine(rho), law_genuine(rho), 0.5, 1.0),
                 (linear(rho, 3, 2), linear(rho, 3, 2), 0.5, 1.5),
                 (linear(rho, 2, 1), linear(rho, 2, 1), 0.25, 2.0),
                 (linear(0.9, 2, 1), linear(0.9, 2, 1), 1.0, 2.0),
                 (law_genuine(rho), kernel, 0.5, 2.0),
                 (linear(rho, 3, 2), kernel, 0.25, 2.0)]
        for law_d, law_t, beta, xi in cases:
            label = f"{law_d.descriptor} {law_t.descriptor} beta={beta}"
            pdf = eigen_pdf(law_d, law_t, beta, xi=xi)
            fine = {law: stable_atoms(law, solver_settings)
                    for law in (law_d, law_t)
                    if isinstance(_law_atoms(law), _LawForms)}
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(respectra.rmt, "_law_atoms", lambda law: (
                    fine[law] if law in fine else _law_atoms(law)))
                patch.setattr(respectra.rmt, "_WORK", threading.local())
                patch.setattr(respectra.rmt, "_BATCH_POINTS", 16)
                ref = eigen_pdf(law_d, law_t, beta, xi=xi,
                                grid=pdf.lambda_grid, nu=pdf.nu)
            smear = pdf.zero_mass * pdf.nu / (
                np.pi * (pdf.lambda_grid ** 2 + pdf.nu ** 2))
            err = (np.abs(pdf.density - ref.density)
                   - 8 * np.finfo(float).eps * smear).max()
            assert err <= 1.5e-9 * ref.density.max(), label


class TestNearUnitRho:
    """Genuine laws near rho = 1, where 128 atoms fell short of the
    budgets: their closed forms meet them."""

    def test_rho_0999_at_beta_002_meets_both_budgets(self):
        # raised ConvergenceFailure at lambda 3.47e7 on 128 atoms
        rho, beta = 0.999, 0.02
        law = law_genuine(rho)
        mean = 1.0 / ((1.0 - rho) * (1.0 + rho))
        pdf = eigen_pdf(law, law, beta)
        assert abs(pdf.total_mass() - 1.0) <= 1e-2
        assert pdf.first_moment() == pytest.approx(beta * mean * mean,
                                                   rel=1e-2)
        assert pdf.rescued_points == 0

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_rho_09999_edge_and_first_moment(self, beta, solver_settings):
        # on 128 atoms E[D] read 5 242.8 against 5 000.25, the upper edge
        # at beta 0.25 7.12e11 against 7.71e11, and the first moment
        # 1.1001 (beta 0.25) and 0.9726 (beta 0.5) of its exact value
        rho = 0.9999
        law = law_genuine(rho)
        mean = 1.0 / ((1.0 - rho) * (1.0 + rho))
        assert _law_atoms(law).mean == pytest.approx(mean, rel=1e-12)
        fine = stable_atoms(law, solver_settings)
        pdf = eigen_pdf(law, law, beta)
        assert pdf.upper_edge == pytest.approx(
            _fold_edge(fine, fine, beta, upper=True)[0], rel=1e-12)
        assert pdf.first_moment() == pytest.approx(beta * mean * mean,
                                                   rel=1e-2)
        assert abs(pdf.total_mass() - 1.0) <= 1e-2
