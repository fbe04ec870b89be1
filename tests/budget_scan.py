"""Scan eigen_pdf's budgets over a fine step of beta.

Calls ``eigen_pdf`` with its defaults on MP and the genuine and upscaled
laws of rho 0.9, 0.97 and 0.98 (linear, catmull-rom, b-spline and lanczos3
at 3/2 and 2/1), at beta 0.05 to 1 in steps of 0.01: 28 laws x 96 betas,
2 688 calls. Each call is held to the budgets the benchmark checks: total
mass within 1e-2 of 1 and first moment within 1 % of beta E[D] E[T]. Prints
every call that raises or misses a budget, then the counts of raised calls,
first-moment misses, mass misses, rescued points and solver iterations, and
the largest total-mass and first-moment errors over all calls, with the
call where each falls, so a change can quote its margin as well as its
misses, and likewise the most solver iterations any one point took, which
measures the margin to the solver's cap (``rmt._MAX_ITERS``), and the
summed ``negative_clamped`` of the 28 laws: the probe angles at which a
raw spectrum is negative before clamping, expected 0 (a law counts them
only when the count is read). Last it prints four calls outside the
range the budgets are stated for (beta below 0.05, rho 0.9999), with
their first-moment ratio, total mass, rescued points and most iterations
per point; they are not counted as misses.

Run from the repository root (about a minute on one core):

    python tests/budget_scan.py

The name keeps it out of pytest's collection; it is a measuring tool, not
a test.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from respectra import (KERNELS, ResampleSpec, eigen_pdf,  # noqa: E402
                       law_genuine, law_upscaled, quadrature_nodes, rmt)

BETAS = [k / 100 for k in range(5, 101)]


def laws():
    """(label, law, xi) for MP and the 27 laws of rho 0.9, 0.97, 0.98."""
    yield "MP", law_genuine(0.0), 1.0
    for rho in (0.9, 0.97, 0.98):
        yield f"genuine rho {rho}", law_genuine(rho), 1.0
        for name in ("linear", "catmull-rom", "b-spline", "lanczos3"):
            for lnum, m in ((3, 2), (2, 1)):
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                yield (f"{name} {lnum}/{m} rho {rho}",
                       law_upscaled(rho, spec), spec.xi)


def outside():
    """(label, law, xi, beta) for the four calls outside the stated range."""
    spline = ResampleSpec(L=2, M=1, kernel=KERNELS["b-spline"])
    yield "b-spline 2/1 rho 0.97", law_upscaled(0.97, spline), spline.xi, 0.01
    yield "genuine rho 0.97", law_genuine(0.97), 1.0, 0.003
    for beta in (0.5, 0.25):
        yield "genuine rho 0.9999", law_genuine(0.9999), 1.0, beta


def count_iterations():
    """Wrap rmt._solve_e2, through which every solve goes, so that the
    returned list's one entry holds the most iterations any point has
    taken since it was last set to 0. A solve returns its iterations as
    an array over its points, or as one int from the scalar path."""
    most = [0]
    solve = rmt._solve_e2

    def spy(*args, **kwargs):
        result = solve(*args, **kwargs)
        most[0] = max(most[0], int(np.max(result[1])))
        return result

    rmt._solve_e2 = spy
    return most


def main():
    nodes, weights = quadrature_nodes()
    most = count_iterations()
    deepest = (0, "")
    calls = raised = moment = mass = rescued = iterations = clamped = 0
    worst = {"mass": (0.0, ""), "first moment": (0.0, "")}
    start = time.perf_counter()
    for label, law, xi in laws():
        mean = law.mean(nodes, weights)
        clamped += law.negative_clamped
        for beta in BETAS:
            calls += 1
            most[0] = 0
            try:
                pdf = eigen_pdf(law, law, beta, xi=xi)
            except Exception as exc:    # counted and named, never hidden
                raised += 1
                print(f"raised: {label} beta {beta}: {exc!r}")
                continue
            rescued += pdf.rescued_points
            iterations += pdf.solver_iterations
            ratio = pdf.first_moment() / (beta * mean * mean)
            total = pdf.total_mass()
            call = f"{label} beta {beta}"
            if most[0] > deepest[0]:
                deepest = (most[0], call)
            for name, err in (("mass", abs(total - 1.0)),
                              ("first moment", abs(ratio - 1.0))):
                if not err <= worst[name][0]:
                    worst[name] = (err, call)
            if not abs(ratio - 1.0) <= 1e-2:
                moment += 1
                print(f"first moment: {call}: ratio {ratio:.4f}"
                      f" ({pdf.rescued_points} rescued)")
            if not abs(total - 1.0) <= 1e-2:
                mass += 1
                print(f"mass: {call}: total {total:.4f}")
    print(f"calls {calls}, raised {raised}, first-moment misses {moment}, "
          f"mass misses {mass}, rescued points {rescued}, "
          f"solver iterations {iterations} "
          f"({time.perf_counter() - start:.0f} s)")
    for name, (err, call) in worst.items():
        print(f"largest {name} error {err:.2e} ({call})")
    print(f"most iterations per point {deepest[0]} ({deepest[1]})")
    print(f"negative_clamped probe angles {clamped} (expected 0)")
    print("outside the budgets' stated range, not counted as misses:")
    for label, law, xi, beta in outside():
        mean = law.mean(nodes, weights)
        most[0] = 0
        try:
            pdf = eigen_pdf(law, law, beta, xi=xi)
        except Exception as exc:    # named, never hidden
            print(f"  {label} beta {beta}: raised {exc!r}")
            continue
        print(f"  {label} beta {beta}: first-moment ratio "
              f"{pdf.first_moment() / (beta * mean * mean):.4f}, total mass "
              f"{pdf.total_mass():.4f}, {pdf.rescued_points} rescued, "
              f"most iterations per point {most[0]}")


if __name__ == "__main__":
    main()
