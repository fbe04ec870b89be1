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
misses.

Run from the repository root (about a minute on one core):

    python tests/budget_scan.py

The name keeps it out of pytest's collection; it is a measuring tool, not
a test.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from respectra import (KERNELS, ResampleSpec, eigen_pdf,  # noqa: E402
                       law_genuine, law_upscaled, quadrature_nodes)

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


def main():
    nodes, weights = quadrature_nodes()
    calls = raised = moment = mass = rescued = iterations = 0
    worst = {"mass": (0.0, ""), "first moment": (0.0, "")}
    start = time.perf_counter()
    for label, law, xi in laws():
        mean = law.mean(nodes, weights)
        for beta in BETAS:
            calls += 1
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


if __name__ == "__main__":
    main()
