"""The demos and README's Quick start run against the library as it is, so
a renamed or removed public name cannot silently break them."""

import re
import runpy
from pathlib import Path

import pytest

import respectra
from respectra import quadrature_nodes, rmt

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(code, "README.md (Quick start)", "exec"), {})
    assert capsys.readouterr().out


def test_readme_states_the_quadrature_rule():
    # the "Eta solver" bullet names the rule; a change to rmt's
    # _QUAD_ORDER or _QUAD_PANELS must change that text too
    readme = (ROOT / "README.md").read_text()
    bullet = readme.split("- **Eta solver.**", 1)[1]
    panels, nodes, atoms = map(int, re.search(
        r"\((\d+) panels x (\d+) nodes, (\d+) atoms,", bullet).groups())
    assert panels * nodes == atoms == len(quadrature_nodes()[0])


def test_readme_states_the_chain_stride():
    # the "Eta solver" bullet states the density sweep's walk; a change to
    # rmt's _WALK_POINTS, _CHAIN_STRIDE, _TOP_LINKS, _LOOSE, _BATCH_POINTS
    # or _FILL_STRIDES must change that text too
    readme = (ROOT / "README.md").read_text()
    bullet = " ".join(readme.split("- **Eta solver.**", 1)[1].split())
    found = re.search(
        r"`eigen_pdf` always walks the (\d+)-point default grid .*? A chain "
        r"of every (\d+)th point \(and both ends\) and of the points "
        r"(\d+), (\d+), (\d+) and (\d+) below the top keeps the sweep on the "
        r"physical root: (\d+) links per (\d+)-point grid\. The walk has "
        r"three stages\. Every link, one at a time from the top down, is "
        r"walked only until its Newton step is within (\S+) of `\|E2\|`.*? "
        r"The top link, .*? starts cold\. The links are then corrected to "
        r"the tolerance in batches of (\d+), started from their loose E2, "
        r".*? Last the points at stride (\d+) between the links, then the "
        r"remaining points, are solved in batches of (\d+),", bullet)
    walk, stride, *top, links, grid, loose, batch, fill, again = \
        found.groups()
    assert int(walk) == int(grid) == rmt._WALK_POINTS
    assert int(stride) == rmt._CHAIN_STRIDE
    assert tuple(map(int, top)) == rmt._TOP_LINKS
    assert float(loose) == rmt._LOOSE
    assert int(batch) == int(again) == rmt._BATCH_POINTS
    assert (int(fill), 1) == rmt._FILL_STRIDES
    # none of the top links is a multiple of the stride at 512 points
    assert int(links) == int(walk) // int(stride) + 1 + len(top)


def test_readme_states_the_solver_settings():
    # the "Eta solver" bullet lists the solver's settings; a change to
    # rmt's _TOLERANCE or _MAX_ITERS must change that text too; no solve
    # takes damped steps, and the cap is the solver's one failure
    readme = (ROOT / "README.md").read_text()
    bullet = " ".join(readme.split("- **Eta solver.**", 1)[1].split())
    tolerance, iters = re.search(
        r"These settings \(the quadrature rule, tolerance (\S+) and "
        r"([\d ]+) iterations per point\) are constants of `rmt`",
        bullet).groups()
    assert float(tolerance) == rmt._TOLERANCE
    assert int(iters.replace(" ", "")) == rmt._MAX_ITERS == 100
    assert "damped" not in bullet
    assert "divergence window" not in bullet
    assert "stall counter" not in bullet


def test_readme_states_where_eta_comes_from():
    # the "Eta solver" bullet says eta comes from the map's own sums; a
    # separate eta pass over the atoms, or slope numerators over all atoms
    # kept beside the h-form sums, must change that text too
    readme = (ROOT / "README.md").read_text()
    bullet = " ".join(readme.split("- **Eta solver.**", 1)[1]
                      .split("\n- ", 1)[0].split())
    assert "Eta comes from the map's own sums, with no pass of its own" \
        in bullet
    assert "`eta = mass + sum(w) - gamma beta E2 E1`" in bullet
    assert "`h = 1/(c + 1/v)`" in bullet
    assert [name for name in vars(rmt) if name.startswith("_eta")] \
        == ["_eta"]
    assert [name for name in rmt._LawAtoms.__slots__
            if name.startswith("wv")] == ["wv"]
    spline = respectra.ResampleSpec(L=2, M=1,
                                    kernel=respectra.KERNELS["b-spline"])
    atoms = rmt._law_atoms(respectra.law_upscaled(0.97, spline))
    assert atoms.as_complex().inv.dtype == complex


def test_readme_states_the_fold_method(monkeypatch):
    # the "Grids" bullet states how the support edges are found; a change
    # to rmt's _fold_edge, _FOLD_STEP or its evaluation count on the
    # density benchmark's laws must change that text too
    readme = (ROOT / "README.md").read_text()
    bullet = " ".join(readme.split("- **Grids.**", 1)[1]
                      .split("\n- ", 1)[0].split())
    step, evaluations = re.search(
        r"It is found by Newton steps on the derivative `dlambda/du`, taken "
        r"in `1/u` and kept inside the bracket of its sign changes, until a "
        r"step is within (\S+) of `u`: about (\d+) evaluations of "
        r"`lambda\(u\)` on the `density` benchmark's laws", bullet).groups()
    assert float(step) == rmt._FOLD_STEP
    assert "Illinois" not in bullet
    folds, roots = [], []
    fold, root = rmt._fold_edge, rmt._fold_root
    monkeypatch.setattr(rmt, "_fold_edge",
                        lambda *a, **kw: folds.append(1) or fold(*a, **kw))
    monkeypatch.setattr(rmt, "_fold_root",
                        lambda *a: roots.append(1) or root(*a))

    def law(rho, kernel=None):
        if kernel is None:
            return respectra.law_genuine(rho)
        name, lnum, m = kernel
        return respectra.law_upscaled(rho, respectra.ResampleSpec(
            L=lnum, M=m, kernel=respectra.KERNELS[name]))

    # the benchmark's six eigen_pdf and two support_lower_edge calls
    for kernel, beta in ((None, 0.25), (None, 0.5), (None, 1.0),
                         (("b-spline", 2, 1), 0.5), (("linear", 3, 2), 0.5),
                         (("lanczos3", 3, 2), 1.0)):
        respectra.eigen_pdf(law(0.97, kernel), law(0.97, kernel), beta)
    for kernel in (("linear", 3, 2), ("b-spline", 2, 1)):
        respectra.support_lower_edge(law(0.95, kernel), law(0.95, kernel),
                                     0.125)
    assert len(folds) == 12
    assert round(len(roots) / len(folds)) == int(evaluations)
