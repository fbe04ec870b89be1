"""The demos and README's Quick start run against the library as it is, so
a renamed or removed public name cannot silently break them."""

import re
import runpy
from pathlib import Path

import pytest

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
