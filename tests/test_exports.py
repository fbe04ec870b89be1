"""Every name the package exports resolves, and names removed from the
public API stay removed."""

import ast
from pathlib import Path

import pytest

import respectra

INIT = Path(respectra.__file__)
REMOVED = (
    "ToeplitzSpec", "toeplitz_materialize", "ar_u_sequence", "sym_eigenvalues",
    "InvalidMatrix", "InvalidShape", "InvalidSpec", "InvalidConfig",
    "InvalidSize", "InvalidInput", "UnknownExperiment", "ZeroVariance",
    "TruncatedFile", "InsufficientViews", "stieltjes", "exact_autocorr_matrix",
    "EtaSolverConfig", "DEFAULT_CONFIG", "rng_from_seed",
)


def exported_names():
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_resolves():
    names = exported_names()
    assert names
    assert [n for n in names if not hasattr(respectra, n)] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert name not in exported_names()
    with pytest.raises(ImportError):
        exec(f"from respectra import {name}", {})
