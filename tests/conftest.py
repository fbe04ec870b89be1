import contextlib

import pytest

from respectra import rmt


@pytest.fixture
def solver_settings():
    """Set eta-solver constants of ``rmt`` by their lower-case names for
    the body of a with block: ``with solver_settings(tolerance=1e-12):``
    stands for ``rmt._TOLERANCE = 1e-12``. Atoms read ``_QUAD_PANELS`` when
    they are built, so build them inside the block."""
    @contextlib.contextmanager
    def settings(**values):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in values.items():
                patch.setattr(rmt, "_" + name.upper(), value)
            yield
    return settings
