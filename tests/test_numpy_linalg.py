"""The private numpy module that ``riimpute.fitters`` calls.

``fitters._lapack`` runs four gufuncs of ``numpy.linalg._umath_linalg``
without their ``numpy.linalg`` wrappers. The module is not public, so a numpy
release may move or rename it, and then ``import riimpute`` fails. This test
module imports numpy only (as does ``conftest.py`` at import), so it still runs
and names the numpy version that lacks them.
"""

import numpy as np
import pytest

# gufunc name: the float64 loop fitters._lapack asks for
GUFUNCS = {"solve1": "dd->d", "inv": "d->d", "eigvalsh_lo": "d->d", "eigh_lo": "d->dd"}


@pytest.mark.parametrize("name", GUFUNCS)
def test_numpy_linalg_has_the_gufuncs_riimpute_calls(name):
    try:
        from numpy.linalg import _umath_linalg
    except ImportError:
        _umath_linalg = None
    gufunc = getattr(_umath_linalg, name, None)
    assert isinstance(gufunc, np.ufunc) and GUFUNCS[name] in gufunc.types, (
        f"numpy {np.__version__} has no gufunc numpy.linalg._umath_linalg.{name} with a "
        f"{GUFUNCS[name]} loop; riimpute.fitters._lapack calls it"
    )
