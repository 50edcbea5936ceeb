"""The numpy behaviour that riimpute relies on beyond numpy's documented API.

``fitters._lapack`` runs four gufuncs of ``numpy.linalg._umath_linalg``
without their ``numpy.linalg`` wrappers. The module is not public, so a numpy
release may move or rename it, and then ``import riimpute`` fails. This test
module imports numpy only (as does ``conftest.py`` at import), so it still runs
and names the numpy version that lacks them.

``simulation._kernel_exp`` exponentiates some kernel lanes packed apart from
the others and writes +0.0 for the lanes past its zero bound, and promises the
bits of one plain ``np.exp`` over the whole buffer. That holds only if float64
``exp`` gives an element the same bits wherever it sits, and +0.0 past the bound.
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


def _exp_arguments() -> np.ndarray:
    """Shuffled arguments with normal results, results near the smallest normal
    (-708.4), subnormal results and results that round to 0."""
    gen = np.random.default_rng(16)
    arguments = np.r_[gen.uniform(-20.0, 0.0, 500), gen.uniform(-708.5, -700.0, 500),
                      gen.uniform(-745.2, -708.3, 500), gen.uniform(-800.0, -745.0, 500),
                      [-708.3964185322641, -745.1332191019411, -745.13321910194122]]
    gen.shuffle(arguments)
    return arguments


def test_float64_exp_gives_an_element_the_same_bits_wherever_it_sits():
    arguments = _exp_arguments()
    # each element on its own, in the SIMD tail
    alone = np.array([np.exp(arguments[i : i + 1])[0] for i in range(len(arguments))])
    inplace = arguments.copy()
    np.exp(inplace, out=inplace)
    placed = {
        "all at once": (np.exp(arguments), alone),
        "sorted": (np.exp(np.sort(arguments)), alone[np.argsort(arguments)]),
        "in place": (inplace, alone),
    }
    for offset in range(1, 8):
        placed[f"offset {offset}"] = (np.exp(arguments[offset:]), alone[offset:])
    for stride in (2, 3, 7):
        placed[f"stride {stride}"] = (np.exp(arguments[::stride]), alone[::stride])
        out = np.zeros(len(arguments) * stride)
        np.exp(arguments, out=out[::stride])
        placed[f"output stride {stride}"] = (out[::stride], alone)
    differ = [name for name, (got, want) in placed.items() if got.tobytes() != want.tobytes()]
    assert not differ, f"numpy {np.__version__}: exp bits depend on placement: {differ}"


def test_exp_is_plus_zero_past_the_kernel_zero_bound():
    from riimpute.simulation import _ZERO_Z2

    z2 = np.r_[np.nextafter(_ZERO_Z2, np.inf), np.linspace(_ZERO_Z2, 4000.0, 20001)[1:],
               np.geomspace(4000.0, 1e308, 2000)]
    kernel = np.exp(-0.5 * z2)
    # +0.0 is all zero bytes; -0.0 and the smallest subnormal are not
    assert kernel.tobytes() == bytes(kernel.nbytes), (
        f"numpy {np.__version__}: exp(-0.5 * z2) is not +0.0 past z2 = {_ZERO_Z2}")
