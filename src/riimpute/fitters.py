"""Least-squares and logistic regression fitters used by the imputation models.

Both fitters work on explicit design matrices (the caller appends intercept
columns) and return small result objects carrying everything downstream code
needs for posterior draws: coefficients, a dispersion estimate and the inverse
Gram / information matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch, InvalidParameter, NonConvergence, RankDeficient, Separation

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 25
IRLS_COEF_CAP = 15.0
_RANK_RTOL = 1e-10
# From this many rows on, every n-long product of a fit is summed by np.einsum
# rather than BLAS: a vector dot product, and the products of every design,
# which is then a ``_Columns``; ``ri_impute`` also runs its chains on a thread
# pool. OpenBLAS splits a long product over its threads, which changes the
# sum's rounding with the thread count, and its threads would compete with
# the pool's; einsum sums in one fixed order on the calling thread.
_EINSUM_ROWS = 10_000


def _lapack(gufunc, signature: str, failure: str):
    """``gufunc`` of numpy's private ``numpy.linalg._umath_linalg`` module, called
    as the ``numpy.linalg`` wrapper that runs it calls it for float64 arrays.

    The wrapper's argument conversion and checks cost 2-3 us per call on the
    sweep's 3x3 to 5x5 matrices, longer than the LAPACK call itself. The
    returned function skips them and sets the wrapper's error state for the
    call: the invalid flag, which the gufunc raises when LAPACK fails, raises
    ``LinAlgError(failure)``, and overflow, division and underflow are
    ignored. As a decorator, ``np.errstate`` keeps that state per call, so the
    chains' pool threads may call at once. The results are the wrapper's bits.
    Only float64 arrays of the right shapes may be passed.
    ``tests/test_numpy_linalg.py`` checks that numpy still has these gufuncs.
    """
    def fail(err, flag):
        raise LinAlgError(failure)

    @np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")
    def call(*arrays):
        return gufunc(*arrays, signature=signature)

    return call


# np.linalg.solve (1-d right-hand side), inv, eigvalsh and eigh, lower triangle
_solve = _lapack(_umath_linalg.solve1, "dd->d", "Singular matrix")
_inv = _lapack(_umath_linalg.inv, "d->d", "Singular matrix")
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "d->d", "Eigenvalues did not converge")
_eigh = _lapack(_umath_linalg.eigh_lo, "d->dd", "Eigenvalues did not converge")


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares result.

    ``gram_inverse`` is the inverse of design' design, so coefficient
    covariance is ``residual_variance * gram_inverse``.
    """

    coefficients: np.ndarray
    residual_variance: float
    gram_inverse: np.ndarray
    n_rows: int
    n_params: int


@dataclass(frozen=True)
class LogisticFit:
    """Maximum likelihood logistic regression result.

    ``covariance`` is the inverse observed Fisher information at the estimate.
    ``iterations`` counts the Newton steps taken, a refit's from zero included.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    iterations: int


def _as_design(design, response, response_name: str):
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    if design.ndim != 2:
        raise DimensionMismatch(f"design must be 2-dimensional, got ndim={design.ndim}")
    if design.shape[1] == 0:
        raise DimensionMismatch("design has no columns")
    if response.ndim != 1 or design.shape[0] != response.shape[0]:
        raise DimensionMismatch(
            f"design has {design.shape[0]} rows but {response_name} has length {response.shape[0]}"
        )
    for name, values in (("design", design), (response_name, response)):
        if not np.isfinite(values).all():
            raise InvalidParameter(f"{name} must contain only finite values")
    if len(design) >= _EINSUM_ROWS:
        return _Columns(np.asfortranarray(design)), response
    return np.ascontiguousarray(design), response


def _checked_inverse(matrix: np.ndarray, name: str) -> np.ndarray:
    """Symmetrized inverse of the symmetric positive semi-definite ``matrix``.

    Raises RankDeficient, naming ``name``, when the smallest eigenvalue of
    ``matrix`` scaled to unit diagonal is below ``_RANK_RTOL``. The scaling
    makes the test independent of the units of each design column.
    """
    scale = np.sqrt(matrix.diagonal())
    smallest = 0.0
    if np.minimum.reduce(scale) > 0:
        smallest = _eigvalsh(matrix / (scale[:, None] * scale))[0]
    if not smallest >= _RANK_RTOL:
        raise RankDeficient(
            f"{name} is singular: smallest eigenvalue {smallest:.3e} of its "
            f"unit-diagonal form is below {_RANK_RTOL:g}"
        )
    inverse = _inv(matrix)
    return 0.5 * (inverse + inverse.T)


class _Columns:
    """A column-major design whose products are summed by np.einsum, not BLAS.

    ``shared`` is an F-order block of columns that several threads may read at
    once and none writes. ``own``, when given, is one more column, the
    holder's to overwrite through ``design[:, at] = values``, at position
    ``at`` of the design. Products are summed block by block, so a chain of
    ``ri_impute`` keeps one column of its own rather than a copy of the design.
    """

    def __init__(self, shared: np.ndarray, own: np.ndarray | None = None, at: int = 0) -> None:
        self.shared, self.own, self.at = shared, own, at
        q = shared.shape[1]
        self.shape = (shared.shape[0], q + (own is not None))
        # order[d]: where design column d sits in the block order [shared..., own]
        order = np.r_[0:at, q, at:q]
        self._order, self._gram_order = order, order[:, None] * (q + 1) + order
        self._shared_positions = np.delete(np.arange(q + 1), at)

    def __setitem__(self, key, values) -> None:
        rows, column = key
        if self.own is None or rows != slice(None) or column % self.shape[1] != self.at:
            raise IndexError("only the own column of a _Columns design can be written")
        self.own[:] = values

    def matvec(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.own is None:
            return np.einsum("ij,j->i", self.shared, b, out=out)
        out = np.einsum("ij,j->i", self.shared, b[self._shared_positions], out=out)
        out += b[self.at] * self.own
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        shared_part = np.einsum("ij,i->j", self.shared, v)
        if self.own is None:
            return shared_part
        return np.append(shared_part, np.einsum("i,i->", self.own, v)).take(self._order)

    def gram(self, w: np.ndarray | None = None) -> np.ndarray:
        """``x' x``, or ``x' diag(w) x`` with weights ``w``, each term weighed inside the sum."""
        weight, index = ((), "") if w is None else ((w,), "i,")
        s, o = self.shared, self.own
        block = np.einsum(f"ij,{index}ik->jk", s, *weight, s)
        if o is None:
            return block
        q = len(block)
        full = np.empty((q + 1, q + 1))
        full[:q, :q] = block
        full[:q, q] = full[q, :q] = np.einsum(f"ij,{index}i->j", s, *weight, o)
        full[q, q] = np.einsum(f"i,{index}i->", o, *weight, o)
        return full.take(self._gram_order)


def _with_intercept(covariates, rows: int | None = None) -> np.ndarray:
    """``[1, covariates]`` laid out by ``_design``'s rule for a model over ``rows``
    rows (default: its own); an F-order block is filled column by column."""
    n = len(covariates)
    if (n if rows is None else rows) < _EINSUM_ROWS:
        return np.column_stack([np.ones(n), covariates])
    columns = np.atleast_2d(np.transpose(covariates))
    design = np.empty((len(columns) + 1, n))
    design[0] = 1.0
    design[1:] = columns
    return design.T


def _design(covariates, rows: int):
    """``[1, covariates]``, read-only, for a model over ``rows`` rows (the
    imputers pass the dataset's): a C-order array for BLAS below
    ``_EINSUM_ROWS`` rows, a ``_Columns`` over an F-order block from there on."""
    design = _with_intercept(covariates, rows)
    design.setflags(write=False)
    return design if rows < _EINSUM_ROWS else _Columns(design)


def _with_own(design, at: int):
    """``_design``'s ``design`` plus a column at ``at`` for its holder to overwrite:
    a writable C-order copy, or a ``_Columns`` over the same shared block."""
    if isinstance(design, _Columns):
        return _Columns(design.shared, np.empty(design.shape[0]), at)
    return np.insert(design, at, 0.0, axis=1)


def _matvec(x, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ b``, written to ``out`` when given."""
    return x.matvec(b, out) if isinstance(x, _Columns) else np.matmul(x, b, out=out)


def _rmatvec(x, v: np.ndarray) -> np.ndarray:
    """``x.T @ v``."""
    return x.rmatvec(v) if isinstance(x, _Columns) else x.T @ v


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` for two vectors, by einsum from ``_EINSUM_ROWS`` entries on."""
    return float(np.einsum("i,i->", a, b) if len(a) >= _EINSUM_ROWS else a @ b)


def ols_fit(design, response) -> LinearFit:
    """Least squares fit of `response` on the columns of `design`.

    Raises RankDeficient when the Gram matrix design' design is numerically
    singular (see ``_checked_inverse``), and InvalidParameter when the design
    or the response holds a NaN or an infinity.

    The products are summed by BLAS over a C-order design below
    ``_EINSUM_ROWS`` rows, and by np.einsum over an F-order one from there on,
    so the bits do not depend on the BLAS thread count; a design in the other
    layout is copied first, so they depend only on the values.
    """
    x, y = _as_design(design, response, "response")
    n, p = x.shape
    if n < p:
        raise DimensionMismatch(f"need at least {p} rows for {p} parameters, got {n}")
    return _ols(x, y)


def _ols(x, y: np.ndarray) -> LinearFit:
    """Kernel of ``ols_fit`` for a float design (an array or ``_Columns``) with at
    least as many rows as columns."""
    n, p = x.shape
    gram = x.gram() if isinstance(x, _Columns) else x.T @ x
    gram_inverse = _checked_inverse(gram, "Gram matrix")
    coefficients = gram_inverse @ _rmatvec(x, y)
    residuals = _matvec(x, coefficients)
    np.subtract(y, residuals, out=residuals)
    rss = _dot(residuals, residuals)
    residual_variance = rss / (n - p) if n > p else 0.0
    return LinearFit(
        coefficients=coefficients,
        residual_variance=max(residual_variance, 0.0),
        gram_inverse=gram_inverse,
        n_rows=n,
        n_params=p,
    )


def _mu_loglik(x, y: np.ndarray, beta: np.ndarray, mu: np.ndarray,
               work: np.ndarray) -> float:
    """Log likelihood at ``beta``; the fitted probabilities are written to ``mu``.

    One ``e = exp(-|eta|)`` of the linear predictor ``eta`` gives both: ``mu``
    is ``1 / (1 + e)`` where eta is non-negative and ``e / (1 + e)``
    elsewhere, and the log likelihood is
    ``y.eta - sum(max(eta, 0)) - sum(log1p(e))``. Neither overflows. Since
    ``0 <= e <= 1``, ``max(eta >= 0, e)`` picks the numerator without a branch.
    ``work`` holds eta and e, two n-vectors that the caller reuses from call to call.
    """
    eta, e = work[0], work[1]
    _matvec(x, beta, out=eta)
    np.abs(eta, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    ll = (_dot(y, eta) - np.add.reduce(np.maximum(eta, 0.0, out=mu))
          - np.add.reduce(np.log1p(e, out=mu)))
    np.greater_equal(eta, 0.0, out=mu)
    np.maximum(mu, e, out=mu)
    e += 1.0
    mu /= e
    return float(ll)


def _information(x, mu: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """The information matrix ``x' diag(mu (1 - mu)) x`` at fitted probabilities ``mu``.

    For a BLAS design, the weighted design is written transposed into the
    first p rows of ``buffer``, shape ``(rows, n)``: broadcasting the weights
    along the rows of a C-order ``(p, n)`` array runs an inner loop of length
    n, where ``w[:, None] * x`` runs one of length p. The products are the
    same, and the tests pin that the matrix product sums them to the same bits
    as ``x.T @ (w[:, None] * x)`` for C-order designs. A ``_Columns`` design
    weighs each term inside the sum and writes only the weights, to ``buffer[0]``.
    """
    if isinstance(x, _Columns):
        w = np.subtract(1.0, mu, out=buffer[0])
        w *= mu
        return x.gram(w)
    weighted = buffer[: x.shape[1]]
    np.multiply(x.T, mu * (1.0 - mu), out=weighted)
    return x.T @ weighted.T


def _irls_work(x) -> np.ndarray:
    """Scratch for ``_irls`` on the design ``x``: rows 0 and 1 hold eta and e,
    the last row mu, and a BLAS design's information writes its weighted
    design over the first p rows."""
    n, p = x.shape
    return np.empty((3 if isinstance(x, _Columns) else max(p, 2) + 1, n))


def _irls(x, y: np.ndarray, beta: np.ndarray, work: np.ndarray):
    """Newton iterations from ``beta``: ``(beta, hessian, steps, error)``.

    They stop at the first iterate whose Newton decrement grad' H^-1 grad is
    at most ``IRLS_TOL**2``, which puts it within about ``IRLS_TOL`` posterior
    SDs of the MLE in any affine recoding of the design. ``hessian`` is the
    information H there, ``steps`` counts the Newton steps, and ``error`` is
    the Separation or NonConvergence that stopped them, or None. ``work``
    comes from ``_irls_work(x)``; its rows are overwritten.
    """
    mu = work[-1]
    ll = _mu_loglik(x, y, beta, mu, work)
    for steps in range(IRLS_MAX_ITER + 1):
        if np.maximum.reduce(np.abs(beta)) > IRLS_COEF_CAP:
            return beta, None, steps, Separation(
                f"coefficient magnitude exceeded {IRLS_COEF_CAP:g} after {steps} iterations"
            )
        grad = _rmatvec(x, np.subtract(y, mu, out=work[0]))
        hessian = _information(x, mu, work)
        try:
            step = _solve(hessian, grad)
        except LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        if grad @ step <= IRLS_TOL**2:
            return beta, hessian, steps, None
        if steps == IRLS_MAX_ITER:
            break

        # halve the step until the log likelihood stops decreasing; the slack
        # scales with |ll| so float rounding of the big sum cannot stall the step.
        # Each candidate overwrites mu: the Hessian was the last use of the old one.
        factor = 1.0
        slack = 1e-12 * (1.0 + abs(ll))
        for _ in range(30):
            candidate = beta + factor * step
            new_ll = _mu_loglik(x, y, candidate, mu, work)
            if new_ll >= ll - slack:
                break
            factor *= 0.5
        beta, ll = candidate, new_ll
    return beta, None, IRLS_MAX_ITER, NonConvergence(
        f"IRLS did not converge within {IRLS_MAX_ITER} iterations"
    )


def logistic_fit(design, indicator) -> LogisticFit:
    """Logistic regression by iteratively reweighted least squares from zero.

    Newton steps with step halving, so the log likelihood never decreases,
    until the Newton decrement is at most ``IRLS_TOL**2`` (see ``_irls``).
    Raises Separation once any coefficient passes ``IRLS_COEF_CAP`` in
    magnitude, NonConvergence after ``IRLS_MAX_ITER`` steps, and
    RankDeficient when the information matrix at the estimate is singular.
    A NaN or infinite cell raises InvalidParameter, like any indicator value
    other than 0 and 1. Large designs are summed as in ``ols_fit``.
    """
    x, y = _as_design(design, indicator, "indicator")
    if not (np.all((y == 0) | (y == 1)) and y.min() == 0 and y.max() == 1):
        raise InvalidParameter("indicator must contain both 0s and 1s and nothing else")
    return _logistic(x, y, np.zeros(x.shape[1]))


def _logistic(x, y: np.ndarray, start: np.ndarray,
              work: np.ndarray | None = None) -> LogisticFit:
    """Kernel of ``logistic_fit`` for arguments that pass its checks, with the
    iterations starting at ``start``, one finite value per design column.

    A caller refitting the same model on slightly changed data passes its
    previous estimate to save iterations. A fit from a nonzero start that
    separates or does not converge is refitted once from zero, so a start
    changes the cost of a fit but not whether it succeeds. ``iterations``
    counts the Newton steps of both attempts. ``work`` is ``_irls``'s scratch;
    a caller fitting the same design again and again passes its own, so the
    fits allocate no n-vector.
    """
    work = _irls_work(x) if work is None else work
    beta, hessian, iterations, error = _irls(x, y, start, work)
    if error is not None and start.any():
        beta, hessian, cold_iterations, error = _irls(x, y, np.zeros_like(start), work)
        iterations += cold_iterations
    if error is not None:
        raise error
    covariance = _checked_inverse(hessian, "information matrix")
    return LogisticFit(coefficients=beta, covariance=covariance, iterations=iterations)
