"""Damped least-squares curve fitting for spectroscopy and decay analyses.

A small Levenberg-Marquardt engine with a fixed set of model families covers
every fit in the analysis chain: Gaussian and Lorentzian lines and
double-Gaussian histograms, each over a constant offset, exponential decays,
saturating exponentials, sinusoidal fringes (plain, damped, and of a known
period), and least-squares polynomials. Families with a width, rate, or
frequency parameter fit its logarithm internally so those parameters stay
positive; reported parameters and covariances are in the natural
parameterization. The linear families, polynomials and known-period fringes,
are solved by one weighted least-squares routine on their partial
derivatives; the solution enters the engine as its minimum, so their
covariance and flags come from the same code as the rest.

``fit_rows`` fits many data rows on one abscissa in lockstep: each row keeps
its own damping factor and stopping state, and the Jacobians and trial steps
of all rows still iterating go through one broadcast evaluation. Jacobians
are closed-form: each family declares its partial derivatives next to its
model, so no fit takes a finite difference. ``fit_curve`` is its one-row
case.

A parameter the data do not determine (its column of the Jacobian is zero,
or it moves along the null space of a singular normal matrix) gets infinite
variance, and its fit reads not converged with a message naming it. A
point with an infinite error gets no weight.

Initial guesses are automatic and deterministic: peaked models start from
max/centroid/second-moment estimates, exponentials from log-linear regression,
sinusoids from the discrete Fourier peak; ``peak_row_starts`` seeds rows known
to be upward lines from their maximum. Fitted sinusoid phases are
canonicalized to amplitude >= 0 and phase in [0, 2pi). A row is weighted by
its errors only when ``usable_errors`` finds every one > 0.

``fit_rows`` checks a stack in one pass, one check at a time over all rows
(shape, finite data, enough points, non-constant rows, errors > 0, then the
starts), so the first check that any row fails decides the error raised.

``_FAMILIES`` declares each family once: its parameter names, the indices
fitted as logarithms, and its automatic initializer; a linear family has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, FitRankError

MAX_ITERATIONS = 500
RELATIVE_STEP_TOL = 1e-10
LAMBDA_INIT = 1e-3
LAMBDA_UP = 4.0
LAMBDA_DOWN = 3.0
LAMBDA_MAX = 1e12
# damping factors a rejected row tries per batched solve; any value gives
# the same fits, this one suits the stall that ends most fits
LADDER_RUNGS = 8


@dataclass(frozen=True)
class FitModel:
    """Fit family selector.

    Parameters
    ----------
    family : str
        One of gaussian, lorentzian, exponential-decay,
        saturating-exponential, sinusoid, damped-sinusoid, double-gaussian,
        fringe, polynomial. A fringe is offset + in_phase cos(x) +
        quadrature sin(x): one period per 2 pi of ``x``.
    order : int, optional
        Polynomial order; required for the polynomial family.
    """

    family: str
    order: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown fit family {self.family!r}")
        if self.family == "polynomial":
            if self.order is None or self.order < 0:
                raise ValueError("polynomial family needs a non-negative order")
        elif self.order is not None:
            raise ValueError("order is only meaningful for the polynomial family")

    def parameter_names(self) -> tuple[str, ...]:
        if self.family == "polynomial":
            return tuple(f"c{k}" for k in range(self.order + 1))
        return _FAMILIES[self.family][0]

    def n_parameters(self) -> int:
        return len(self.parameter_names())

    def _positive_indices(self) -> tuple[int, ...]:
        return _FAMILIES[self.family][1]

    def _linear(self) -> bool:
        """Whether the model is linear in its parameters, so solved directly."""
        return _FAMILIES[self.family][2] is None

    def evaluate(self, x: np.ndarray, parameters: np.ndarray) -> np.ndarray:
        """Model prediction at ``x`` for natural-space parameters.

        Each ``parameters[k]`` may be an array broadcasting against ``x``
        (shape ``(rows, 1)`` for one-dimensional ``x``), which evaluates a
        batch of parameter vectors at once.
        """
        x = np.asarray(x, dtype=float)
        p = np.asarray(parameters, dtype=float)
        fam = self.family
        if fam == "polynomial":
            return _horner(x, p)
        if fam == "fringe":
            return p[0] + p[1] * np.cos(x) + p[2] * np.sin(x)
        if fam == "gaussian":
            return p[0] * np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2) + p[3]
        if fam == "lorentzian":
            half = 0.5 * p[2]
            return p[0] / (1.0 + ((x - p[1]) / half) ** 2) + p[3]
        if fam == "exponential-decay":
            return p[0] * np.exp(-x / p[1]) + p[2]
        if fam == "saturating-exponential":
            return p[0] - p[1] * np.exp(-x / p[2])
        if fam == "sinusoid":
            return p[0] * np.sin(2.0 * math.pi * p[1] * x + p[2]) + p[3]
        if fam == "damped-sinusoid":
            return (
                p[0]
                * np.exp(-x / p[1])
                * np.sin(2.0 * math.pi * p[2] * x + p[3])
                + p[4]
            )
        # double-gaussian
        return (
            p[0] * np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2)
            + p[3] * np.exp(-0.5 * ((x - p[4]) / p[5]) ** 2)
            + p[6]
        )

    def _partials(self, x: np.ndarray, p: np.ndarray) -> tuple:
        """Partial derivatives of :meth:`evaluate` by each natural parameter.

        Takes ``x`` and ``p`` as :meth:`evaluate` does, branch for branch,
        and returns one array (or scalar) per parameter, broadcasting like
        the model value. A linear family's do not depend on ``p``: a
        polynomial's are the powers of ``x``, a fringe's 1, cos x and sin x.
        """
        fam = self.family
        if fam == "polynomial":
            return tuple(x**k for k in range(len(p)))
        if fam == "fringe":
            return 1.0, np.cos(x), np.sin(x)
        if fam == "gaussian":
            u = (x - p[1]) / p[2]
            bump = np.exp(-0.5 * u**2)
            slope = p[0] * bump * u / p[2]
            return bump, slope, slope * u, 1.0
        if fam == "lorentzian":
            half = 0.5 * p[2]
            v = (x - p[1]) / half
            line = 1.0 / (1.0 + v**2)
            slope = p[0] * line**2 * v / half
            return line, 2.0 * slope, slope * v, 1.0
        if fam == "exponential-decay":
            decay = np.exp(-x / p[1])
            return decay, p[0] * decay * x / p[1] ** 2, 1.0
        if fam == "saturating-exponential":
            decay = np.exp(-x / p[2])
            return 1.0, -decay, -p[1] * decay * x / p[2] ** 2
        if fam == "sinusoid":
            angle = 2.0 * math.pi * p[1] * x + p[2]
            swing = p[0] * np.cos(angle)
            return np.sin(angle), 2.0 * math.pi * x * swing, swing, 1.0
        if fam == "damped-sinusoid":
            decay = np.exp(-x / p[1])
            angle = 2.0 * math.pi * p[2] * x + p[3]
            wave = decay * np.sin(angle)
            swing = p[0] * decay * np.cos(angle)
            return wave, p[0] * wave * x / p[1] ** 2, 2.0 * math.pi * x * swing, swing, 1.0
        # double-gaussian
        u1 = (x - p[1]) / p[2]
        u2 = (x - p[4]) / p[5]
        bump1 = np.exp(-0.5 * u1**2)
        bump2 = np.exp(-0.5 * u2**2)
        slope1 = p[0] * bump1 * u1 / p[2]
        slope2 = p[3] * bump2 * u2 / p[5]
        return bump1, slope1, slope1 * u1, bump2, slope2, slope2 * u2, 1.0


def _horner(x, c):
    """Polynomial with ascending coefficients ``c[k]`` at ``x``, by Horner's rule.

    numpy's ``polyval`` on one coefficient vector, operation for operation;
    each ``c[k]`` may also be an array broadcasting against ``x``, which
    evaluates a batch of coefficient vectors.
    """
    value = c[-1] + x * 0
    for coefficient in c[-2::-1]:
        value = coefficient + value * x
    return value


def _design(model: FitModel, x: np.ndarray) -> np.ndarray:
    """Design matrix (n, k) of a linear family: its partial derivatives at ``x``."""
    columns = model._partials(x, np.zeros(model.n_parameters()))
    return np.column_stack([np.broadcast_to(column, x.shape) for column in columns])


def _lstsq(design: np.ndarray, y: np.ndarray, sw=None) -> np.ndarray:
    """Coefficients of the least-squares combination of ``design``'s columns.

    Residuals are weighted by ``sw``, the square roots of the weights, when
    given; a design matrix of rank below its column count raises FitRankError.
    """
    if sw is not None:
        design, y = design * sw[:, None], y * sw
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitRankError(f"design matrix has rank {rank} < {design.shape[1]}")
    return coeffs


@dataclass
class FitResult:
    """Outcome of one least-squares fit."""

    model: FitModel
    parameter_names: tuple[str, ...]
    parameters: np.ndarray
    covariance: np.ndarray
    rss: float
    n_iter: int
    converged: bool
    message: str = ""
    rss_trace: list = field(default_factory=list)

    def parameter(self, name: str) -> float:
        return float(self.parameters[self.parameter_names.index(name)])

    def stderr(self, name: str) -> float:
        k = self.parameter_names.index(name)
        return float(math.sqrt(max(self.covariance[k, k], 0.0)))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model.evaluate(x, self.parameters)


def _to_internal(model: FitModel, p: np.ndarray) -> np.ndarray:
    """Internal parameters of natural parameter vectors ``p[..., k]``.

    Vectors are checked in order; the first one with a log parameter <= 0
    raises naming its first such parameter.
    """
    theta = np.array(p, dtype=float)
    positive = list(model._positive_indices())
    bad = theta[..., positive] <= 0
    if bad.any():
        first = int(np.argmax(bad.reshape(-1))) % len(positive)
        raise ValueError(f"parameter {model.parameter_names()[positive[first]]} must be > 0")
    theta[..., positive] = np.log(theta[..., positive])
    return theta


def _from_internal(model: FitModel, theta: np.ndarray) -> np.ndarray:
    """Natural-space parameters of internal parameter vectors ``theta[..., k]``."""
    p = np.array(theta, dtype=float)
    for k in model._positive_indices():
        p[..., k] = np.exp(np.minimum(p[..., k], 700.0))
    return p


def _residuals(model: FitModel, theta, x, y, sw) -> np.ndarray:
    """Weighted residuals of parameter vectors ``theta[..., k]`` against ``y``.

    A trial step can overflow or divide by a vanishing width; the engine
    rejects its non-finite residuals, so numpy's warnings are silenced here.
    """
    p = _from_internal(model, theta)
    with np.errstate(all="ignore"):
        return (y - model.evaluate(x, np.moveaxis(p, -1, 0)[..., None])) * sw


def _jacobian(model: FitModel, theta, x, sw) -> np.ndarray:
    """Jacobians of the rows' residuals by their internal parameters, (rows, n, k).

    Closed form: minus the weight times the model's partial derivatives,
    times d p / d theta = p for a log parameter, whose column is exactly 0
    where ``_from_internal`` clamps it. Every element depends on its own
    row alone, whatever batch the row is in.
    """
    p = _from_internal(model, theta)
    positive = model._positive_indices()
    scale = -sw
    # C order (rows, n, k): each row's J^T J and J^T r then go through the
    # same BLAS calls, with the same rounding, whatever batch it is in
    jac = np.empty(sw.shape + theta.shape[1:])
    with np.errstate(all="ignore"):
        for k, partial in enumerate(model._partials(x, np.moveaxis(p, -1, 0)[..., None])):
            weight = scale * p[:, k, None] if k in positive else scale
            np.multiply(partial, weight, out=jac[:, :, k])
    for k in positive:
        jac[theta[:, k] > 700.0, :, k] = 0.0
    return jac


def _normal_equations(jac: np.ndarray, r: np.ndarray):
    """Per-row J^T J and J^T r."""
    jac_t = np.swapaxes(jac, 1, 2)
    return jac_t @ jac, (jac_t @ r[:, :, None])[:, :, 0]


def _sum_squares(r: np.ndarray) -> np.ndarray:
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _stack(rows, x: np.ndarray, name: str) -> np.ndarray:
    """``rows`` as a (rows, len(x)) float array; ragged or mismatched rows raise."""
    try:
        stack = np.asarray(rows, dtype=float)
    except ValueError:  # rows of different lengths
        stack = None
    if x.ndim != 1 or stack is None or stack.shape != (len(rows), len(x)):
        raise ValueError(f"x and {name} must be matching one-dimensional arrays")
    return stack


def _prepare_rows(model: FitModel, x: np.ndarray, y_rows, y_err_rows, inits):
    """Stacked rows, weights, absolute-error flags and internal starts.

    Each check runs once over the whole stack, in the order :func:`fit_rows`
    documents, and the first check that any row fails raises.
    """
    y = _stack(y_rows, x, "y")
    unit = np.ones(len(x))
    errors = _stack([unit if y_err is None else y_err for y_err in y_err_rows], x, "y_err")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DegenerateDataError("fit data must be finite")
    n_min = model.n_parameters() + 1
    if len(x) < n_min:
        raise DegenerateDataError(f"{model.family} fit needs at least {n_min} points")
    if model.family != "polynomial":
        spread = np.ptp(y, axis=1)
        if np.any(spread < 1e-14 * np.maximum(np.max(np.abs(y), axis=1), 1e-300)):
            raise DegenerateDataError(
                f"constant data carries no information for a {model.family} fit"
            )
    if not np.all(errors > 0):  # inf: a point of no weight
        raise ValueError("y_err must be > 0")
    absolute = np.array([y_err is not None for y_err in y_err_rows])
    starts = None if model._linear() else _internal_starts(model, x, y, inits)
    return y, 1.0 / errors**2, absolute, starts


def _internal_starts(model: FitModel, x: np.ndarray, y: np.ndarray, inits) -> np.ndarray:
    """Checked internal starting parameters of rows ``y``, shape (rows, k).

    Rows are started in order, so an initializer's or a length error raises
    at its row; then the first start with a log parameter <= 0 raises.
    """
    n_par = model.n_parameters()
    p0 = np.empty((len(y), n_par))
    for i, init in enumerate(inits):
        start = _auto_init(model, x, y[i]) if init is None else np.asarray(init, dtype=float)
        if len(start) != n_par:
            raise ValueError(f"{model.family} expects {n_par} parameters, got {len(start)}")
        p0[i] = start
    return _to_internal(model, p0)


def _canonicalize_sinusoid(model: FitModel, p: np.ndarray, cov: np.ndarray):
    """Fold amplitude sign into the phase and reduce it to [0, 2pi).

    Takes one parameter vector and covariance, or stacks of them
    (``p[..., k]``, ``cov[..., k, k]``).
    """
    phase_k = model.parameter_names().index("phase")
    negative = p[..., 0] < 0
    flip = np.ones(p.shape)
    flip[..., 0] = np.where(negative, -1.0, 1.0)
    p = p * flip
    cov = cov * (flip[..., :, None] * flip[..., None, :])
    phase = p[..., phase_k]
    p[..., phase_k] = np.where(negative, phase + math.pi, phase) % (2.0 * math.pi)
    return p, cov


def fit_curve(
    model: FitModel,
    x: np.ndarray,
    y: np.ndarray,
    y_err: np.ndarray | None = None,
    init: np.ndarray | None = None,
) -> FitResult:
    """Fit ``model`` to data with damped (Levenberg-Marquardt) least squares.

    This is the one-row case of :func:`fit_rows`.

    Parameters
    ----------
    model : FitModel
        Family selector.
    x, y : ndarray
        Sample locations and values, one-dimensional and finite.
    y_err : ndarray, optional
        Per-point standard errors, each > 0; an infinite one gives its point
        no weight. When given, residuals are weighted by 1/y_err**2 and the
        covariance treats the errors as absolute; when omitted, the
        covariance is scaled by the residual variance rss/dof.
    init : ndarray, optional
        Starting parameters in natural units; defaults to the automatic
        initializer for the family.

    Returns
    -------
    FitResult
        With converged=False and a diagnostic message on non-convergence;
        the residual sum of squares over accepted iterations is
        non-increasing.
    """
    return fit_rows(model, x, [y], [y_err], [init])[0]


def fit_rows(
    model: FitModel,
    x: np.ndarray,
    y_rows,
    y_err_rows=None,
    inits=None,
) -> list[FitResult]:
    """Fit ``model`` to each row of data sharing the abscissa ``x``.

    Every row runs its own Levenberg-Marquardt iteration (damping factor,
    acceptance, convergence test and messages exactly as :func:`fit_curve`
    documents), but all rows still iterating advance in lockstep, so each
    iteration costs a handful of array operations for the whole batch: one
    closed-form Jacobian per row and a batched solve per damping factor
    tried. The iterations and the covariance use the same Jacobian. A row of
    a linear family (polynomial, fringe) starts at its linear least-squares
    solution and takes none; its ``inits`` entry is not read.

    Parameters
    ----------
    model : FitModel
        Family selector.
    x : ndarray
        Sample locations shared by every row.
    y_rows : sequence of ndarray
        One data row per fit, each matching ``x``.
    y_err_rows : sequence, optional
        Per-row standard errors; an entry of None fits that row unweighted.
    inits : sequence, optional
        Per-row starting parameters; an entry of None uses the automatic
        initializer.

    Returns
    -------
    list of FitResult
        One result per row, in row order.

    Raises
    ------
    ValueError, DegenerateDataError
        Checks run on the whole stack before any iteration, and the first
        check that any row fails raises. ``x`` must be one-dimensional, and
        ``y_rows`` and the given ``y_err_rows`` must stack to (rows, len(x)):
        ragged or mismatched rows raise at once. Then, over all rows: the
        data are finite; there are at least k + 1 points for k parameters;
        no row is constant (polynomials excepted); every y_err is > 0. Last,
        the rows' starts are taken in order, and an initializer's or a
        length error raises at its row, before the first start with a log
        parameter <= 0 does.
    """
    x = np.asarray(x, dtype=float)
    n_rows = len(y_rows)
    y_err_rows = [None] * n_rows if y_err_rows is None else list(y_err_rows)
    inits = [None] * n_rows if inits is None else list(inits)
    if not len(y_err_rows) == len(inits) == n_rows:
        raise ValueError("y_err_rows and inits need one entry per data row")
    if not n_rows:
        return []
    y, weights, absolute, theta = _prepare_rows(model, x, y_rows, y_err_rows, inits)
    sw = np.sqrt(weights)
    if model._linear():
        design = _design(model, x)
        theta = np.array([_lstsq(design, row, s) for row, s in zip(y, sw)])
    return _levenberg_marquardt(model, x, y, sw, absolute, theta)


def _levenberg_marquardt(model, x, y, sw, absolute, theta) -> list[FitResult]:
    """Lockstep damped least squares over rows ``y`` from internal starts ``theta``.

    Each row keeps its own damping factor and leaves the batch when it
    converges, stalls, or meets non-finite derivatives. The covariance
    inverts J^T J of the weighted residuals, scaled by rss/dof for an
    unweighted row only: a weighted row's errors are absolute.
    """
    n_rows = len(theta)
    r = _residuals(model, theta, x, y, sw)
    rss = _sum_squares(r)
    lam = np.full(n_rows, LAMBDA_INIT)
    traces = [[value] for value in rss.tolist()]
    # a linear family's row starts at its least-squares minimum: no iteration
    linear = model._linear()
    converged = np.full(n_rows, linear)
    messages = [""] * n_rows
    n_iter = np.full(n_rows, 0 if linear else MAX_ITERATIONS)
    active = np.arange(0 if linear else n_rows)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if not len(active):
            break
        jac = _jacobian(model, theta[active], x, sw[active])
        hess, grad = _normal_equations(jac, r[active])
        finite = np.all(np.isfinite(hess), axis=(1, 2)) & np.all(np.isfinite(grad), axis=1)
        for i in active[~finite]:
            messages[i] = "non-finite model derivatives"
        n_iter[active[~finite]] = iteration
        active, hess, grad = active[finite], hess[finite], grad[finite]
        row_lam = lam[active]
        accepted, step, r_trial, rss_trial = _damped_steps(
            model, x, y[active], sw[active], theta[active], rss[active], row_lam, hess, grad
        )
        lam[active] = row_lam
        # no damped step lowers the residual: stationary to machine
        # precision (exact for zero residual or zero gradient)
        stalled = active[~accepted]
        converged[stalled] = True
        n_iter[stalled] = iteration
        for i, g in zip(stalled, grad[~accepted]):
            if rss[i] > 0.0 and float(np.max(np.abs(g))) > 0.0:
                messages[i] = "stalled: no damped step reduces the residual"
        moved = active[accepted]
        step = step[accepted]
        trial = theta[moved] + step
        rel = np.max(np.abs(step) / np.maximum(np.abs(trial), 1e-12), axis=1)
        theta[moved] = trial
        r[moved] = r_trial[accepted]
        rss[moved] = rss_trial[accepted]
        for i, value in zip(moved, rss_trial[accepted].tolist()):
            traces[i].append(value)
        lam[moved] = np.maximum(lam[moved] / LAMBDA_DOWN, 1e-14)
        done = rel < RELATIVE_STEP_TOL
        converged[moved[done]] = True
        n_iter[moved[done]] = iteration
        active = moved[~done]
    for i in active:
        messages[i] = f"no convergence within {MAX_ITERATIONS} iterations"

    params = _from_internal(model, theta)
    jac = _jacobian(model, theta, x, sw)
    normal = np.swapaxes(jac, 1, 2) @ jac
    dof = max(len(x) - theta.shape[1], 1)
    scale = np.where(absolute, 1.0, rss / dof)[:, None, None]
    try:
        inverse = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        inverse = np.array([_inverse(matrix) for matrix in normal])
    # delta method back to natural space: d p / d theta = p for log parameters
    deriv = np.ones_like(params)
    positive = list(model._positive_indices())
    deriv[:, positive] = params[:, positive]
    cov = scale * inverse * (deriv[:, :, None] * deriv[:, None, :])
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    if model.family in ("sinusoid", "damped-sinusoid"):
        params, cov = _canonicalize_sinusoid(model, params, cov)
    # a parameter the data do not determine is flagged, whatever its rss
    rows, ks = np.nonzero(np.isinf(np.diagonal(inverse, axis1=1, axis2=2)))
    cov[rows, ks, ks] = np.inf
    for i in dict.fromkeys(rows.tolist()):
        names = ", ".join(model.parameter_names()[k] for k in ks[rows == i])
        converged[i] = False
        messages[i] = "; ".join(filter(None, (messages[i], f"undetermined parameters: {names}")))
    return [
        FitResult(
            model=model,
            parameter_names=model.parameter_names(),
            parameters=params[i],
            covariance=cov[i],
            rss=float(rss[i]),
            n_iter=int(n_iter[i]),
            converged=bool(converged[i]),
            message=messages[i],
            rss_trace=traces[i],
        )
        for i in range(n_rows)
    ]


def _inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of one normal matrix, with infinite variance where it is singular.

    A singular matrix, scaled to a unit diagonal, is inverted on its
    eigenvectors above ``matrix_rank``'s tolerance. A parameter with a zero
    column, or a component along the remaining null space, is undetermined:
    its variance is infinite, and its covariances are 0.
    """
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        pass
    scale = np.sqrt(np.diagonal(matrix))
    live = scale > 0
    block = np.ix_(live, live)
    outer = np.outer(scale[live], scale[live])
    values, vectors = np.linalg.eigh(matrix[block] / outer)
    null = values <= values.max(initial=0.0) * len(values) * np.finfo(float).eps
    kept = vectors[:, ~null]
    inverse = np.zeros_like(matrix)
    inverse[block] = (kept / values[~null]) @ kept.T / outer
    undetermined = ~live
    # a component above sqrt(eps) is no rounding error of an eigenvector
    undetermined[live] = np.sum(vectors[:, null] ** 2, axis=1) > np.sqrt(np.finfo(float).eps)
    inverse[undetermined, undetermined] = np.inf
    return inverse


def _damped_steps(model, x, y, sw, theta, rss, lam, hess, grad):
    """Raise each row's damping factor until its step lowers the residual.

    All arguments are the iterating rows; ``lam`` is updated in place, and
    a row whose factor passes LAMBDA_MAX gives up. Every row first tries
    its current factor; a rejected row then tries its next LADDER_RUNGS
    factors of the schedule together and takes the first accepted one, as
    trying them one at a time would. Returns the accepted mask and, for
    accepted rows, the step, trial residuals and trial rss.
    """
    n_par = theta.shape[1]
    diag = np.arange(n_par)
    floor = 1e-12 * np.max(np.abs(hess), axis=(1, 2)) + 1e-300
    damping = np.maximum(hess[:, diag, diag], floor[:, None])
    system = hess.copy()
    system[:, diag, diag] += lam[:, None] * damping
    solved, step = _solve_rows(system, grad)
    r_trial = _residuals(model, theta + step, x, y, sw)
    rss_trial = _sum_squares(r_trial)
    accepted = solved & np.isfinite(rss_trial) & (rss_trial < rss) & (lam <= LAMBDA_MAX)
    lam[~accepted] *= LAMBDA_UP
    search = np.flatnonzero(~accepted & (lam <= LAMBDA_MAX))
    while len(search):
        # the schedule's next factors by repeated multiplication, one row each
        factors = np.full((len(search), LADDER_RUNGS + 1), LAMBDA_UP)
        factors[:, 0] = lam[search]
        ladder = np.multiply.accumulate(factors, axis=1)
        tried = ladder[:, :-1] <= LAMBDA_MAX
        row, rung = np.nonzero(tried)
        owner = search[row]
        system = hess[owner]
        system[:, diag, diag] += ladder[row, rung][:, None] * damping[owner]
        solved, steps = _solve_rows(system, grad[owner])
        r_new = _residuals(model, theta[owner] + steps, x, y[owner], sw[owner])
        rss_new = _sum_squares(r_new)
        good = np.zeros(tried.shape, dtype=bool)
        good[row, rung] = solved & np.isfinite(rss_new) & (rss_new < rss[owner])
        first = np.argmax(good, axis=1)
        won = good.any(axis=1)
        n_tried = np.count_nonzero(tried, axis=1)
        pair = (np.cumsum(n_tried) - n_tried + first)[won]
        winners = search[won]
        accepted[winners] = True
        step[winners] = steps[pair]
        r_trial[winners] = r_new[pair]
        rss_trial[winners] = rss_new[pair]
        lam[search] = ladder[np.arange(len(search)), np.where(won, first, n_tried)]
        search = search[~won]
        search = search[lam[search] <= LAMBDA_MAX]
    return accepted, step, r_trial, rss_trial


def _solve_rows(system: np.ndarray, grad: np.ndarray):
    """Steps ``-system^-1 grad`` per row, and which rows' systems were solvable."""
    try:
        steps = -np.linalg.solve(system, grad[:, :, None])[:, :, 0]
        return np.ones(len(system), dtype=bool), steps
    except np.linalg.LinAlgError:
        pass
    solved = np.ones(len(system), dtype=bool)
    steps = np.zeros_like(grad)
    for i in range(len(system)):
        try:
            steps[i] = -np.linalg.solve(system[i], grad[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return solved, steps


def _grid_step(x: np.ndarray) -> float:
    dx = np.diff(np.sort(x))
    dx = dx[dx > 0]
    return float(np.min(dx)) if len(dx) else 1.0


def _median(values) -> float:
    """Median of finite values, bit for bit as ``np.median``.

    ``np.median``'s NaN check imports ``numpy.ma``, a start-up cost that no
    other analysis step pays.
    """
    ordered = np.sort(values, axis=None)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    if not len(ordered):
        return math.nan
    return float((ordered[half - 1] + ordered[half]) / 2)


def _peak_moments(x, y):
    """Signed peak location/width estimates shared by the peak families."""
    lo = float(np.min(y))
    hi = float(np.max(y))
    med = _median(y)
    upward = (hi - med) >= (med - lo)
    c0 = lo if upward else hi
    w = np.abs(y - c0)
    total = float(np.sum(w))
    if total == 0.0:
        mu0 = float(np.mean(x))
        sigma0 = max(np.std(x), _grid_step(x))
    else:
        mu0 = float(np.sum(w * x) / total)
        var = float(np.sum(w * (x - mu0) ** 2) / total)
        sigma0 = max(math.sqrt(max(var, 0.0)), 0.5 * _grid_step(x))
    amp0 = (hi - c0) if upward else (lo - c0)
    if amp0 == 0.0:
        amp0 = hi - lo if upward else lo - hi
    return amp0, mu0, sigma0, c0, upward


def _init_gaussian(x, y):
    amp0, mu0, sigma0, c0, _ = _peak_moments(x, y)
    return np.array([amp0, mu0, sigma0, c0])


def _init_lorentzian(x, y):
    amp0, mu0, sigma0, c0, upward = _peak_moments(x, y)
    w = (y - c0) if upward else (c0 - y)
    n_half = int(np.sum(w >= 0.5 * abs(amp0)))
    fwhm0 = max(n_half, 1) * _grid_step(x)
    return np.array([amp0, mu0, fwhm0, c0])


def peak_row_starts(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gaussian start values for rows of upward lines that may be edge-truncated.

    The moment initializer can read a peak parked near a grid edge as a
    dip; rows known to be upward peaks (spectroscopy lines, their standard
    errors) are seeded from their maximum directly. Returns shape
    ``(rows, 4)``; each row's start depends on that row alone.
    """
    rows = np.asarray(rows, dtype=float)
    top = np.max(rows, axis=1)
    floor = np.min(rows, axis=1)
    step = _median(np.diff(np.sort(x)))
    n_half = np.count_nonzero(rows - floor[:, None] > 0.5 * (top - floor)[:, None], axis=1)
    starts = np.empty((len(rows), 4))
    starts[:, 0] = np.maximum(top - floor, 1e-9)
    starts[:, 1] = x[np.argmax(rows, axis=1)]
    starts[:, 2] = np.maximum(n_half, 1) * step / 2.355
    starts[:, 3] = floor
    return starts


def usable_errors(stderr):
    """Per-point errors to weight a fit by, or None unless every one is > 0.

    Noise-free (expectation-mode) data carries zero errors and fits
    unweighted.
    """
    err = np.asarray(stderr, dtype=float)
    return err if np.all(err > 0) else None


def _log_linear_rate(x, w):
    """Decay time from a log-linear regression on the dominant-sign part."""
    mask = w > 1e-3 * np.max(w)
    try:
        coef = _lstsq(_design(FitModel("polynomial", order=1), x[mask]), np.log(w[mask]))
    except FitRankError:  # fewer than two distinct abscissas
        return None
    slope = coef[1]
    if slope >= 0:
        return None
    return float(np.exp(coef[0])), float(-1.0 / slope)


def _exponential_start(x, y, rising: bool):
    """Tail mean, amplitude and time of ``y`` decaying to its tail mean.

    With ``rising``, of ``y`` rising to it; both by log-linear regression.
    """
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    n_tail = max(3, len(xs) // 10)
    tail = float(np.mean(ys[-n_tail:]))
    w = tail - ys if rising else ys - tail
    sign = 1.0 if abs(np.max(w)) >= abs(np.min(w)) else -1.0
    span = float(xs[-1] - xs[0]) or 1.0
    est = _log_linear_rate(xs - xs[0], sign * w)
    if est is None:
        a0, tau0 = float(w[0]), span / 2.0
    else:
        a0, tau0 = sign * est[0], est[1]
        a0 *= math.exp(xs[0] / tau0) if xs[0] / tau0 < 50 else 1.0
    if a0 == 0.0:
        a0 = float(np.ptp(ys)) or 1.0
    return tail, a0, max(tau0, 1e-3 * span)


def _init_exponential(x, y):
    c0, a0, tau0 = _exponential_start(x, y, rising=False)
    return np.array([a0, tau0, c0])


def _init_saturating(x, y):
    return np.array(_exponential_start(x, y, rising=True))


def _init_sinusoid_core(x, y):
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    c0 = float(np.mean(ys))
    d = ys - c0
    n = len(xs)
    dx = float(xs[-1] - xs[0]) / max(n - 1, 1)
    if dx <= 0:
        dx = _grid_step(xs)
    spectrum = np.fft.rfft(d)
    if len(spectrum) < 2:
        return 1.0, 1.0 / (n * dx), 0.0, c0
    k = 1 + int(np.argmax(np.abs(spectrum[1:])))
    f0 = k / (n * dx)
    a0 = 2.0 * abs(spectrum[k]) / n
    phi0 = float(np.angle(spectrum[k])) + 0.5 * math.pi - 2.0 * math.pi * f0 * xs[0]
    return max(a0, 1e-3 * np.ptp(ys)), f0, phi0 % (2.0 * math.pi), c0


def _init_sinusoid(x, y):
    a0, f0, phi0, c0 = _init_sinusoid_core(x, y)
    return np.array([a0, f0, phi0, c0])


def _init_damped_sinusoid(x, y):
    a0, f0, phi0, c0 = _init_sinusoid_core(x, y)
    span = float(np.max(x) - np.min(x)) or 1.0
    return np.array([1.5 * a0, 0.5 * span, f0, phi0, c0])


def _init_double_gaussian(x, y):
    c0 = float(np.min(y))
    w = y - np.min(y)
    total = float(np.sum(w))
    if total == 0.0:
        raise DegenerateDataError("flat histogram for double-gaussian fit")
    centroid = float(np.sum(w * x) / total)
    sigma_glob = math.sqrt(max(float(np.sum(w * (x - centroid) ** 2) / total), 0.0))
    sigma_glob = max(sigma_glob, _grid_step(x))
    k1 = int(np.argmax(y))
    mu1 = float(x[k1])
    away = np.abs(x - mu1) > sigma_glob
    if not np.any(away):
        away = np.abs(x - mu1) > 0.25 * np.ptp(x)
    if not np.any(away):
        raise DegenerateDataError("no second peak candidate for double-gaussian fit")
    k2 = int(np.argmax(np.where(away, y, -np.inf)))
    mu2 = float(x[k2])
    s0 = max(0.5 * sigma_glob, _grid_step(x))
    a1 = float(y[k1]) - c0
    a2 = float(y[k2]) - c0
    if a2 <= 0:
        a2 = 0.1 * a1
    return np.array([a1, mu1, s0, a2, mu2, s0, c0])


# family -> (parameter names, indices fitted as logarithms, initializer);
# a family with no initializer is linear and solved directly, and the
# polynomial's names follow its order
_FAMILIES = {
    "gaussian": (("amplitude", "center", "sigma", "offset"), (2,), _init_gaussian),
    "lorentzian": (("amplitude", "center", "fwhm", "offset"), (2,), _init_lorentzian),
    "exponential-decay": (("amplitude", "tau", "offset"), (1,), _init_exponential),
    "saturating-exponential": (("plateau", "amplitude", "tau"), (2,), _init_saturating),
    "sinusoid": (("amplitude", "frequency", "phase", "offset"), (1,), _init_sinusoid),
    "damped-sinusoid": (
        ("amplitude", "tau", "frequency", "phase", "offset"),
        (1, 2),
        _init_damped_sinusoid,
    ),
    "double-gaussian": (
        ("amplitude_1", "center_1", "sigma_1", "amplitude_2", "center_2", "sigma_2", "offset"),
        (2, 5),
        _init_double_gaussian,
    ),
    "fringe": (("offset", "in_phase", "quadrature"), (), None),
    "polynomial": ((), (), None),
}


def _auto_init(model: FitModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _FAMILIES[model.family][2](x, y)


@dataclass(frozen=True)
class PolyInterpolant:
    """Least-squares polynomial with its validity interval."""

    coefficients: np.ndarray  # ascending powers
    x_min: float
    x_max: float

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Value and per-point extrapolation flag (True outside the hull)."""
        x = np.asarray(x, dtype=float)
        value = _horner(x, self.coefficients)
        outside = (x < self.x_min) | (x > self.x_max)
        return value, outside


def interpolate_poly(x: np.ndarray, y: np.ndarray, order: int = 2) -> PolyInterpolant:
    """Least-squares polynomial interpolant of the given order.

    Raises FitRankError when the design matrix is rank deficient (fewer
    distinct abscissas than coefficients).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < order + 1:
        raise ValueError(f"order-{order} interpolation needs >= {order + 1} points")
    coeffs = _lstsq(_design(FitModel("polynomial", order=order), x), y)
    return PolyInterpolant(coeffs, float(np.min(x)), float(np.max(x)))
