"""Independent oracles for the recovery solvers and the K-SVD atom update.

``certificate_value`` decides whether basis pursuit must recover a planted
vector without running basis pursuit.  When ``A_T`` has full column rank,
the planted ``theta`` is the unique l1 minimizer of ``A @ x = A @ theta``
exactly when a strict dual certificate exists on its support ``T``: a
vector ``w`` with ``A_Tᵀ w = sign(theta_T)`` and ``‖A_{Tᶜ}ᵀ w‖∞ < 1``
(Fuchs 2004, "On sparse representations in arbitrary redundant bases";
Tropp 2006, "Just relax").

``exhaustive_sparsest`` is the brute-force minimum-l0 search: it tries
every support in turn, so it needs no solver and no bound to trust, and
below sparsity (1 + 1/mu) / 2 its answer must be unique.

``svd_atom_update_sweep`` is the K-SVD atom update as Aharon, Elad &
Bruckstein (2006) state it: one thin SVD per used atom, keeping the
dominant singular pair.  ``dictlearn.atom_update_sweep`` reads the same
pair off the small Gram E Eᵀ instead, and must agree with it.

``where_convex_projection`` is altproj's convex projection written as a
select on ``|G| > t``; ``altproj.project_convex`` clips instead, and must
agree with it bit for bit.

``reference_top_eigh`` is ``linalg.top_eigh`` as it was written through
``scipy.linalg.eigh``; the direct ``dsyevr`` call that replaced it makes
the same LAPACK call, and must return the same bits.

``reference_standard_lp`` is the interior-point loop of ``lp`` with one
numpy call per quantity, as it stood before x and s were stacked into one
array; ``lp.solve_standard_lp`` must return the same bytes.

``reference_omp`` is OMP on one measurement vector with a full
least-squares re-solve per step; ``pursuit.omp`` grows a QR factorization
of each support instead, and must select the same atoms and agree with it
to rounding.
"""

import itertools
from math import comb

import numpy as np
import scipy.linalg
from scipy.linalg import null_space
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linprog

from incoproj.dictlearn import _reseed_atom
from incoproj.linalg import ZERO_TOL, column_norms
from incoproj.lp import MAX_ITER, TOL, LPResult
from incoproj.pursuit import RESIDUAL_TOL, RecoveryResult, RecoveryStatus, _problem

# Supports enumerated by the exhaustive oracle are capped at this count.
ENUMERATION_GUARD = 10**6


class TooLarge(Exception):
    """The exhaustive oracle would enumerate more than ``ENUMERATION_GUARD`` supports."""


class NotFound(Exception):
    """The exhaustive oracle found no support within its budget that fits."""


def certificate_value(A, theta) -> float:
    """Smallest ``‖A_{Tᶜ}ᵀ w‖∞`` over the certificates ``w`` of ``theta``'s support and signs.

    A value below 1 means basis pursuit on ``A`` recovers ``theta``.  The
    least-squares certificate ``w0 = A_T (A_TᵀA_T)⁻¹ sign(theta_T)`` is
    tried first.  Only where it fails is the minimum taken over every
    certificate ``w0 + N z``, with ``N`` a basis of the null space of
    ``A_Tᵀ``: an LP in ``z`` and a bound ``u`` with ``m - S + 1``
    variables and ``2(k - S)`` rows, solved by HiGHS.
    """
    on = theta != 0.0
    A_T, B = A[:, on], A[:, ~on].T
    w0 = A_T @ np.linalg.solve(A_T.T @ A_T, np.sign(theta[on]))
    value = float(np.max(np.abs(B @ w0)))
    N = null_space(A_T.T)
    if value < 1.0 or N.shape[1] == 0:
        return value
    # min u  subject to  -u <= B (w0 + N z) <= u.
    BN, Bw0 = B @ N, B @ w0
    ones = np.ones((B.shape[0], 1))
    res = linprog(
        c=np.r_[np.zeros(N.shape[1]), 1.0],
        A_ub=np.block([[BN, -ones], [-BN, -ones]]),
        b_ub=np.r_[-Bw0, Bw0],
        bounds=[(None, None)] * (N.shape[1] + 1),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def exhaustive_sparsest(Dhat, y, S_max: int, tol: float) -> tuple[np.ndarray, int, bool]:
    """Brute-force minimum-l0 oracle: try every support of size 1, 2, ... S_max.

    Returns ``(theta, supports_tried, unique)``.  ``theta`` comes from the
    first (smallest) support size with least-squares residual at or below
    ``tol``, its lexicographically first such support supplying the
    coefficients.  ``unique`` is True when every admissible support of that
    size yields the same coefficient vector (entry differences within
    ``tol``).  Raises ``TooLarge`` when more than ``ENUMERATION_GUARD``
    supports would be tried, and ``NotFound`` when no support of size
    <= S_max fits.
    """
    Dh, y = _problem(Dhat, y)
    k = Dh.shape[1]
    if S_max < 0:
        raise ValueError("S_max must be >= 0")
    total = sum(comb(k, s) for s in range(1, S_max + 1))
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"{total} supports to enumerate exceeds {ENUMERATION_GUARD}")

    if float(np.linalg.norm(y)) <= tol:
        return np.zeros(k), 1, True

    tested = 0
    for s in range(1, S_max + 1):
        hits: list[np.ndarray] = []
        for support in itertools.combinations(range(k), s):
            tested += 1
            sub = Dh[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if float(np.linalg.norm(y - sub @ coef)) <= tol:
                theta = np.zeros(k)
                theta[list(support)] = coef
                hits.append(theta)
        if hits:
            first = hits[0]
            return first, tested, all(float(np.max(np.abs(h - first))) <= tol for h in hits[1:])
    raise NotFound(f"no support of size <= {S_max} fits within tol={tol}")


def reference_omp(Dhat, y, S: int) -> RecoveryResult:
    """``pursuit.omp`` on one vector, re-fitting each grown support by ``np.linalg.lstsq``."""
    Dh, y = _problem(Dhat, y)
    if S < 0:
        raise ValueError("sparsity budget must be >= 0")
    norms = column_norms(Dh, "effective dictionary")
    tol = RESIDUAL_TOL * float(np.linalg.norm(y))

    support: list[int] = []
    coef = np.empty(0)
    r = y.copy()
    while len(support) < S and float(np.linalg.norm(r)) > tol:
        scores = np.abs(Dh.T @ r) / norms
        if support:
            scores[support] = -1.0
        j = int(np.argmax(scores))  # first occurrence: smallest index on ties
        if scores[j] <= 1e-13 * max(float(np.linalg.norm(r)), 1e-300):
            break  # residual orthogonal to every unused column; no progress possible
        support.append(j)
        sub = Dh[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = y - sub @ coef

    theta = np.zeros(Dh.shape[1])
    if support:
        theta[support] = coef
    residual = float(np.linalg.norm(y - Dh @ theta))
    status = RecoveryStatus.CONVERGED if residual <= tol else RecoveryStatus.MAX_ITER
    return RecoveryResult(theta, len(support), status)


def where_convex_projection(G, t: float) -> np.ndarray:
    """Off-diagonal entries above ``t`` in magnitude become ``t * sign``; the diagonal is raised to 1."""
    out = np.where(np.abs(G) > t, t * np.sign(G), G)
    np.fill_diagonal(out, np.maximum(np.diag(G), 1.0))
    return out


def svd_atom_update_sweep(X, D, Theta, rng, backmap=None) -> list[int]:
    """``atom_update_sweep`` with each used atom fitted by a thin SVD of its residual E.

    The lifted atom u is the first left singular vector, signed so that its
    first nonzero component is positive, and the coefficients are sigma1
    times the first right singular vector with the same sign; the atom is
    solve(u) made unit, its row scaled by the norm it had, and no backmap
    means the identity lift, as in the program.  Unused atoms, and used
    atoms whose solve is numerically zero (their rows cleared first), are
    re-seeded by the program's own rule, which this oracle does not check.
    """
    W, solve = backmap if backmap is not None else (np.eye(D.shape[0]), lambda u: u)
    A = W @ D
    R = X - A @ Theta
    replaced, seeds = [], []
    for j in range(D.shape[1]):
        omega = np.flatnonzero(Theta[j])
        if omega.size:
            E = R[:, omega] + np.outer(A[:, j], Theta[j, omega])
            U, sv, Vt = np.linalg.svd(E, full_matrices=False)
            u, v = U[:, 0], Vt[0]
            if u[np.flatnonzero(u)[0]] < 0:
                u, v = -u, -v
            d = solve(u)
            nrm = float(np.linalg.norm(d))
            if nrm > ZERO_TOL:
                D[:, j] = d / nrm
                Theta[j, omega] = sv[0] * v * nrm
                A[:, j] = W @ D[:, j]
                R[:, omega] = E - np.outer(A[:, j], Theta[j, omega])
                continue
            Theta[j, omega] = 0.0
            R[:, omega] = E
        D[:, j] = _reseed_atom(X, R, seeds, rng, D.shape[0], solve)
        A[:, j] = W @ D[:, j]
        replaced.append(j)
    return replaced


def reference_top_eigh(A, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``linalg.top_eigh`` with its subset solved by ``scipy.linalg.eigh``."""
    k = A.shape[0]
    if m >= k:
        w, V = np.linalg.eigh(A)
    else:
        w, V = scipy.linalg.eigh(A, subset_by_index=(k - m, k - 1), check_finite=False)
    V = np.array(V[:, ::-1])
    first = np.argmax(V != 0.0, axis=0)
    V[:, V[first, np.arange(V.shape[1])] < 0] *= -1.0
    return w[::-1], V


def _chol_solve_factory(M: np.ndarray):
    """LAPACK Cholesky solve (dpotrf/dpotrs), escalating diagonal jitter for near-singular M."""
    if not np.all(np.isfinite(M)):
        # Jitter cannot repair overflow; let the caller treat this as a
        # numerical breakdown of the current iterate.
        raise np.linalg.LinAlgError("normal equations contain non-finite entries")
    scale = float(np.trace(M)) / M.shape[0]
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    for _ in range(8):
        L, info = dpotrf(M + jitter * np.eye(M.shape[0]) if jitter else M, lower=1, clean=0)
        if info == 0:
            return lambda rhs: dpotrs(L, rhs, lower=1)[0]
        jitter = max(jitter * 100.0, 1e-13 * scale)
    raise np.linalg.LinAlgError("normal equations not factorizable even with jitter")


def _step_length(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha*dv >= 0 (inf when dv never decreases v)."""
    return float(np.min(np.divide(-v, dv, out=np.full(v.shape, np.inf), where=dv < 0.0)))


def reference_standard_lp(c, A, b) -> LPResult:
    """``lp.solve_standard_lp`` as it was written before its iterate was stacked.

    One numpy call per quantity, x and s as separate arrays, and a
    ``_step_length`` call per step.  The stacked solver keeps every
    floating-point operation of this loop, so the two must agree bit for bit.
    """
    n_vars = A.shape[1]

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(c)

    # Starting point (least-squares heuristic, shifted into the positive orthant).
    solve0 = _chol_solve_factory(A @ A.T)
    x = A.T @ solve0(b)
    lam = solve0(A @ c)
    s = c - A.T @ lam
    x += max(-1.5 * float(x.min(initial=0.0)), 0.0)
    s += max(-1.5 * float(s.min(initial=0.0)), 0.0)
    mu0 = float(x @ s)
    if mu0 > 0.0 and float(x.sum()) > 0.0 and float(s.sum()) > 0.0:
        x = x + 0.5 * mu0 / float(s.sum())
        s = s + 0.5 * mu0 / float(x.sum())
    else:
        x = np.ones(n_vars)
        s = np.ones(n_vars)

    def residuals(x, lam, s):
        rb = A @ x - b
        rc = A.T @ lam + s - c
        cx = float(c @ x)
        mu = float(x @ s) / n_vars
        pinf = float(np.linalg.norm(rb)) / bnorm
        dinf = float(np.linalg.norm(rc)) / cnorm
        gap = abs(cx - float(b @ lam)) / (1.0 + abs(cx))
        ok = pinf <= TOL and dinf <= TOL and min(gap, mu / (1.0 + abs(cx))) <= TOL
        return rb, rc, mu, ok

    def newton(rxs):
        # (dx, dlam, ds) for complementarity target rxs at the current
        # iterate: predictor and corrector share its factorization, solve.
        w = (rxs + x * rc) / s
        dlam = solve(-rb - A @ w)
        At_dlam = A.T @ dlam
        return w + d * At_dlam, dlam, -rc - At_dlam

    for iterations in range(1, MAX_ITER + 1):
        rb, rc, mu, converged = residuals(x, lam, s)
        if converged:
            break

        # Near-degenerate complementary pairs can overflow x/s; any
        # non-finite quantity below means the iterate is as good as it
        # gets, so keep it and stop rather than poison the factorization.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = x / s
            if not np.all(np.isfinite(d)):
                break
            try:
                solve = _chol_solve_factory((A * d) @ A.T)
            except np.linalg.LinAlgError:
                break

            # Predictor (affine scaling) direction.
            dx_a, _, ds_a = newton(-x * s)
            if not (np.all(np.isfinite(dx_a)) and np.all(np.isfinite(ds_a))):
                break
            alpha_p = min(1.0, _step_length(x, dx_a))
            alpha_d = min(1.0, _step_length(s, ds_a))
            mu_aff = float((x + alpha_p * dx_a) @ (s + alpha_d * ds_a)) / n_vars
            sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0) if mu > 0.0 else 0.0
            if not np.isfinite(sigma):
                break

            # Corrector direction with centering.
            dx, dlam, ds = newton(sigma * mu - x * s - dx_a * ds_a)

            eta = min(max(0.995, 1.0 - mu), 0.99995)
            alpha_p = min(1.0, eta * _step_length(x, dx))
            alpha_d = min(1.0, eta * _step_length(s, ds))
            if alpha_p <= 0.0 or alpha_d <= 0.0:
                break
            x_new = x + alpha_p * dx
            lam_new = lam + alpha_d * dlam
            s_new = s + alpha_d * ds
        if not (
            np.all(np.isfinite(x_new))
            and np.all(np.isfinite(s_new))
            and np.all(np.isfinite(lam_new))
        ):
            break
        x, lam, s = x_new, lam_new, s_new
    else:
        # Ran out of iterations; the final step may still have converged.
        *_, converged = residuals(x, lam, s)

    return LPResult(x=x, lam=lam, iterations=iterations, converged=converged)
