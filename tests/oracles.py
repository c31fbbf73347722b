"""Independent oracles for the recovery solvers and the K-SVD atom update.

``certificate_value`` decides whether basis pursuit must recover a planted
vector without running basis pursuit.  When ``A_T`` has full column rank,
the planted ``theta`` is the unique l1 minimizer of ``A @ x = A @ theta``
exactly when a strict dual certificate exists on its support ``T``: a
vector ``w`` with ``A_Tᵀ w = sign(theta_T)`` and ``‖A_{Tᶜ}ᵀ w‖∞ < 1``
(Fuchs 2004, "On sparse representations in arbitrary redundant bases";
Tropp 2006, "Just relax").

``svd_atom_update_sweep`` is the K-SVD atom update as Aharon, Elad &
Bruckstein (2006) state it: one thin SVD per used atom, keeping the
dominant singular pair.  ``dictlearn.atom_update_sweep`` reads the same
pair off the small Gram E Eᵀ instead, and must agree with it.

``where_convex_projection`` is altproj's convex projection written as a
select on ``|G| > t``; ``altproj.project_convex`` clips instead, and must
agree with it bit for bit.
"""

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from incoproj.dictlearn import _random_atom, _reseed_atom
from incoproj.linalg import ZERO_TOL


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


def where_convex_projection(G, t: float) -> np.ndarray:
    """Off-diagonal entries above ``t`` in magnitude become ``t * sign``; the diagonal is raised to 1."""
    out = np.where(np.abs(G) > t, t * np.sign(G), G)
    np.fill_diagonal(out, np.maximum(np.diag(G), 1.0))
    return out


def svd_atom_update_sweep(X, D, Theta, rng, backmap=None) -> list[int]:
    """``atom_update_sweep`` with each used atom fitted by a thin SVD of its residual E.

    The atom is the first left singular vector, signed so that its first
    nonzero component is positive, and the coefficients are sigma1 times
    the first right singular vector with the same sign.  Unused atoms are
    re-seeded by the program's own rule, which this oracle does not check.
    """
    W, solve = backmap if backmap is not None else (None, None)
    A = D if W is None else W @ D
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
            d = u if solve is None else solve(u)
            nrm = 1.0 if solve is None else float(np.linalg.norm(d))
            if nrm > ZERO_TOL:
                D[:, j] = d / nrm
                Theta[j, omega] = sv[0] * v * nrm
                if W is not None:
                    A[:, j] = W @ D[:, j]
                R[:, omega] = E - np.outer(A[:, j], Theta[j, omega])
                continue
            Theta[j, omega] = 0.0
            R[:, omega] = E
            D[:, j] = _random_atom(rng, D.shape[0])
        else:
            D[:, j] = _reseed_atom(X, R, seeds, rng, D.shape[0], solve)
        if W is not None:
            A[:, j] = W @ D[:, j]
        replaced.append(j)
    return replaced
