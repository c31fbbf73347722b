"""Independent oracles for the recovery solvers, built on scipy only.

``certificate_value`` decides whether basis pursuit must recover a planted
vector without running basis pursuit.  When ``A_T`` has full column rank,
the planted ``theta`` is the unique l1 minimizer of ``A @ x = A @ theta``
exactly when a strict dual certificate exists on its support ``T``: a
vector ``w`` with ``A_Tᵀ w = sign(theta_T)`` and ``‖A_{Tᶜ}ᵀ w‖∞ < 1``
(Fuchs 2004, "On sparse representations in arbitrary redundant bases";
Tropp 2006, "Just relax").
"""

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog


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
