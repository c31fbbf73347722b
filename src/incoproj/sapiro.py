"""Non-iterative projection design via the eigen-structure of D @ D.T.

Works in the eigenbasis of the frame operator: with D Dᵀ = V diag(λ) Vᵀ
and Γ = P V, the effective Gram is close to identity when
‖diag(λ) − diag(λ) ΓᵀΓ diag(λ)‖_F² is small.  The optimizer performs one
pass of m sequential rank-one updates, each absorbing the dominant
component of the current misfit.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum
from .linalg import top_eigh
from .matrixio import Trace

# Eigenvalues at or below this fraction of the largest count as zero.
RANK_TOL = 1e-10


def sapiro_objective(lambdas, Gamma) -> float:
    """Squared Frobenius misfit ‖diag(λ) − diag(λ) ΓᵀΓ diag(λ)‖_F² for eigenvalues λ."""
    lam = np.asarray(lambdas, dtype=float)
    R = -(lam[:, None] * (Gamma.T @ Gamma) * lam[None, :])
    R[np.diag_indices_from(R)] += lam
    return float(np.sum(R * R))


def sapiro_optimize(D, m: int, seed: int) -> tuple[np.ndarray, Trace]:
    """One pass of m rank-one updates; returns (P, trace).

    For each row j of Γ: form the misfit E_j = diag(λ) − Σ_{i≠j} v_i v_iᵀ
    (v_i = row i of Γ scaled entrywise by λ), take its largest eigenpair
    (ξ₁, u₁), set v_j = sqrt(max(ξ₁, 0))·u₁, and write v_j back into row j
    componentwise as v_j_i / λ_i wherever λ_i > 0 (components with λ_i = 0
    keep their initial values).  Finally P = Γ Vᵀ.

    Here D Dᵀ = V diag(λ) Vᵀ with eigenvalues non-increasing, clamped at
    0, and those at or below ``RANK_TOL`` times the largest set to 0
    exactly; Γ starts as P₀ V for a seeded Gaussian m x n draw P₀.  The
    trace's ``objective`` column holds the objective after each of the m
    updates, indexed by ``step``.  :func:`~incoproj.optimizers.design`
    checks D and m.

    Raises
    ------
    DegenerateSpectrum
        If every eigenvalue of D Dᵀ is numerically zero.
    """
    n = D.shape[0]
    lam, V = top_eigh(D @ D.T, n)
    lam = np.clip(lam, 0.0, None)
    if lam[0] <= 1e-12:
        raise DegenerateSpectrum("all eigenvalues of D @ D.T are numerically zero")
    lam[lam <= RANK_TOL * lam[0]] = 0.0
    gamma = np.random.default_rng(seed).standard_normal((m, n)) @ V

    nz = lam > 0.0
    objective = np.empty(m)
    for j in range(m):
        scaled = gamma * lam[None, :]  # row i = v_i
        vj = scaled[j]
        E = -(scaled.T @ scaled) + np.outer(vj, vj)
        E[np.diag_indices_from(E)] += lam
        xi, U = top_eigh(E, 1)
        v_new = np.sqrt(max(float(xi[0]), 0.0)) * U[:, 0]
        gamma[j, nz] = v_new[nz] / lam[nz]
        objective[j] = sapiro_objective(lam, gamma)
    return gamma @ V.T, Trace({"objective": objective}, index="step")
