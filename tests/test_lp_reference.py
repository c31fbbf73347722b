"""The stacked interior-point loop returns the reference loop's bytes.

``oracles.reference_standard_lp`` is the LP loop with one numpy call per
quantity.  ``lp.solve_standard_lp`` holds x and s in one array and shares
calls between them, but keeps every floating-point operation, so x, lam,
the iteration count and the converged flag must be equal, bytes and all.
The programs: split BP programs at desk shape (12x100) and paper shape
(30x400), TestLP's problems, and constructed programs that end the loop at
each of its exits.  A trace of the reference's lines names the exit taken.
The reference's non-finite direction and non-finite sigma exits are gone from
``lp``: there the corrector's direction is non-finite too, so its step or
iterate check ends the loop at the same iteration with the same iterate.
"""

import inspect
import sys

import numpy as np
import pytest

from incoproj import lp
from oracles import reference_standard_lp


# TestLP's known optimum: min -x1 - 2 x2 s.t. x1 + s1 = 1, x2 + s2 = 1, at (1, 1).
KNOWN_OPTIMUM = (np.array([-1.0, -2.0, 0.0, 0.0]), np.array([[1.0, 0, 1, 0], [0, 1, 0, 1]]), np.ones(2))


def assert_same_bytes(c, A, b):
    new, ref = lp.solve_standard_lp(c, A, b), reference_standard_lp(c, A, b)
    assert new.x.tobytes() == ref.x.tobytes()
    assert new.lam.tobytes() == ref.lam.tobytes()
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    return ref


def split_bp_program(m, k, S, seed):
    """min 1@(u+v) s.t. [D, -D]@[u; v] = D@theta, for unit-norm Gaussian D and S-sparse theta."""
    rng = np.random.default_rng([seed, m, k, S])
    D = rng.standard_normal((m, k))
    D /= np.linalg.norm(D, axis=0)
    theta = np.zeros(k)
    theta[rng.choice(k, S, replace=False)] = rng.standard_normal(S)
    return np.ones(2 * k), np.hstack([D, -D]), D @ theta


@pytest.mark.parametrize("m, k, seeds", [(12, 100, range(5)), (30, 400, range(2))])
@pytest.mark.parametrize("S", [1, 3, 6])
def test_split_bp_programs(m, k, S, seeds):
    for seed in seeds:
        assert assert_same_bytes(*split_bp_program(m, k, S, seed)).converged


def test_testlp_problems():
    # TestLP's known optimum, its ten strictly feasible primal-dual pairs, and its determinism problem.
    assert_same_bytes(*KNOWN_OPTIMUM)
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.standard_normal((4, 9))
        b = A @ (np.abs(rng.standard_normal(9)) + 0.5)
        lam = rng.standard_normal(4)
        s = np.abs(rng.standard_normal(9)) + 0.5
        assert_same_bytes(A.T @ lam + s, A, b)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 8))
    b = A @ np.abs(rng.standard_normal(8))
    assert_same_bytes(np.abs(rng.standard_normal(8)), A, b)


# The reference's stopping lines, by the text of the line before each `break`.
EXITS = {
    "if converged:": "converged",
    "if not np.all(np.isfinite(d)):": "non-finite d",
    "except np.linalg.LinAlgError:": "failed factorization",
    "if not (np.all(np.isfinite(dx_a)) and np.all(np.isfinite(ds_a))):": "non-finite direction",
    "if not np.isfinite(sigma):": "non-finite sigma",
    "if alpha_p <= 0.0 or alpha_d <= 0.0:": "zero step",
    "if not (": "non-finite iterate",
}


def reference_exit(c, A, b) -> str:
    """Run the reference under a line trace and name the exit that ended its loop."""
    code = reference_standard_lp.__code__
    source, first = inspect.getsourcelines(reference_standard_lp)
    lines = []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            lines.append(source[frame.f_lineno - first].strip())
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        reference_standard_lp(c, A, b)
    finally:
        sys.settrace(previous)
    if "break" not in lines:
        return "iteration cap"
    last_break = len(lines) - 1 - lines[::-1].index("break")
    return EXITS[lines[last_break - 1]]


def random_lp(seed, scale):
    """A dense m x n program with Gaussian data, A and b scaled: mostly infeasible or unbounded."""
    rng = np.random.default_rng(seed)
    m, n = 2 + seed % 3, 5 + seed % 4
    A, b = scale * rng.standard_normal((m, n)), scale * rng.standard_normal(m)
    return rng.standard_normal(n), A, b


def redrawn_lp(seed, draws):
    """random_lp's shapes for ``seed``, unscaled: the last of ``draws`` draws of A, b and c from one generator."""
    rng = np.random.default_rng(seed)
    m, n = 2 + seed % 3, 5 + seed % 4
    for _ in range(draws):
        A, b, c = rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(n)
    return c, A, b


@pytest.mark.parametrize(
    "exit, program",
    [
        pytest.param("converged", KNOWN_OPTIMUM, id="converged"),
        pytest.param("iteration cap", random_lp(11, 1.0), id="iteration-cap"),
        pytest.param("failed factorization", random_lp(0, 1e50), id="failed-factorization"),
        # Unbounded: min -x1 with x1 = x2; x grows until x/s overflows.
        pytest.param("non-finite d", (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.zeros(1)), id="non-finite-d"),
        pytest.param("non-finite direction", random_lp(14, 1.0), id="non-finite-direction"),
        # mu_aff is NaN at iteration 97; a search over 33,000 random programs found this one.
        pytest.param("non-finite sigma", redrawn_lp(1217, 4), id="non-finite-sigma"),
        # Infeasible: x1 + x2 = -1 with x >= 0; the steps shrink to nothing.
        pytest.param("zero step", (np.ones(2), np.ones((1, 2)), -np.ones(1)), id="zero-step"),
        pytest.param("non-finite iterate", random_lp(3, 1.0), id="non-finite-iterate"),
    ],
)
def test_every_exit_of_the_loop(exit, program):
    with np.errstate(all="ignore"):
        assert reference_exit(*program) == exit
        res = assert_same_bytes(*program)
    assert res.converged == (exit == "converged")
    assert (res.iterations == lp.MAX_ITER) == (exit == "iteration cap")


@pytest.mark.parametrize(
    "mu_aff, mu, sigma",
    [
        (0.5, 1.0, 0.125),
        (3.0, 1.0, 1.0),
        (-0.5, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, float("nan"), 0.0),
        (1e200, 1e-200, 1.0),  # the ratio itself overflows to inf
        # The cube of a finite ratio past about 5.6e102 leaves the float range:
        # a Python float raises OverflowError there, which errstate does not catch.
        (1e110, 1.0, 1.0),
        (-1e110, 1.0, 0.0),
    ],
)
def test_centering_weight(mu_aff, mu, sigma):
    assert lp._centering(mu_aff, mu) == sigma
    if mu > 0.0 and abs(mu_aff / mu) < 1e100:
        # Below the overflow it is the reference's rule, bit for bit.
        assert lp._centering(mu_aff, mu) == min(max((mu_aff / mu) ** 3, 0.0), 1.0)
