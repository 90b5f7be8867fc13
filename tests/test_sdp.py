import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepball import matcore, sampling, sdp
from sepball.errors import DimensionError


def _rng(seed):
    return sampling.rng_from(0x5D9, seed)


def _min_trace_problem(c):
    d = c.shape[0]
    return sdp.SdpProblem(
        blocks=(d,),
        objective=(c,),
        constraints=((1.0, (np.eye(d),)),),
    )


def test_min_eigenvalue_problem():
    c = np.diag([3.0, 1.0, 2.0])
    sol = sdp.solve(_min_trace_problem(c))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-8
    assert abs(sol.dual_obj - 1.0) < 1e-8
    assert sol.duality_gap < 1e-8


def test_min_eigenvalue_complex():
    c = np.array([[2.0, 1j], [-1j, 2.0]])
    sol = sdp.solve(_min_trace_problem(c))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-8
    x = sol.primal[0]
    nptest.assert_allclose(x, x.conj().T, atol=1e-12)
    assert matcore.min_eigenvalue(x) >= -1e-9


def test_two_block_problem():
    # independent trace-one blocks; optimum is the sum of the min eigenvalues
    prob = sdp.SdpProblem(
        blocks=(2, 2),
        objective=(np.diag([1.0, 4.0]), np.diag([2.0, 5.0])),
        constraints=(
            (1.0, (np.eye(2), np.zeros((2, 2)))),
            (1.0, (np.zeros((2, 2)), np.eye(2))),
        ),
    )
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 3.0) < 1e-8


def _random_strictly_feasible(seed, d=3, p=4):
    rng = _rng(seed)
    x0 = sampling.complex_gaussian(rng, (d, d))
    x0 = x0 @ x0.conj().T + 0.2 * np.eye(d)
    mats = []
    for _ in range(p):
        g = sampling.complex_gaussian(rng, (d, d))
        mats.append((g + g.conj().T) / 2)
    y0 = rng.standard_normal(p)
    z0 = sampling.complex_gaussian(rng, (d, d))
    z0 = z0 @ z0.conj().T + 0.2 * np.eye(d)
    c = sum(y * a for y, a in zip(y0, mats)) + z0
    cons = tuple(
        (float(np.real(np.trace(a @ x0))), (a,)) for a in mats
    )
    return sdp.SdpProblem(blocks=(d,), objective=(c,), constraints=cons)


@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_random_strictly_feasible_kkt(seed):
    prob = _random_strictly_feasible(seed)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    x = sol.primal[0]
    scale = 1.0 + float(np.linalg.norm(x))
    for (rhs, (a,)) in prob.constraints:
        assert abs(np.real(np.trace(a @ x)) - rhs) < 1e-7 * scale
    assert matcore.min_eigenvalue(x) >= -1e-8 * scale
    z = prob.objective[0] - sum(
        y * a for y, (_, (a,)) in zip(sol.dual_y, prob.constraints))
    nptest.assert_allclose(z, sol.dual_slack[0], atol=1e-6)
    assert matcore.min_eigenvalue(sol.dual_slack[0]) >= -1e-8
    assert sol.rel_gap < 1e-7


def test_repeat_solve_byte_identical():
    prob = _random_strictly_feasible(7)
    a = sdp.solve(prob)
    b = sdp.solve(prob)
    assert a.primal[0].tobytes() == b.primal[0].tobytes()
    assert a.dual_y.tobytes() == b.dual_y.tobytes()
    assert a.iterations == b.iterations


def test_infeasible_problem():
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.eye(2),),
        constraints=((-1.0, (np.eye(2),)),),
    )
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"


def test_infeasible_pair_of_constraints():
    # Tr(X) = 1 and Tr(X) = 2 cannot both hold
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.eye(2),),
        constraints=((1.0, (np.eye(2),)), (2.0, (np.eye(2),))),
    )
    with pytest.warns(UserWarning, match="dependent"):
        sol = sdp.solve(prob)
    assert sol.status == "infeasible"


def test_unbounded_problem():
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([0.0, -1.0]),),
        constraints=((1.0, (np.diag([1.0, 0.0]),)),),
    )
    sol = sdp.solve(prob)
    assert sol.status == "unbounded"
    if sol.ray is not None:
        x_ray = sol.ray[0]
        assert matcore.min_eigenvalue(x_ray) >= -1e-7
        assert np.real(np.trace(prob.objective[0] @ x_ray)) < 0


def test_duplicate_constraints_are_dropped():
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([2.0, 1.0]),),
        constraints=(
            (1.0, (np.eye(2),)),
            (1.0, (np.eye(2),)),
            (2.0, (2.0 * np.eye(2),)),
        ),
    )
    with pytest.warns(UserWarning, match="dependent"):
        sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-8
    assert sol.dual_y.shape == (3,)


def test_hermitian_basis_is_orthonormal_and_complete():
    d = 3
    basis = sdp.hermitian_basis(d)
    assert len(basis) == d * d
    for i, e in enumerate(basis):
        nptest.assert_allclose(e, e.conj().T, atol=1e-12)
        for j, f in enumerate(basis):
            ip = np.real(np.vdot(e, f))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12
    rng = _rng(3)
    h = sampling.complex_gaussian(rng, (d, d))
    h = (h + h.conj().T) / 2
    recon = sum(np.real(np.vdot(e, h)) * e for e in basis)
    nptest.assert_allclose(recon, h, atol=1e-12)


def test_problem_validation():
    with pytest.raises(DimensionError):
        sdp.SdpProblem(blocks=(), objective=(), constraints=())
    with pytest.raises(DimensionError):
        sdp.SdpProblem(blocks=(2,), objective=(np.eye(3),),
                       constraints=())
    with pytest.raises(DimensionError):
        sdp.SdpProblem(blocks=(2,), objective=(np.eye(2),),
                       constraints=((float("nan"), (np.eye(2),)),))
    with pytest.raises(DimensionError):
        sdp.SdpProblem(blocks=(2,), objective=(np.eye(2),), constraints=())


def test_solution_close_to_analytic_optimizer():
    c = np.diag([3.0, 1.0, 2.0])
    sol = sdp.solve(_min_trace_problem(c))
    target = np.diag([0.0, 1.0, 0.0])
    nptest.assert_allclose(sol.primal[0], target, atol=1e-5)
