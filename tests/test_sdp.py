import numpy as np
import numpy.testing as nptest
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sepball import matcore, sampling, sdp
from sepball.errors import DimensionError, HermiticityError


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
    cons = prob.constraints
    for (rhs, (a,)) in cons:
        assert abs(np.real(np.trace(a @ x)) - rhs) < 1e-7 * scale
    assert matcore.min_eigenvalue(x) >= -1e-8 * scale
    z = prob.objective[0] - sum(
        y * a for y, (_, (a,)) in zip(sol.dual_y, cons))
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
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"
    assert sol.message.startswith(
        "dropped 1 linearly dependent constraint rows: [1]; constraint 1 ")


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
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert sol.message.startswith("dropped 2 linearly dependent")
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
    with pytest.raises(HermiticityError):  # its Frobenius norm overflows
        sdp.SdpProblem(blocks=(2,), objective=(np.eye(2),), constraints=(
            (1.0, (np.array([[1e200, 1e199], [0.0, 1.0]]),)),))


def test_problem_validation_reports_first_bad_matrix():
    good = np.eye(2)
    bad = [np.array([[1.0, x], [0.0, 1.0]]) for x in (2.0, 3.0)]
    messages = []
    for b in bad:
        with pytest.raises(HermiticityError) as exc:
            matcore.check_hermitian(b)
        messages.append(str(exc.value))
    # constraint order first, block order second, as one check per matrix
    cons = ((1.0, (good, good)), (1.0, (good, bad[0])),
            (1.0, (bad[1], good)), (1.0, (np.eye(3), good)))
    with pytest.raises(HermiticityError) as exc:
        sdp.SdpProblem(blocks=(2, 2), objective=(good, good), constraints=cons)
    assert str(exc.value) == messages[0]
    cons = ((1.0, (good, np.eye(3))), (1.0, (bad[0], good)))
    with pytest.raises(DimensionError, match="does not fit block 2"):
        sdp.SdpProblem(blocks=(2, 2), objective=(good, good), constraints=cons)
    cons = ((1.0, (bad[1], np.eye(3))),)
    with pytest.raises(HermiticityError) as exc:
        sdp.SdpProblem(blocks=(2, 2), objective=(good, good), constraints=cons)
    assert str(exc.value) == messages[1]


def test_problem_rows_store_each_hermitian_part():
    a = np.array([[1.0, 1j, 0.0], [-1j + 1e-14, 2.0, 0.0], [0.0, 0.0, 0.0]])
    prob = sdp.SdpProblem(blocks=(3,), objective=(np.eye(3),),
                          constraints=((1.0, (a,)),))
    want = matcore.check_hermitian(a)
    row = prob.rows[0]
    assert row.shape == (1, 9) and row.nnz == 4
    assert row.toarray().tobytes() == want.reshape(1, 9).tobytes()
    assert prob.rhs.tobytes() == np.array([1.0]).tobytes()
    ((rhs, (got,)),) = prob.constraints
    assert rhs == 1.0 and got.tobytes() == want.tobytes()


def test_solution_close_to_analytic_optimizer():
    c = np.diag([3.0, 1.0, 2.0])
    sol = sdp.solve(_min_trace_problem(c))
    target = np.diag([0.0, 1.0, 0.0])
    nptest.assert_allclose(sol.primal[0], target, atol=1e-5)


def _units(d, entries):
    """Hermitian matrix with the given {(a, b): v} entries and their mirrors."""
    a = np.zeros((d, d), dtype=np.complex128)
    for (i, j), v in entries.items():
        a[i, j] += v
        if i != j:
            a[j, i] += np.conj(v)
    return a


def _mixed_problem():
    """Entrywise rows of both blocks interleaved with dense ones.

    Returns the problem and each row's expected kind: the block of an
    entrywise row, or -1 for a dense row.
    """
    rng = _rng(11)
    g = sampling.complex_gaussian(rng, (3, 3))
    z2 = np.zeros((2, 2))
    z3 = np.zeros((3, 3))
    rows = [
        ((_units(3, {(0, 1): 0.3 + 0.7j}), z2), -1),  # v neither re nor im
        ((np.eye(3), z2), -1),  # three diagonal units
        ((z3, np.eye(2)), -1),  # E_00 + E_11
        ((_units(3, {(2, 0): -1j}), z2), 0),
        ((z3, _units(2, {(0, 1): 0.6 - 0.8j})), -1),
        ((_units(3, {(1, 1): 2.5}), z2), 0),  # v E_aa
        ((_units(3, {(0, 1): 1.0}), _units(2, {(0, 0): 1.0})), -1),
        ((g + g.conj().T, z2), -1),  # dense random Hermitian
        ((z3, _units(2, {(1, 1): -0.5})), 1),
    ]
    cons = tuple((0.0, mats) for mats, _ in rows)
    prob = sdp.SdpProblem(blocks=(3, 2), objective=(np.eye(3), np.eye(2)),
                          constraints=cons)
    return prob, [kind for _, kind in rows]


def _cell_problem():
    """Complex-entry pairs in shuffled row order, lone real and lone
    imaginary slots and diagonal units in two blocks, beside a dense row
    and a second row for a filled slot, which is dependent (kind None)."""
    rng = _rng(12)
    z4, z3 = np.zeros((4, 4)), np.zeros((3, 3))
    rows = [
        ((_units(4, {(0, 2): 1.5}), z3), 0),  # pair (0, 2), real slot
        ((z4, _units(3, {(2, 1): 0.75j})), 1),  # (1, 2), imaginary slot
        ((_units(4, {(3, 1): 2.0}), z3), 0),  # pair (1, 3), real slot
        ((_units(4, {(1, 1): -3.0}), z3), 0),  # diagonal unit
        ((_units(4, {(0, 2): -0.5j}), z3), 0),  # pair (0, 2), imaginary
        ((z4, _units(3, {(0, 1): -1.25})), 1),  # lone real slot
        ((_units(4, {(2, 3): 4.0j}), z3), 0),  # lone imaginary slot
        ((_units(4, {(1, 3): 0.5j}), z3), 0),  # pair (1, 3), imaginary
        ((_units(4, {(0, 2): 1.0}), z3), None),  # real slot of (0, 2) taken
        ((z4, _units(3, {(2, 2): 0.25})), 1),  # diagonal unit
        ((_units(4, {(3, 3): 1.0}), z3), 0),  # diagonal unit
        ((z4, _units(3, {(1, 2): -2.0})), 1),  # (1, 2), real slot
    ]
    g = sampling.complex_gaussian(rng, (4, 4))
    rows.append(((g + g.conj().T, np.eye(3)), -1))
    order = _rng(13).permutation(len(rows))
    rows = [rows[i] for i in order]
    cons = tuple((0.0, mats) for mats, _ in rows)
    prob = sdp.SdpProblem(blocks=(4, 3), objective=(np.eye(4), np.eye(3)),
                          constraints=cons)
    return prob, [kind for _, kind in rows]


def _cb_problem(n, m, seed):
    from sepball import cbnorm, maps

    rng = _rng(seed)
    choi = sampling.complex_gaussian(rng, (n * m, n * m))
    return cbnorm._upper_problem(maps.LinearMapRep(n, m, choi))


def _random_scalings(blocks, seed):
    """``_nt_scaling`` of a random interior pair (X, Z) per block."""
    rng = _rng(seed)
    return [sdp._nt_scaling(_posdef(rng, d), _posdef(rng, d)) for d in blocks]


def _dense_schur(prob, ws):
    """sum_blocks Tr(A_i W A_j W) from the dense constraint matrices."""
    p = prob.num_constraints
    out = np.zeros((p, p))
    cons = prob.constraints
    for j, w in enumerate(ws):
        a = np.array([mats[j] for _, mats in cons])
        out += np.real(np.einsum("ikl,jlk->ij", a, w @ a @ w))
    return out


@pytest.mark.parametrize("case", ["cb23", "cb34", "cb42", "mixed", "cells"])
def test_schur_matches_dense_oracle(case):
    if case == "mixed":
        prob = _mixed_problem()[0]
    elif case == "cells":
        prob = _cell_problem()[0]
    else:
        n, m = int(case[2]), int(case[3])
        prob = _cb_problem(n, m, seed=n * 10 + m)
    comp = sdp._Compiled(prob)
    system = sdp._DenseSystem(comp)
    scal = _random_scalings(prob.blocks, 5)
    got = system.schur(scal)
    assert got.tobytes() == got.T.tobytes()
    got = got * np.outer(system.scale, system.scale)  # back from scaled rows

    want = _dense_schur(prob, [s[0] for s in scal])
    want = want[np.ix_(comp.keep, comp.keep)]  # the solver's row order
    err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert err <= 1e-13


def test_schur_all_dense_rows_keep_their_stacks():
    # every kept row is one dense stack entry per block, divided by a
    # power of two near its largest entry
    for prob, kinds in ((_random_strictly_feasible(3), [-1] * 4),
                        _mixed_problem(), _cell_problem()):
        comp = sdp._Compiled(prob)
        system = sdp._DenseSystem(comp)
        kept = [i for i, kind in enumerate(kinds) if kind is not None]
        assert comp.keep.tolist() == kept
        cons = prob.constraints
        top = np.zeros(len(kept))
        for j, stack in enumerate(system.stacks):
            want = np.array([cons[i][1][j] for i in kept])
            scaled = stack * system.scale[:, None, None]
            assert scaled.tobytes() == want.tobytes()
            top = np.maximum(top, np.abs(want).max(axis=(1, 2)))
        assert np.all((system.scale / 2 <= top) & (top < system.scale))


def test_reduction_program_keeps_a_stack_of_its_dense_rows_only():
    # the cb program's own system holds no p x p array and no stack of
    # the pair rows: its largest array is the trace rows' Schur columns
    from sepball import cbnorm, maps

    prob = cbnorm._upper_problem(maps.reduction_map(6))
    assert prob.num_constraints == 2663
    system = cbnorm._UpperSystem(sdp._Compiled(prob), 6, 6)
    eye = np.eye(72, dtype=np.complex128)
    assert system.factor([sdp._nt_scaling(eye, eye)]) is system
    arrays = [a for a in vars(system).values() if isinstance(a, np.ndarray)]
    assert max(a.size for a in arrays) == system.f.size == 71 * 2 * 36 ** 2


def _entry_rows(*rows):
    """One block of size 3 with rows (rhs, {(a, b): v}) as in ``_units``."""
    return sdp.SdpProblem(
        blocks=(3,), objective=(np.eye(3),),
        constraints=tuple((b, (_units(3, e),)) for b, e in rows))


# Per case: the problem, how many rows the QR must see and how many
# rows the check drops.
_PEEL_CASES = {
    # rows 0-2 (row 2 = row 0 + row 1) share every column; 3-5 peel
    "dependency-beside-peels": lambda: (_entry_rows(
        (1.0, {(0, 0): 1.0, (1, 1): 1.0}), (2.0, {(1, 1): 1.0, (2, 2): 1.0}),
        (3.0, {(0, 0): 1.0, (1, 1): 2.0, (2, 2): 1.0}),
        (0.5, {(0, 1): 1.0}), (0.1, {(1, 2): 2j}),
        (0.2, {(0, 2): 1.0, (0, 0): 0.5})), 3, 1),
    # rows 0 and 2 own (0, 1) and the imaginary slot of (1, 2); row 1
    # owns (0, 0) and (1, 1) once they are gone; 3 and 4 are proportional
    "second-round-peel": lambda: (_entry_rows(
        (1.0, {(0, 1): 1.0, (0, 0): 1.0}), (1.0, {(0, 0): 1.0, (1, 1): 1.0}),
        (1.0, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 1j}),
        (1.0, {(2, 2): 1.0, (0, 2): 1.0}), (2.0, {(2, 2): 2.0, (0, 2): 2.0})),
        2, 1),
    # row 1 owns (1, 1) with an entry below the rank threshold, so it is
    # left to the QR, which finds it dependent on row 0
    "near-dependent-private-entry": lambda: (_entry_rows(
        (1.0, {(0, 0): 1.0}), (1.0, {(0, 0): 1.0, (1, 1): 1e-14}),
        (0.0, {(0, 1): 1j})), 2, 1),
    # which of two proportional rows a QR drops is a tie broken by the
    # QR's column order, which a row pivoted before them changes; row 0
    # peels and comes first, so both QRs drop row 2
    "inconsistent-duplicate": lambda: (_entry_rows(
        (1.0, {(1, 1): 1.0}), (1.0, {(0, 1): 1.0}), (3.0, {(0, 1): 2.0})),
        2, 1),
    "mixed": lambda: (_mixed_problem()[0], 0, 0),
    "cells": lambda: (_cell_problem()[0], 2, 1),
    "cb23": lambda: (_cb_problem(2, 3, seed=23), 0, 0),
    "infeasible-pair": lambda: (sdp.SdpProblem(
        blocks=(2,), objective=(np.eye(2),),
        constraints=((1.0, (np.eye(2),)), (2.0, (np.eye(2),)))), 2, 1),
    "duplicates": lambda: (sdp.SdpProblem(
        blocks=(2,), objective=(np.diag([2.0, 1.0]),),
        constraints=((1.0, (np.eye(2),)), (1.0, (np.eye(2),)),
                     (2.0, (2.0 * np.eye(2),)))), 3, 2),
}


@pytest.mark.parametrize("case", list(_PEEL_CASES))
def test_independent_rows_match_the_dense_oracle(case, monkeypatch):
    prob, qr_rows, n_dropped = _PEEL_CASES[case]()
    keep, dropped, inconsistent = oracles.dense_independent_rows(
        prob.rows, prob.rhs)
    seen = []
    qr = scipy.linalg.qr

    def recording_qr(a, *args, **kwargs):
        seen.append(a.shape[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", recording_qr)
    got = sdp._independent_rows(prob.rows, prob.rhs)
    assert got[0].tolist() == keep.tolist()
    assert (got[1], got[2]) == (dropped, inconsistent)
    assert len(dropped) == n_dropped
    assert (inconsistent is not None) == (case in ("inconsistent-duplicate",
                                                   "infeasible-pair"))
    assert seen == ([qr_rows] if qr_rows else [])


def test_cb_programs_never_reach_the_qr(monkeypatch):
    # every row of the cb programs owns an entry of its own, so all peel
    from sepball import cbnorm, maps

    def refuse(*args, **kwargs):
        raise AssertionError("the dependent-row check ran a QR")

    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    rng = _rng(16)
    general = maps.LinearMapRep(3, 4, sampling.complex_gaussian(rng, (12, 12)))
    column = maps.LinearMapRep(1, 4, sampling.complex_gaussian(rng, (4, 4)))
    row = maps.LinearMapRep(4, 1, sampling.complex_gaussian(rng, (4, 4)))
    for prob in (cbnorm._upper_problem(general),
                 cbnorm._upper_problem(column), cbnorm._upper_problem(row),
                 cbnorm._upper_problem(maps.reduction_map(6)),
                 oracles.two_block_upper_problem(general),
                 oracles.four_block_upper_problem(general)):
        keep, dropped, inconsistent = sdp._independent_rows(prob.rows,
                                                            prob.rhs)
        assert keep.tolist() == list(range(prob.num_constraints))
        assert (dropped, inconsistent) == ([], None)


def test_system_is_built_from_the_kept_rows():
    # the third row is the sum of the first two: the solve drops one row
    # and builds its Newton system from the p - 1 rows it keeps
    e0, e1 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
    prob = sdp.SdpProblem(
        blocks=(3,), objective=(np.eye(3),),
        constraints=((0.5, (e0,)), (0.25, (e1,)), (0.75, (e0 + e1,))))
    built = []

    def system(comp):
        built.append(comp)
        return sdp._DenseSystem(comp)

    sol = sdp.solve(prob, system)
    (comp,) = built
    assert comp.p == len(comp.keep) == prob.num_constraints - 1
    assert comp.csr[0].shape[0] == comp.p
    assert (comp.csr[0] != prob.rows[0][comp.keep]).nnz == 0
    assert sol.status == "optimal" and "dropped 1" in sol.message
    assert _solution_bytes(sol) == _solution_bytes(sdp.solve(prob))


def _solution_bytes(sol):
    return [a.tobytes() for a in sol.primal + sol.dual_slack + (sol.dual_y,)]


def test_buffers_do_not_carry_over_between_solves():
    # the dense path's Schur buffer, which takes the factor, and the cb
    # system's arrays belong to one solve
    from sepball import cbnorm, maps

    rng = _rng(14)
    first = maps.LinearMapRep(3, 4, sampling.complex_gaussian(rng, (12, 12)))
    other = maps.LinearMapRep(2, 3, sampling.complex_gaussian(rng, (6, 6)))

    def run(f, with_system):
        def system(comp):
            return cbnorm._UpperSystem(comp, f.dim_in, f.dim_out)

        return sdp.solve(cbnorm._upper_problem(f),
                         system if with_system else None)

    for with_system in (False, True):
        a, b, c = (run(f, with_system) for f in (first, other, first))
        assert a.status == b.status == c.status == "optimal"
        assert _solution_bytes(a) == _solution_bytes(c)
        assert (a.iterations, a.best_iteration) == (c.iterations,
                                                    c.best_iteration)


_FACTOR_CASES = {
    "mixed": lambda: _feasible(_mixed_problem()[0], 17),
    "cells": lambda: _feasible(_cell_problem()[0], 15),
    "cb34": lambda: _cb_problem(3, 4, seed=34),
}


@pytest.mark.parametrize("fail_once", [False, True])
@pytest.mark.parametrize("case", list(_FACTOR_CASES))
def test_in_place_factor_matches_the_copying_one(case, fail_once,
                                                 monkeypatch):
    # with fail_once the first factorization of each solve overwrites the
    # buffer and then reports failure, so the refill from B runs
    prob = _FACTOR_CASES[case]()
    cho_factor = scipy.linalg.cho_factor
    calls = []

    def factor(*args, **kwargs):
        calls.append(None)
        out = cho_factor(*args, **kwargs)
        if fail_once and len(calls) == 1:
            raise scipy.linalg.LinAlgError("forced failure")
        return out

    monkeypatch.setattr(scipy.linalg, "cho_factor", factor)
    sols = []
    for retry in (sdp._DenseSystem.factor, oracles.copying_dense_factor):
        calls.clear()
        monkeypatch.setattr(sdp._DenseSystem, "factor", retry)
        sols.append(sdp.solve(prob))
        assert sols[-1].status == "optimal"
        assert len(calls) == sols[-1].iterations - 1 + fail_once
    new, old = sols
    assert _solution_bytes(new) == _solution_bytes(old)
    assert (new.iterations, new.best_iteration) == (old.iterations,
                                                    old.best_iteration)


def test_solve_keeps_one_schur_buffer():
    # the dense path factors the Schur matrix in the buffer that ``schur``
    # fills: 8 p^2 bytes for it, the rest for the row stack, the scaled
    # rows B and the two products that form B, 16 p d^2 bytes each (4.05
    # stacks when measured)
    import tracemalloc

    from sepball import cbnorm, maps

    prob = cbnorm._upper_problem(maps.reduction_map(4))
    p, d = prob.num_constraints, prob.blocks[0]
    system = sdp._DenseSystem(sdp._Compiled(prob))
    assert system.factor(_random_scalings(prob.blocks, 6)) is system
    assert np.shares_memory(system.factor_l, system.m)
    tracemalloc.start()
    try:
        sol = sdp.solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < 8 * p * p + 4.5 * 16 * p * d * d


def _posdef(rng, d, eigenvalues=None):
    q, _ = np.linalg.qr(sampling.complex_gaussian(rng, (d, d)))
    if eigenvalues is None:
        eigenvalues = rng.uniform(0.1, 2.0, d)
    return (q * eigenvalues) @ q.conj().T


def _scaling_cases():
    rng = _rng(90)
    cases = [(_posdef(rng, d), _posdef(rng, d)) for d in (1, 4, 24)]
    cases.append((_posdef(rng, 6, np.logspace(-12, 0, 6)), _posdef(rng, 6)))
    return cases


def _norm(m):
    return float(np.linalg.norm(m, 2))


@pytest.mark.parametrize("case", range(4))
def test_nt_scaling_frame(case):
    # each identity holds to round-off in forming its products, so the
    # bounds scale with the factors' norms (the last case spans 12 decades)
    x, z = _scaling_cases()[case]
    w, g, g_inv, lam = sdp._nt_scaling(x, z)
    eps = 1e-12
    assert _norm(w @ z @ w - x) <= eps * _norm(w) ** 2 * _norm(z)
    assert _norm(g_inv @ g - np.eye(len(lam))) <= eps * _norm(g_inv) * _norm(g)
    assert _norm(g_inv @ x @ g_inv.conj().T - np.diag(lam)) <= \
        eps * _norm(g_inv) ** 2 * _norm(x)
    assert _norm(g.conj().T @ z @ g - np.diag(lam)) <= \
        eps * _norm(g) ** 2 * _norm(z)
    nptest.assert_allclose(w, g @ g.conj().T, atol=eps * _norm(g) ** 2)


def _scaled_directions(case):
    """lam, then (X, dX, G^-1 dX G^-*) and (Z, dZ, G* dZ G) for one case."""
    x, z = _scaling_cases()[case]
    _, g, g_inv, lam = sdp._nt_scaling(x, z)
    rng = _rng(91 + case)
    d = len(lam)
    dirs = []
    for _ in range(2):
        h = sampling.complex_gaussian(rng, (d, d))
        h = (h + h.conj().T) / 2
        # mixed signs for d > 1; a 1 x 1 direction must point outward
        dirs.append(h if np.linalg.eigvalsh(h)[0] < 0 else -h)
    dx, dz = dirs
    scaled = (g_inv @ dx @ g_inv.conj().T, g.conj().T @ dz @ g)
    return lam, ((x, dx, (scaled[0] + scaled[0].conj().T) / 2),
                 (z, dz, (scaled[1] + scaled[1].conj().T) / 2))


@pytest.mark.parametrize("case", range(4))
def test_step_to_boundary_matches_oracle(case):
    lam, sides = _scaled_directions(case)
    for s, ds, ds_scaled in sides:
        alpha = sdp._step_to_boundary(lam, ds_scaled)
        w, v = np.linalg.eigh(s)
        inv_sqrt = (v * w ** -0.5) @ v.conj().T
        oracle = -1.0 / np.linalg.eigvalsh(inv_sqrt @ ds @ inv_sqrt)[0]
        assert abs(alpha - oracle) <= 1e-9 * oracle
        assert np.linalg.eigvalsh(s + 0.999 * alpha * ds)[0] >= 0
        assert np.linalg.eigvalsh(s + 1.001 * alpha * ds)[0] < 0


@pytest.mark.parametrize("case", range(4))
def test_step_to_boundary_inward_is_unbounded(case):
    lam, sides = _scaled_directions(case)
    for _, ds, ds_scaled in sides:
        assert sdp._step_to_boundary(lam, ds_scaled @ ds_scaled) == np.inf
    assert sdp._step_to_boundary(lam, np.zeros((len(lam),) * 2)) == np.inf


def _feasible(prob, seed):
    """prob's rows with the rhs of a random interior point and a positive
    definite objective, so that it has a finite optimum."""
    rng = _rng(seed)
    x0 = [_posdef(rng, d) for d in prob.blocks]
    cons = tuple(
        (float(sum(np.real(np.trace(a @ x)) for a, x in zip(mats, x0))), mats)
        for _, mats in prob.constraints)
    return sdp.SdpProblem(blocks=prob.blocks,
                          objective=tuple(_posdef(rng, d) for d in prob.blocks),
                          constraints=cons)


def test_cell_problem_solves_to_a_verified_optimum():
    from sepball import verify

    prob, kinds = _cell_problem()
    prob = _feasible(prob, 15)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    dropped = [i for i, kind in enumerate(kinds) if kind is None]
    assert sol.message == f"dropped 1 linearly dependent constraint rows: {dropped}"
    assert 1 <= sol.best_iteration <= sol.iterations
    assert len(sol.dual_y) == prob.num_constraints
    checks = verify.sdp_solution(prob, sol)
    assert all(c.passed for c in checks), checks


def test_best_iteration_names_the_returned_iterate(monkeypatch):
    # X_00 = 0 and Tr X = 1 leave no interior point, so with unreachable
    # tolerances progress stalls and the iterate of 8 steps back is kept
    monkeypatch.setattr(sdp, "FEAS_TOL", 0.0)
    monkeypatch.setattr(sdp, "GAP_TOL", 0.0)
    prob = sdp.SdpProblem(
        blocks=(2,), objective=(np.diag([1.0, 2.0]),),
        constraints=((0.0, (np.diag([1.0, 0.0]),)), (1.0, (np.eye(2),))))
    sol = sdp.solve(prob)
    assert sol.status == "optimal" and "stalled" in sol.message
    assert sol.best_iteration == sol.iterations - 8
    assert abs(sol.primal_obj - 2.0) < 1e-7


@pytest.mark.parametrize("scale", [1e150, 1e160])
def test_huge_row_is_kept(scale):
    # X_00 = 1 and Tr X = 1: a row whose sum of squares overflows must not
    # read as zero and be dropped as dependent
    prob = sdp.SdpProblem(
        blocks=(2,), objective=(np.diag([2.0, 1.0]),),
        constraints=((scale, (np.diag([scale, 0.0]),)), (1.0, (np.eye(2),))))
    keep, dropped, inconsistent = sdp._independent_rows(prob.rows, prob.rhs)
    assert keep.tolist() == [0, 1] and dropped == [] and inconsistent is None
    with np.errstate(over="ignore", invalid="ignore"):
        sol = sdp.solve(prob)
    assert sol.status == "optimal" and sol.message == ""
    assert abs(sol.primal_obj - 2.0) < 1e-7
    assert abs(sol.primal[0][0, 0] - 1.0) < 1e-7
