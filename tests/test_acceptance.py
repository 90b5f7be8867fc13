"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints a single PASS line after its assertions; tolerances
are pinned in the assertions themselves.  Seeds are fixed so the whole
module is deterministic.
"""

import time

import numpy as np

import oracles
from sepball import (
    algebra,
    cbnorm,
    cli,
    jsonio,
    maps,
    matcore,
    sampling,
    sdp,
    separability,
    theorems,
)


def _done(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_transpose_cb_norm():
    for n in (2, 3, 4):
        t0 = time.monotonic()
        res = cbnorm.cb_norm(maps.transpose_map(n))
        dt = time.monotonic() - t0
        assert n - 1e-3 <= res.lower <= n + 1e-3
        assert n - 1e-3 <= res.upper <= n + 1e-3
        assert dt < 5.0
    _done(1, "cb norm of the transpose on M_n equals n for n in {2,3,4}")


def test_criterion_02_general_upper_bound():
    violations = 0
    for shape_idx, (n, m) in enumerate(((3, 2), (2, 4))):
        for i in range(50):
            rng = sampling.rng_from(0xAC2, shape_idx, i)
            f = maps.LinearMapRep(n, m, oracles.random_complex_choi(rng, n, m))
            upper, _, _ = cbnorm.cb_upper_sdp(f)
            base, _ = cbnorm.amplification_norm(f, 1)
            if upper > min(n, m) * base + 1e-5:
                violations += 1
    assert violations == 0
    _done(2, "SDP upper bound never exceeds min(m,n) times the map norm "
             "over 100 random maps")


def test_criterion_03_cp_consistency():
    shapes = ((2, 2), (3, 2), (2, 3), (3, 3))
    for i in range(100):
        n, m = shapes[i % len(shapes)]
        rng = sampling.rng_from(0xAC3, i)
        f = maps.LinearMapRep(n, m, oracles.random_kraus_choi(rng, n, m))
        res = cbnorm.cb_norm(f)
        unit_norm = matcore.operator_norm(
            maps.apply_to_second_leg(f, np.eye(n), 1))
        assert abs(res.upper - unit_norm) <= 1e-5
        assert (res.upper - res.lower) <= 1e-4 * max(res.upper, 1e-12)
    _done(3, "cb norm of 100 random CP maps matches the unit-image norm "
             "with a tight sandwich")


def test_criterion_04_separable_ball_radius():
    for (na, nb) in ((2, 2), (2, 3)):
        alg_a = algebra.FdAlgebra((na,))
        alg_b = algebra.FdAlgebra((nb,))
        radius = 1.0 / min(na, nb)
        entangled = 0
        for i in range(200):
            rng = sampling.rng_from(0xAC4, na, nb, i)
            x = separability._gue_element(alg_a, alg_b, radius, rng)
            verdict = separability.entanglement_witness(algebra.identity_minus(x))
            if verdict.status == "entangled-certified":
                entangled += 1
        assert entangled == 0
        probe = separability.extremal_direction(alg_a, alg_b, eps=0.05)
        (margin,) = separability.ppt_check(probe)
        slack = separability.PSD_SLACK * max(
            1.0, matcore.operator_norm(probe.part(0, 0)))
        assert abs(margin - (-0.05 + slack)) <= 1e-9
        verdict = separability.entanglement_witness(probe)
        assert verdict.status == "entangled-certified"
    _done(4, "no entangled verdicts at radius 1/min(n,m) over 400 GUE draws; "
             "the directed probe past the radius is certified entangled")


def test_criterion_05_pairing_identity():
    dims = (1, 2, 3)
    for i in range(500):
        rng = sampling.rng_from(0xAC5, i)
        n = int(dims[rng.integers(0, 3)])
        m = int(dims[rng.integers(0, 3)])
        f = maps.LinearMapRep(m, n, oracles.random_complex_choi(rng, m, n))
        x = sampling.complex_gaussian(rng, (n * m, n * m))
        moved = maps.apply_to_second_leg(f, x, n)
        lhs = np.trace(matcore.max_entangled_projector(n) @ moved)
        rhs = oracles.hat_functional(f, x)
        assert abs(lhs - rhs) <= 1e-9
    _done(5, "trace pairing against the unnormalized entangled projector "
             "matches the hat functional on 500 random pairs")


def test_criterion_06_direct_sum_conjunction():
    alg_a = algebra.FdAlgebra((2, 3))
    alg_b = algebra.FdAlgebra((2,))
    mismatches = 0
    for i in range(100):
        rng = sampling.rng_from(0xAC6, i)
        parts = []
        for (k, l) in [(0, 0), (1, 0)]:
            d = alg_a.blocks[k] * alg_b.blocks[l]
            g = sampling.complex_gaussian(rng, (d, d))
            p = g @ g.conj().T
            parts.append(p / matcore.operator_norm(p))
        x = algebra.BipartiteElement(alg_a, alg_b, tuple(parts))
        full = separability.entanglement_witness(x)

        statuses = []
        for (k, l) in x.pairs():
            single = algebra.BipartiteElement(
                algebra.FdAlgebra((alg_a.blocks[k],)),
                algebra.FdAlgebra((alg_b.blocks[l],)),
                (x.part(k, l),),
            )
            statuses.append(separability.entanglement_witness(single).status)
        if "entangled-certified" in statuses:
            expected = "entangled-certified"
        elif all(s == "separable-certified" for s in statuses):
            expected = "separable-certified"
        else:
            expected = "undecided"
        if full.status != expected:
            mismatches += 1
    assert mismatches == 0
    _done(6, "the verdict over a direct sum equals the conjunction of the "
             "100 componentwise verdicts")


def test_criterion_07_rank_formula_end_to_end():
    shapes = (
        ((2, 3), (4,)),
        ((1, 1), (3,)),
        ((2,), (2,)),
    )
    for blocks_a, blocks_b in shapes:
        rep = theorems.rank_formula_report(
            algebra.FdAlgebra(blocks_a), algebra.FdAlgebra(blocks_b), samples=4)
        assert rep.passed
        assert rep.gamma_value * rep.eta_value == 1
        for check in rep.checks:
            assert check.passed, check.name
    _done(7, "eta times gamma is exactly one with verified witnesses on "
             "three algebra shapes")


def test_criterion_08_kappa_matrix_level():
    for (n, m) in ((2, 2), (2, 5), (3, 3)):
        lower, rep = theorems.kappa_matrix_check(n, m)
        assert abs(lower - min(n, m)) <= 1e-3
        assert lower <= rep.upper + 1e-6
        assert rep.passed
    _done(8, "matrix-level kappa lower bounds meet min(n,m) and stay below "
             "the upper bounds")


def test_criterion_09_dilation_chain():
    alg = algebra.FdAlgebra((2,))
    r = 0.5
    for i in range(50):
        rng = sampling.rng_from(0xAC9, i)
        x = algebra.BipartiteElement(
            alg, alg, (sampling.random_contraction(rng, 4),))
        y = oracles.dilation_embed(x, r)
        dev = algebra.identity_minus(y)
        assert oracles.norm(dev) <= r + 1e-10
        verdict = separability.entanglement_witness(y)
        assert verdict.status != "entangled-certified"

        lam = float(rng.uniform(0.2, 0.8))
        c1 = oracles.random_unital_channel_choi(rng, 4)
        c2 = oracles.random_unital_channel_choi(rng, 4)
        choi = lam * c1 + (1 - lam) * matcore.partial_transpose(
            c2, (4, 4))
        phi = maps.LinearMapRep(4, 4, choi)
        moved = maps.apply_to_second_leg(phi, y.part(0, 0), 2)
        assert matcore.min_eigenvalue(moved) >= -1e-9
    _done(9, "50 dilations stay within the radius, avoid entanglement "
             "certification, and positive unital maps keep them positive")


def _acceptance_sdp(seed: int) -> sdp.SdpProblem:
    rng = sampling.rng_from(0xACA, seed)
    n_blocks = int(rng.integers(1, 3))
    blocks = tuple(int(rng.integers(2, 9)) for _ in range(n_blocks))
    if seed % 10 == 0:
        blocks = (16,) + blocks[1:]
    p = int(rng.integers(2, 2 + sum(blocks)))
    mats = []
    for _ in range(p):
        row = []
        for d in blocks:
            g = sampling.complex_gaussian(rng, (d, d))
            row.append((g + g.conj().T) / 2)
        mats.append(tuple(row))
    x0 = []
    z0 = []
    for d in blocks:
        g = sampling.complex_gaussian(rng, (d, d))
        x0.append(g @ g.conj().T + 0.3 * np.eye(d))
        h = sampling.complex_gaussian(rng, (d, d))
        z0.append(h @ h.conj().T + 0.3 * np.eye(d))
    y0 = rng.standard_normal(p)
    obj = tuple(
        sum(y0[i] * mats[i][b] for i in range(p)) + z0[b]
        for b in range(len(blocks))
    )
    cons = tuple(
        (
            float(sum(np.real(np.trace(mats[i][b] @ x0[b]))
                      for b in range(len(blocks)))),
            mats[i],
        )
        for i in range(p)
    )
    return sdp.SdpProblem(blocks=blocks, objective=obj, constraints=cons)


def test_criterion_10_sdp_health():
    for seed in range(200):
        prob = _acceptance_sdp(seed)
        sol = sdp.solve(prob)
        assert sol.status == "optimal", f"seed {seed}: {sol.status}"
        xs = sol.primal
        scale = 1.0 + max(float(np.linalg.norm(x)) for x in xs)
        cons = prob.constraints
        for (rhs, mats) in cons:
            val = sum(float(np.real(np.trace(a @ x)))
                      for a, x in zip(mats, xs))
            assert abs(val - rhs) <= 1e-7 * scale
        for x, z in zip(xs, sol.dual_slack):
            assert matcore.min_eigenvalue(x) >= -1e-7 * scale
            assert matcore.min_eigenvalue(z) >= -1e-7 * scale
        duals = sol.dual_y
        for b, c in enumerate(prob.objective):
            resid = c - sol.dual_slack[b] - sum(
                duals[i] * mats[b] for i, (_, mats) in enumerate(cons))
            assert float(np.linalg.norm(resid)) <= 1e-7 * (
                1.0 + float(np.linalg.norm(c)))
        assert sol.rel_gap <= 1e-7
        if seed % 25 == 0:
            again = sdp.solve(prob)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(sol.primal, again.primal))
            assert sol.dual_y.tobytes() == again.dual_y.tobytes()
    _done(10, "200 random strictly feasible SDPs solve to 1e-7 KKT "
              "residuals with byte-identical repeats")


def _cli_battery(outdir) -> list:
    runs = [
        ["cbnorm", "--map", "transpose:3", "--seed", "0"],
        ["cbnorm", "--map", "identity:3", "--verify"],
        ["cbnorm", "--map", "reduction:2"],
        ["sep-check", "--element", "id_minus:swap:0.5", "--algA", "2",
         "--algB", "2", "--verify"],
        ["sep-check", "--element", "extremal:0.05", "--algA", "2",
         "--algB", "2", "--verify"],
        ["sep-check", "--element", "id_minus:gue:0.3", "--algA", "2",
         "--algB", "3", "--seed", "7"],
        ["gamma-scan", "--algA", "2,3", "--algB", "3",
         "--radii", "0.3,0.34,0.4", "--samples", "4", "--verify"],
        ["eta", "--algA", "2,3", "--algB", "4", "--samples", "2"],
        ["eta", "--rankA", "inf", "--rankB", "5"],
        ["kappa", "--n", "2", "--m", "3", "--verify"],
    ]
    prob = sdp.SdpProblem(
        blocks=(3,),
        objective=(np.diag([3.0, 1.0, 2.0]),),
        constraints=((1.0, (np.eye(3),)),),
    )
    prob_path = outdir / "problem.json"
    prob_path.write_text(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    runs.append(["sdp-solve", "--problem", str(prob_path), "--verify"])

    outputs = []
    for i, argv in enumerate(runs):
        out = outdir / f"run{i:02d}.json"
        code = cli.dispatch(argv + ["--out", str(out)])
        assert code == 0, f"command {argv} exited {code}"
        outputs.append(out.read_bytes())
    return outputs


def test_criterion_11_cli_reproducibility(tmp_path, capsys):
    t0 = time.monotonic()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    first = _cli_battery(dir_a)
    second = _cli_battery(dir_b)
    capsys.readouterr()
    dt = time.monotonic() - t0
    assert dt < 600.0
    assert len(first) == len(second)
    for i, (a, b) in enumerate(zip(first, second)):
        assert a == b, f"battery output {i} differs between runs"
    _done(11, "the CLI battery finishes well inside the budget and is "
              "byte-identical across two runs")
