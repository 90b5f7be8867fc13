"""Reference implementations that only the tests compare against.

No command needs these: the swap built from matrix units, the level-k
amplification of a map as a map of its own, the hat functional, the
dilation of a contraction, the block identity and norm of a bipartite
element, random map ensembles, the majorizing-pair programs with a
scalar block t and with explicit slack blocks, the Schur factorization
into a second buffer, the dependent-row check as one dense pivoted QR of
all rows, and the witness and ball scan one sample and one
eigendecomposition at a time.  The tests keep them here, with the same
code and seeds as before they left the package, so that their numbers
do not change.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from sepball import algebra, maps, matcore, sampling, sdp, separability
from sepball.errors import DimensionError, PositivityError
from sepball.separability import (DECISIVE_PAIRS, PairReport,
                                  ScanReport, ScanRow, SepVerdict,
                                  WitnessData, induced_witness_map)
from sepball.sampling import complex_gaussian, gue


def swap(d: int) -> np.ndarray:
    """F = sum_kl e_kl (x) e_lk on C^d (x) C^d."""
    e = np.eye(d)
    return sum(np.kron(np.outer(e[k], e[l]), np.outer(e[l], e[k]))
               for k in range(d) for l in range(d))


def amplify(f: maps.LinearMapRep, k: int) -> maps.LinearMapRep:
    """The map Id_k (x) f as a LinearMapRep on M_{k*dim_in} -> M_{k*dim_out}.

    Its Choi matrix is, up to the explicit flip of the two middle tensor
    legs, the Kronecker product of the rank-one pairing projector P_k
    with the Choi matrix of f.
    """
    if k < 1:
        raise DimensionError(f"amplification level must be positive, got {k}")
    n, m = f.dim_in, f.dim_out
    eye = np.eye(k)
    amp8 = np.einsum("ia,jb,rcsd->iracjsbd", eye, eye, f.choi4)
    d = k * n * k * m
    return maps.LinearMapRep(k * n, k * m, amp8.reshape(d, d))


def hat_functional(f: maps.LinearMapRep, x) -> complex:
    """The functional x -> Tr(sum_i a_i^T f(b_i)) for x = sum_i a_i (x) b_i.

    Here f maps M_m -> M_n and x lives on C^n (x) C^m, with f acting on
    the second leg; the pairing traces against the transposed first leg.
    """
    m, n = f.dim_in, f.dim_out
    a = matcore.as_matrix(x)
    if a.shape != (n * m, n * m):
        raise DimensionError(
            f"element shape {a.shape} does not match C^{n} (x) C^{m} "
            f"for a map M_{m} -> M_{n}"
        )
    x4 = a.reshape(n, m, n, m)
    return complex(np.einsum("iajb,aibj->", x4, f.choi4))


def norm(x: algebra.BipartiteElement) -> float:
    """Operator norm of an element: the largest over its block pairs."""
    return max(matcore.operator_norm(p) for p in x.parts)


def bipartite_identity(alg_a: algebra.FdAlgebra,
                       alg_b: algebra.FdAlgebra) -> algebra.BipartiteElement:
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            d = alg_a.blocks[k] * alg_b.blocks[l]
            parts.append(np.eye(d, dtype=np.complex128))
    return algebra.BipartiteElement(alg_a, alg_b, tuple(parts))


def dilation_embed(x: algebra.BipartiteElement, r: float) -> algebra.BipartiteElement:
    """Embed a contraction into a positive corner element.

    For x on A (x) M_k with ||x|| <= 1 and 0 <= r <= 1 this returns

        y = [[1 (x) 1, r x], [r x*, 1 (x) 1]]  on  A (x) M_2k,

    whose distance from the identity is exactly r ||x||: the off-diagonal
    block matrix [[0, x], [x*, 0]] has the same norm as x.
    """
    if not (0.0 <= r <= 1.0):
        raise DimensionError(f"the contraction scale must be in [0, 1], got {r}")
    if len(x.alg_b.blocks) != 1:
        raise DimensionError("dilation needs a single-block second algebra")
    if norm(x) > 1.0 + 1e-12:
        raise DimensionError(f"element norm {norm(x):.6f} exceeds 1")
    k = x.alg_b.blocks[0]
    parts = []
    for (kk, _) in x.pairs():
        n = x.alg_a.blocks[kk]
        p4 = x.part(kk, 0).reshape(n, k, n, k)
        y6 = np.zeros((n, 2, k, n, 2, k), dtype=np.complex128)
        ident = np.einsum("ij,cd->icjd", np.eye(n), np.eye(k))
        y6[:, 0, :, :, 0, :] = ident
        y6[:, 1, :, :, 1, :] = ident
        y6[:, 0, :, :, 1, :] = r * p4
        y6[:, 1, :, :, 0, :] = r * np.transpose(p4.conj(), (2, 3, 0, 1))
        parts.append(y6.reshape(n * 2 * k, n * 2 * k))
    return algebra.BipartiteElement(
        x.alg_a, algebra.FdAlgebra((2 * k,)), tuple(parts))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary via QR of a Ginibre matrix with the phase fix."""
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_kraus_choi(rng: np.random.Generator, n: int, m: int, terms: int = 0) -> np.ndarray:
    """Choi matrix (domain leg first) of a random completely positive map."""
    if terms <= 0:
        terms = max(2, min(n, m))
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for _ in range(terms):
        k = complex_gaussian(rng, (m, n))  # one Kraus operator
        v = k.T.reshape(-1)  # vec with the domain index major
        choi += np.outer(v, v.conj())
    return choi


def random_hermitian_choi(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Choi of a random Hermiticity-preserving map (Hermitian Choi)."""
    return gue(rng, n * m)


def random_complex_choi(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Choi of a random linear map without further structure."""
    return complex_gaussian(rng, (n * m, n * m))


def random_unital_channel_choi(rng: np.random.Generator, d: int, terms: int = 3) -> np.ndarray:
    """Choi of a random mixed-unitary channel on M_d (unital and CP)."""
    weights = rng.dirichlet(np.ones(terms))
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for w in weights:
        u = random_unitary(rng, d)
        v = u.T.reshape(-1)
        choi += w * np.outer(v, v.conj())
    return choi


def two_block_upper_problem(psi: maps.LinearMapRep) -> sdp.SdpProblem:
    """The majorizing-pair program for psi with a scalar block t.

    Blocks are Y = [[Y_11, B], [B*, Y_22]] and t.  Rows 2k and 2k + 1
    (k = u q + w) fix the real and imaginary parts of entry (u, w) of Y's
    off-diagonal block to those of B = Choi(psi).  The last 2 m^2 rows
    set <1_n (x) h, Y_jj> = Tr(h) t for h in ``sdp.hermitian_basis(m)``,
    that is Tr_1 Y_jj = t 1, and the objective is t.  Its optimum is
    that of ``cbnorm._upper_problem``, and its slack's first block has
    the same form.
    """
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    big = 2 * q
    blocks = (big, 1)
    p_pair = 2 * q * q
    entries = [[] for _ in blocks]  # (row, flat index, value) per block

    k = np.arange(q * q)
    u, w = np.divmod(k, q)
    upper, lower = u * big + q + w, (q + w) * big + u  # (u, q+w), (q+w, u)
    one = np.ones(q * q, dtype=np.complex128)
    entries[0] += [(2 * k, upper, one), (2 * k, lower, one),
                   (2 * k + 1, upper, 1j * one), (2 * k + 1, lower, -1j * one)]

    basis = np.array(sdp.hermitian_basis(m))  # E_kk (trace 1) come first
    t, a, c = np.nonzero(basis)
    v = basis[t, a, c]
    for j in (0, 1):
        row = p_pair + j * m * m + t
        for i in range(n):
            off = j * q + i * m
            entries[0].append((row, (off + a) * big + off + c, v))
        diag = p_pair + j * m * m + np.arange(m)
        entries[1].append((diag, 0 * diag, np.full(m, -1 + 0j)))

    p = p_pair + 2 * m * m
    rows = []
    for parts, d in zip(entries, blocks):
        r, col, val = (np.concatenate(x) for x in zip(*parts))
        rows.append(sdp.Rows.from_entries(r, col, val, (p, d * d)))
    rhs = np.zeros(p)
    rhs[:p_pair] = 2.0 * psi.choi.ravel().view(np.float64)  # re, im, ...
    objective = [np.zeros((big, big)), np.ones((1, 1))]
    return sdp.SdpProblem.from_rows(blocks, objective, rhs, rows)


def four_block_upper_problem(psi: maps.LinearMapRep) -> sdp.SdpProblem:
    """The majorizing-pair program with slack blocks rho_1, rho_2.

    Blocks are Y, rho_1, rho_2 and t.  Rows 2k and 2k + 1 (k = u q + w)
    fix the real and imaginary parts of entry (u, w) of Y's off-diagonal
    block to those of Choi(psi).  The last 2 m^2 rows set
    <1_n (x) h, Y_jj> + <h, rho_j> = Tr(h) t for h in
    ``sdp.hermitian_basis(m)``, that is Tr_1 Y_jj + rho_j = t 1.  Its
    optimum is that of ``two_block_upper_problem``, and its slack's first
    block has the same form, so ``cbnorm._certified_pair`` and
    ``cbnorm._dual_witness`` read its solutions too.
    """
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    big = 2 * q
    blocks = (big, m, m, 1)
    p_pair = 2 * q * q
    entries = [[] for _ in blocks]  # (row, flat index, value) per block

    k = np.arange(q * q)
    u, w = np.divmod(k, q)
    upper, lower = u * big + q + w, (q + w) * big + u  # (u, q+w), (q+w, u)
    one = np.ones(q * q, dtype=np.complex128)
    entries[0] += [(2 * k, upper, one), (2 * k, lower, one),
                   (2 * k + 1, upper, 1j * one), (2 * k + 1, lower, -1j * one)]

    basis = np.array(sdp.hermitian_basis(m))  # E_kk (trace 1) come first
    t, a, c = np.nonzero(basis)
    v = basis[t, a, c]
    for j in (0, 1):
        row = p_pair + j * m * m + t
        for i in range(n):
            off = j * q + i * m
            entries[0].append((row, (off + a) * big + off + c, v))
        entries[1 + j].append((row, a * m + c, v))
        diag = p_pair + j * m * m + np.arange(m)
        entries[3].append((diag, 0 * diag, np.full(m, -1 + 0j)))

    p = p_pair + 2 * m * m
    rows = []
    for parts, d in zip(entries, blocks):
        r, col, val = (np.concatenate(x) for x in zip(*parts))
        rows.append(sdp.Rows.from_entries(r, col, val, (p, d * d)))
    rhs = np.zeros(p)
    rhs[:p_pair] = 2.0 * psi.choi.ravel().view(np.float64)  # re, im, ...
    objective = [np.zeros((d, d)) for d in blocks[:3]] + [np.ones((1, 1))]
    return sdp.SdpProblem.from_rows(blocks, objective, rhs, rows)


def dense_independent_rows(rows, b):
    """Select a maximal independent subset of constraint rows via pivoted QR.

    Each row and its right-hand side are first scaled to unit row norm,
    so that one huge row does not make the others look dependent.
    Returns (keep, dropped, inconsistent) as ``sdp._independent_rows``.
    """
    p = len(b)
    dense = [r.toarray() for r in rows]
    v = np.hstack([x for a in dense for x in (a.real, a.imag)])  # (p, dof)
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0.0] = 1.0
    v = v / norms[:, None]
    b = b / norms
    r = scipy.linalg.qr(v.T, mode="r", pivoting=True)
    rmat, piv = r[0], r[1]
    diag = np.abs(np.diagonal(rmat))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > 1e-12 * diag[0] * max(v.shape)))
    keep = np.sort(piv[:rank])
    dropped = sorted(set(range(p)) - set(keep.tolist()))
    inconsistent = None
    if dropped:
        vk = v[keep]
        for i in dropped:
            coef, *_ = np.linalg.lstsq(vk.T, v[i], rcond=None)
            if abs(float(coef @ b[keep]) - b[i]) > 1e-9 * max(1.0, abs(b[i])):
                inconsistent = i
                break
    return keep, dropped, inconsistent


def copying_dense_factor(system, scal):
    """``sdp._DenseSystem.factor`` as a copy: every attempt copies the
    Schur matrix into a second p x p buffer and factors that, so the
    Schur buffer is never overwritten."""
    m = system.schur(scal)
    out = np.empty_like(m)
    p = m.shape[0]
    base = max(1.0, float(np.trace(m)) / max(1, p))
    regs = [0.0] + [base * 10.0 ** k for k in range(-14, -5, 3)]
    diagonal = out.reshape(-1)[::p + 1]
    for reg in regs:
        np.copyto(out, m)
        diagonal += reg
        try:
            system.factor_l = scipy.linalg.cho_factor(
                out.T, lower=True, overwrite_a=True, check_finite=False)[0]
            return system
        except scipy.linalg.LinAlgError:
            continue
    return None


def certify_pair(part, dims, pair, lam_min, scale, tol):
    """Closed-form decomposable witness on one block pair.

    ``lam_min`` is the smallest eigenvalue of ``part`` and ``scale`` is
    max(1, ||part||), both from the caller's positivity precheck.
    """
    n, m = dims
    gamma = matcore.partial_transpose(part, dims)
    g_evals, g_vecs = matcore.eig_hermitian(gamma)
    ppt_margin = float(g_evals[0])
    value = min(lam_min, ppt_margin)

    if n == 1 or m == 1:
        # One leg is scalar: every positive element is a product.
        decomp = [(np.ones((1, 1), dtype=np.complex128), part.copy())] \
            if n == 1 else [(part.copy(), np.ones((1, 1), dtype=np.complex128))]
        report = PairReport(pair, dims, "separable-certified",
                            witness_value=value, ppt_margin=ppt_margin,
                            message="scalar leg, element is a product")
        return report, None, decomp

    if value < -tol * scale:
        # lam_min passed the precheck, so the optimum is lambda_min(x^G),
        # attained by C_2 = |v><v|: W = (|v><v|)^G has trace one.
        v = g_vecs[:, 0]
        w = matcore.partial_transpose(np.outer(v, v.conj()), dims)
        phi = induced_witness_map(w, n, m)
        moved = maps.apply_to_second_leg(phi, part, n)
        evals, evecs = matcore.eig_hermitian(moved)
        violation = float(evals[0])
        if violation < -tol * scale:
            data = WitnessData(pair=pair, map=phi, vector=evecs[:, 0],
                               violation=violation, witness_matrix=w)
            report = PairReport(pair, dims, "entangled-certified",
                                witness_value=value, ppt_margin=ppt_margin)
            return report, data, None
        report = PairReport(pair, dims, "undecided", witness_value=value,
                            ppt_margin=ppt_margin,
                            message="witness optimum negative but the moved "
                                    "element stayed positive within tolerance")
        return report, None, None

    if (n, m) in DECISIVE_PAIRS:
        report = PairReport(pair, dims, "separable-certified",
                            witness_value=value, ppt_margin=ppt_margin,
                            message="partial transpose decisive at these sizes")
        return report, None, []
    report = PairReport(pair, dims, "undecided", witness_value=value,
                        ppt_margin=ppt_margin,
                        message="no decomposable witness; sizes beyond the "
                                "decisive range")
    return report, None, None


def entanglement_witness(x: algebra.BipartiteElement) -> SepVerdict:
    """Certify entanglement or separability of a positive element."""
    tol = separability.PSD_SLACK
    x = x.hermitized()
    spectra = []
    for (k, l) in x.pairs():
        evals = matcore.eigvals_hermitian(x.part(k, l))
        lam_min = float(evals[0])
        scale = max(1.0, abs(lam_min), abs(float(evals[-1])))
        if lam_min < -tol * scale:
            raise PositivityError(
                f"block pair ({k},{l}) has eigenvalue {lam_min:.3e}; "
                "the witness test needs a positive element"
            )
        spectra.append((lam_min, scale))

    reports = []
    witness = None
    decomposition = []
    have_decomposition = True
    for (k, l), (lam_min, scale) in zip(x.pairs(), spectra):
        report, data, decomp = certify_pair(
            x.part(k, l), x.pair_dims(k, l), (k, l), lam_min, scale, tol)
        reports.append(report)
        if data is not None and witness is None:
            witness = data
        if decomp is None:
            have_decomposition = False
        else:
            decomposition.append(((k, l), decomp))

    statuses = [r.status for r in reports]
    if "entangled-certified" in statuses:
        margin = min(r.witness_value for r in reports
                     if r.status == "entangled-certified")
        return SepVerdict(status="entangled-certified", margin=margin,
                          witness=witness, pair_reports=tuple(reports))
    if all(s == "separable-certified" for s in statuses):
        margin = min(r.ppt_margin for r in reports)
        return SepVerdict(status="separable-certified", margin=margin,
                          decomposition=decomposition if have_decomposition
                          else None,
                          pair_reports=tuple(reports))
    margin = min(r.ppt_margin for r in reports)
    return SepVerdict(status="undecided", margin=margin,
                      pair_reports=tuple(reports))


def gue_element(alg_a, alg_b, radius, rng) -> algebra.BipartiteElement:
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            d = alg_a.blocks[k] * alg_b.blocks[l]
            parts.append(sampling.gue(rng, d))
    top = max(matcore.operator_norm(p) for p in parts)
    parts = tuple(p * (radius / top) for p in parts)
    return algebra.BipartiteElement(alg_a, alg_b, parts)


def sep_ball_scan(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                  radii, samples: int = 50, seed: int = 0) -> ScanReport:
    """``separability.sep_ball_scan`` one sample at a time."""
    radii = tuple(float(r) for r in radii)

    def one_sample(ri: int, s: int):
        rng = sampling.rng_from(0x5CA9, seed, ri, s)
        x = gue_element(alg_a, alg_b, radii[ri], rng)
        return entanglement_witness(algebra.identity_minus(x)).status

    rows = []
    onset = None
    for ri, r in enumerate(radii):
        statuses = [one_sample(ri, s) for s in range(samples)]
        directed = entanglement_witness(
            algebra.identity_minus(
                separability._directed_element(alg_a, alg_b, r))).status
        statuses.append(directed)
        counts = {s: statuses.count(s) for s in (
            "separable-certified", "entangled-certified", "undecided")}
        rows.append(ScanRow(
            radius=r,
            separable=counts["separable-certified"],
            entangled=counts["entangled-certified"],
            undecided=counts["undecided"],
            directed_status=directed,
        ))
        if counts["entangled-certified"] > 0 and onset is None:
            onset = r
    return ScanReport(alg_a=alg_a, alg_b=alg_b, radii=radii, samples=samples,
                      seed=seed, rows=tuple(rows), onset=onset)
