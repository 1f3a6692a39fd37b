"""Acceptance gate: ten exact, zero-tolerance criteria, one test each.

Every check is symbolic; no tolerances anywhere. Each test prints one
[criterion N] PASS line on success (visible with -s; the -v test line
itself carries the same verdict either way).
"""
import random
import time
from fractions import Fraction

from prismlab.connops import (bk_twist, change_uniformizer, check_nilpotent,
                              classify_ndR, cohomology, kummer_sen_operator,
                              residual_sen)
from prismlab.field import INF, FieldSpec
from prismlab.galois import GaloisElementData, action_kernel, converges_at, d0_check, digit_sum
from prismlab.linalg import Matrix
from prismlab.series import TruncSeries, lambda_approx
from prismlab.strat import (LogConnection, Stratification, check_cocycle,
                            check_leibniz, from_connection, operator_family,
                            to_connection, verify_key_lemma)

from conftest import constant_conn, random_connection, twist
from ref import rank_oracle

FIELDS = [FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]), FieldSpec(2, [-2, 0, 1])]


def report(n: int, detail: str):
    print(f"[criterion {n}] PASS - {detail}")


def test_criterion_01_round_trip():
    rng = random.Random(101)
    start = time.monotonic()
    scalars = ["prism", "log", 1, Fraction(2, 3)]
    for trip in range(50):
        spec = FIELDS[trip % 3]
        l = rng.randint(1, 3)
        m = rng.randint(1, 4)
        M = random_connection(rng, spec, l, m)
        pick = scalars[trip % 4]
        a = {"prism": spec.a_prism(), "log": spec.a_log()}.get(pick, pick)
        back = to_connection(from_connection(M, a, 2 * m + 2))
        assert back == M, f"round trip failed at l={l}, m={m}, p={spec.p}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"round trips took {elapsed:.1f}s"
    report(1, f"50 exact round trips over 3 fields in {elapsed:.2f}s")


def test_criterion_02_cocycle_sound_and_complete():
    rng = random.Random(202)
    # soundness: from_connection stratifications satisfy the cocycle exactly
    passing = 0
    for spec, l, m, D in [(FIELDS[0], 2, 2, 6), (FIELDS[0], 3, 2, 6),
                          (FIELDS[1], 2, 2, 6), (FIELDS[1], 1, 4, 10),
                          (FIELDS[2], 2, 3, 8), (FIELDS[0], 1, 1, 4)]:
        st = from_connection(random_connection(rng, spec, l, m), spec.a_prism(), D)
        rep = check_cocycle(st)
        assert rep["ok"] and rep["degeneracy_ok"], (l, m, D, rep)
        passing += 1
    # completeness: any single-entry change to phi_2 must be caught, with a
    # reported witness monomial
    spec = FIELDS[0]
    base = from_connection(random_connection(rng, spec, 3, 2), spec.a_prism(), 6)
    size = 6
    seen = set()
    while len(seen) < 20:
        r, c = rng.randrange(size), rng.randrange(size)
        val = rng.choice([1, -1, 2, Fraction(1, 2)])
        if (r, c, val) in seen:
            continue
        seen.add((r, c, val))
        rows = [[0] * size for _ in range(size)]
        rows[r][c] = val
        rep = check_cocycle(base.perturbed(2, Matrix(spec, rows)))
        assert not rep["ok"], f"perturbation at {(r, c)} slipped through"
        assert rep["witness"] is not None and "monomial" in rep["witness"]
    report(2, f"{passing} exact passes, 20/20 perturbations caught with witnesses")


def test_criterion_03_key_lemma():
    rng = random.Random(303)
    spec = FIELDS[0]
    # scalar product family
    a = spec.from_rational(Fraction(2))
    c = spec.from_rational(Fraction(5, 3))
    phi1 = Matrix(spec, [[a * c]])
    phi = operator_family(phi1, a, 10)
    assert verify_key_lemma(phi, a, 3, 6)["ok"]
    # random 2x2 product family
    M = random_connection(rng, spec, 2, 1)
    st = from_connection(M, spec.a_prism(), 9)
    assert verify_key_lemma(st.phi, st.a, 3, 6)["ok"]
    # phi_2 := phi_1^2 breaks it whenever phi_1(phi_1 - a) != phi_1^2,
    # and the failure sits in the X^[1] coefficient
    bad = list(st.phi)
    bad[2] = bad[1] * bad[1]
    assert not (bad[1] * (bad[1] - Matrix.identity(spec, 2).scale(st.a)) == bad[2])
    rep = verify_key_lemma(bad, st.a, 3, 6)
    assert not rep["ok"]
    assert rep["witness"]["pd_degree"] == 1, rep
    report(3, "product families pass at n_max=3, D=6; phi_1^2 fails at X^[1]")


def test_criterion_04_bk_twist_dimensions():
    checked = 0
    for spec in (FIELDS[0], FIELDS[1]):
        for m in range(1, 5):
            for n in range(-5, 6):
                M = twist(spec, m, n)
                rep = cohomology(M)
                expect = 1 if -n in range(m) else 0
                assert rep["h0"] == expect and rep["h1"] == expect, (spec.p, m, n)
                brute = rank_oracle(M.operator())
                assert rep["h0"] == M.size() - brute
                assert rep["h1"] == M.size() - brute
                checked += 1
    report(4, f"{checked} twist dimension pairs match the window formula and brute-force rank")


def test_criterion_05_leibniz_everywhere():
    rng = random.Random(505)
    strats = []
    for spec, l, m in [(FIELDS[0], 2, 3), (FIELDS[1], 3, 2), (FIELDS[2], 1, 4),
                       (FIELDS[1], 2, 4), (FIELDS[0], 3, 1)]:
        strats.append(from_connection(random_connection(rng, spec, l, m),
                                      spec.a_prism(), 2 * m + 2))
    for st in strats:
        assert check_leibniz(st)["ok"]
    # spell one case out at the vector level: phi_1(T^d e_j) against
    # T^d phi_1(e_j) + a d T^d e_j for every monomial and basis vector
    st = strats[0]
    spec, l, m = st.spec, st.l, st.m
    size = l * m
    for d in range(m):
        for j0 in range(size):
            x = [spec.zero()] * size
            x[j0] = spec.one()
            k, j = divmod(j0, l)
            shifted = [spec.zero()] * size
            if k + d < m:
                shifted[(k + d) * l + j] = spec.one()
            lhs = st.phi[1].apply(shifted)
            # f phi_1(x) + a f' x with f = T^d, multiplied out by hand
            via = [a + st.a * d * b for a, b in zip(st.phi[1].apply(x), x)]
            rhs = [spec.zero()] * size
            for idx, cval in enumerate(via):
                kk, jj = divmod(idx, l)
                if kk + d < m:
                    rhs[(kk + d) * l + jj] = cval
            assert all((p - q).is_zero() for p, q in zip(lhs, rhs)), (d, j0)
    report(5, f"Leibniz exact on {len(strats)} stratifications, all monomials and basis vectors")


def test_criterion_06_d0_factorization():
    rng = random.Random(606)
    checked = 0
    for spec in (FIELDS[0], FIELDS[1]):
        a = spec.a_prism()
        for m in range(1, 5):
            # integer residual weights with a strictly triangular tail keep
            # the connection provably a-nilpotent
            l = 2
            w = [rng.randint(-3, 3) for _ in range(l)]
            N = [[TruncSeries.zero(spec, m) for _ in range(l)] for _ in range(l)]
            for i in range(l):
                coeffs = [spec.from_rational(Fraction(w[i]))]
                coeffs += [spec.from_rational(Fraction(rng.randint(-4, 4)))
                           for _ in range(m - 1)]
                N[i][i] = TruncSeries(spec, m, coeffs)
            N[1][0] = TruncSeries.constant(spec, m, rng.randint(1, 3))
            M = LogConnection(spec, "T", l, m, N)
            assert check_nilpotent(M, a)["status"] == "ProvenNilpotent"
            rep = d0_check(M, a, 6)
            assert rep["ok"], (spec.p, m, rep)
            checked += 1
    report(6, f"eps - id = H(op, X) o (a op) on {checked} nilpotent connections, D=6, m up to 4")


def test_criterion_07_margin_examples():
    q3, q3s = FIELDS[0], FIELDS[1]
    # alpha = 1/2 over Q_3: integral distance, margin infinite
    rep = residual_sen(constant_conn(q3, 1, [[Fraction(1, 2)]]))
    pw = rep["per_weight"][0]
    assert pw["dist"] is INF and pw["margin_prism"] is INF
    cl = classify_ndR(constant_conn(q3, 1, [[Fraction(1, 2)]]))
    assert cl["nearly_dR"] and cl["log_nearly_dR"]
    # alpha = 1/3 over Q_3: margin -1, neither flag
    rep = residual_sen(constant_conn(q3, 1, [[Fraction(1, 3)]]))
    pw = rep["per_weight"][0]
    assert pw["dist"] == Fraction(-1)
    assert pw["margin_prism"] == Fraction(-1)
    cl = classify_ndR(constant_conn(q3, 1, [[Fraction(1, 3)]]))
    assert cl["nearly_dR"] is False and cl["log_nearly_dR"] is False
    # alpha = pi/3 over Q_3(sqrt 3): prismatic margin 0, log margin 1/2 -
    # the strict inclusion witnessed
    alpha = q3s.element([0, Fraction(1, 3)])
    M = LogConnection(q3s, "T", 1, 1, [[TruncSeries.constant(q3s, 1, alpha)]])
    rep = residual_sen(M)
    pw = rep["per_weight"][0]
    assert pw["dist"] == Fraction(-1, 2)
    assert pw["margin_prism"] == Fraction(0)
    assert pw["margin_log"] == Fraction(1, 2)
    cl = classify_ndR(M)
    assert cl["nearly_dR"] is False and cl["log_nearly_dR"] is True
    report(7, "margins +inf, -1, and (0 vs 1/2) reproduced; inclusion strict on examples")


def _random_nilpotent_connection(rng, spec, m, unif="T"):
    """Split residual with weights of positive prismatic margin, conjugated
    by a unipotent matrix, plus arbitrary higher coefficients."""
    pi = spec.pi()
    pool = [spec.from_rational(Fraction(k)) for k in range(-2, 3)]
    pool += [spec.from_rational(Fraction(1, 2)), pi, pi + 1]
    vp = spec.a_prism().val()
    w = []
    while len(w) < 2:
        cand = rng.choice(pool)
        if (vp + cand.dist_to_integers()) > 0:
            w.append(cand)
    u = rng.randint(-3, 3)
    # conjugate diag(w) by [[1, u], [0, 1]]
    res = [[w[0], (w[1] - w[0]) * u], [spec.zero(), w[1]]]
    N = []
    for i in range(2):
        row = []
        for j in range(2):
            coeffs = [res[i][j]]
            coeffs += [spec.from_rational(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
                       for _ in range(m - 1)]
            row.append(TruncSeries(spec, m, coeffs, unif))
        N.append(row)
    return LogConnection(spec, unif, 2, m, N)


def test_criterion_08_prismatic_implies_log():
    rng = random.Random(808)
    spec = FIELDS[1]
    done = 0
    while done < 30:
        M = _random_nilpotent_connection(rng, spec, rng.randint(1, 3))
        prism = check_nilpotent(M, spec.a_prism())
        assert prism["status"] == "ProvenNilpotent", prism
        log = check_nilpotent(M, spec.a_log())
        assert log["status"] == "ProvenNilpotent", log
        done += 1
    report(8, "30/30 prismatic-nilpotent connections are log-nilpotent")


def test_criterion_09_uniformizer_invariance():
    rng = random.Random(909)
    for spec in FIELDS:
        for m in (1, 2, 4):
            # split residual so classification is proven on both sides
            M = _random_nilpotent_connection(rng, spec, m, unif="u-pi")
            base_coh = cohomology(M)
            base_cl = classify_ndR(M)
            for F in (0, 1, 2):
                moved = kummer_sen_operator(M, F)
                coh = cohomology(moved)
                assert (coh["h0"], coh["h1"]) == (base_coh["h0"], base_coh["h1"])
                cl = classify_ndR(moved)
                assert (cl["status"], cl["nearly_dR"], cl["log_nearly_dR"]) == (
                    base_cl["status"], base_cl["nearly_dR"], base_cl["log_nearly_dR"])
                if m >= 2:
                    lam = lambda_approx(spec, F, m)
                    back = change_uniformizer(moved, lam.reversion().with_unif("u-pi"))
                    assert back == M, (spec.p, m, F)
    report(9, "h0/h1 and classification invariant under u-pi <-> lambda_F, round trips exact")


def test_criterion_10_convergence():
    q3 = FIELDS[0]
    v0 = GaloisElementData(Fraction(1, 2))  # 1/(p-1) at p = 3
    # integer-weight kernels converge at the threshold valuation 1/(p-1)
    for M in (constant_conn(q3, 2, [[3, 0], [1, -2]]), twist(q3, 3, 2)):
        k = action_kernel(M, q3.a_prism(), 10)
        assert converges_at(k, v0)["status"] == "Convergent"
    # rank-1 integer weight: exact trace against the closed form
    k = action_kernel(constant_conn(q3, 1, [[2]]), 1, 6)
    rep = converges_at(k, v0)
    assert rep["status"] == "Convergent"
    expect = [Fraction(0), Fraction(1, 2), Fraction(1)] + [INF] * 4
    assert rep["trace"] == expect
    # weight 1/p diverges, trace strictly decreasing, values exact:
    # t_n = -n + n/2 - v_3(n!) = -n + s_3(n)/2
    k = action_kernel(constant_conn(q3, 1, [[Fraction(1, 3)]]), 1, 12)
    rep = converges_at(k, v0)
    assert rep["status"] == "Divergent"
    closed = [Fraction(-n) + Fraction(digit_sum(n, 3), 2) for n in range(13)]
    assert rep["trace"] == closed
    assert all(b < a for a, b in zip(closed, closed[1:]))
    report(10, "integer weights Convergent at v0=1/2; weight 1/3 Divergent with exact decreasing trace")
