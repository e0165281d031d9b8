import numpy as np
import pytest

from inacc import (
    NotInjective,
    OutOfRange,
    ProbabilityVector,
    SeparationBelowTolerance,
    TheoremViolation,
    UtilityFunction,
    VerificationFailed,
    appendix_certificate,
    check_monotonicity,
    construct_inaccessible_decision,
    epsilon_mixture_check,
    expectation,
    log_density_ratio,
    radon_nikodym,
    realize_degree,
    sweep,
    verify_inaccessibility,
)
import inacc.monotonicity as mono
from inacc.construct import MAX_UTILITY

from conftest import random_positive_pair
from oracles import brute_jeffrey, brute_proper_partitions

UNIFORM3 = ProbabilityVector.uniform(3)
PSTAR3 = ProbabilityVector([0.5, 0.3, 0.2])


def injective_pairs(rng, n, count):
    out = []
    while len(out) < count:
        p_star, p = random_positive_pair(rng, n)
        if radon_nikodym(p_star, p).injective:
            out.append((p_star, p))
    return out


class TestCheckMonotonicity:
    def test_constructed_decision(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)
        check = check_monotonicity(PSTAR3, UNIFORM3, built.d)
        assert check.hypotheses_hold
        assert check.conclusion_holds
        assert check.e_p == pytest.approx(-0.129064, abs=1e-5)

    def test_positive_constant_hypotheses_fail(self):
        check = check_monotonicity(PSTAR3, UNIFORM3, UtilityFunction([1, 1, 1]))
        assert not check.hypotheses_hold

    def test_partial_threshold_hypotheses_fail(self):
        d = log_density_ratio(PSTAR3, UNIFORM3).shifted(0.03)
        check = check_monotonicity(PSTAR3, UNIFORM3, d)
        assert not check.hypotheses_hold
        assert check.max_posterior_score == pytest.approx(0.048686 - 0.03, abs=1e-5)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_constructed_decisions_never_violate(self, n):
        rng = np.random.default_rng(700 + n)
        for p_star, p in injective_pairs(rng, n, 5):
            built = construct_inaccessible_decision(p_star, p)
            check = check_monotonicity(p_star, p, built.d)
            assert check.hypotheses_hold and check.conclusion_holds
            assert check.e_p < 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_realized_max_degree_also_satisfies(self, n):
        from inacc import bell_number

        rng = np.random.default_rng(710 + n)
        for p_star, p in injective_pairs(rng, n, 2):
            realized = realize_degree(p_star, p, bell_number(n) - 2)
            check = check_monotonicity(p_star, p, realized.d)
            assert check.hypotheses_hold and check.conclusion_holds

    def test_violation_surfaces(self, monkeypatch):
        """A (faked) hypothesis-holding scan with E_p[d] >= 0 must raise."""
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)

        real = mono._scan.score_scan

        def doctored(n, table, **kw):
            scan = real(n, table, **kw)
            scan.num_le = scan.count  # pretend every posterior is <= 0
            scan.max_score = 0.0
            return scan

        monkeypatch.setattr(mono._scan, "score_scan", doctored)
        # d = +1 has E_p[d] = 1 > 0; with the doctored scan the hypotheses
        # "hold", so the checker must report the impossible combination
        with pytest.raises(TheoremViolation):
            check_monotonicity(PSTAR3, UNIFORM3, UtilityFunction([1, 1, 1]))


class TestAppendixCertificate:
    def test_fixture_values(self):
        cert = appendix_certificate(PSTAR3, UNIFORM3)
        assert cert.ordering == (1, 2, 3)  # ratios (2/3, 10/9, 5/3) already sorted
        assert cert.S == pytest.approx((1 / 6, 2 / 15), abs=1e-12)
        assert cert.A == pytest.approx((0.1, 0.05), abs=1e-12)
        assert cert.t == pytest.approx((5 / 3, 8 / 3), abs=1e-12)
        assert cert.t_sum == pytest.approx(13 / 3, abs=1e-12)
        assert cert.decomposition_residual <= 1e-12
        assert cert.telescoping_residual <= 1e-12
        assert cert.qm_shift_residual <= 1e-12

    def test_fixture_pair_partitions(self):
        cert = appendix_certificate(PSTAR3, UNIFORM3)
        assert [pi.blocks() for pi in cert.pair_partitions] == [
            ((1, 2), (3,)),
            ((1,), (2, 3)),
        ]

    def test_constant_ratio_rejected(self):
        with pytest.raises(NotInjective):
            appendix_certificate(PSTAR3, PSTAR3)

    def test_thin_margins_are_refused_not_violations(self):
        # p/p* is injective, but A_2 = 6.0e-11 makes t_2 = 2.2e9 and the
        # decomposition residual 6.0e-8, past TOL_NUM with no theorem at fault
        p_star = ProbabilityVector([0.7590058190734279, 0.11522607832880578, 0.12576810259776633])
        p = ProbabilityVector([0.5098790523647087, 0.23434057393504928, 0.255780373700242])
        assert radon_nikodym(p, p_star).injective
        with pytest.raises(SeparationBelowTolerance, match=r"min A = 6\.01\d*e-11"):
            appendix_certificate(p_star, p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_invariants_random_pairs(self, n):
        rng = np.random.default_rng(720 + n)
        for p_star, p in injective_pairs(rng, n, 10):
            cert = appendix_certificate(p_star, p)
            assert all(s > 0 for s in cert.S)
            assert all(a > 0 for a in cert.A)
            assert all(t >= 1.0 - 1e-9 for t in cert.t)
            assert cert.t_sum > 1.0
            assert cert.decomposition_residual <= 1e-9
            assert cert.telescoping_residual <= 1e-9
            assert cert.qm_shift_residual <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_decomposition_against_direct_arithmetic(self, n):
        """Rebuild p - p* from scratch with the certificate's coefficients."""
        rng = np.random.default_rng(730 + n)
        for p_star, p in injective_pairs(rng, n, 5):
            cert = appendix_certificate(p_star, p)
            recon = [0.0] * n
            for t_m, pi in zip(cert.t, cert.pair_partitions):
                q_m = brute_jeffrey(list(p_star.weights), list(p.weights), pi.blocks())
                for i in range(n):
                    recon[i] += t_m * (q_m[i] - p_star.weights[i])
            target = [a - b for a, b in zip(p.weights, p_star.weights)]
            assert recon == pytest.approx(target, abs=1e-9)

    def test_reciprocal_injectivity_equivalence(self):
        # the appendix sorts p/p* while the construction uses p*/p; on
        # positive values one is injective iff the other is
        rng = np.random.default_rng(9)
        for n in (3, 5, 7):
            for _ in range(20):
                p_star, p = random_positive_pair(rng, n)
                forward = radon_nikodym(p_star, p).injective
                backward = radon_nikodym(p, p_star).injective
                assert forward == backward


class TestEpsilonMixture:
    def test_fixture_eps_half(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)
        check = epsilon_mixture_check(PSTAR3, UNIFORM3, built.d, 0.5)
        assert check.p_eps.weights == pytest.approx((5 / 12, 19 / 60, 4 / 15), abs=1e-12)
        assert check.identities_hold
        assert check.partition_count == 3

    def test_limiting_eps(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)
        check = epsilon_mixture_check(PSTAR3, UNIFORM3, built.d, 0.999)
        assert check.identities_hold
        assert check.p_eps.weights == pytest.approx(UNIFORM3.weights, abs=2e-3)

    def test_zero_mean_shift_is_identity(self):
        # engineered d with E_p[d] = 0 exactly
        d = UtilityFunction([1.0, -1.0, 0.0])
        assert expectation(d, UNIFORM3) == 0.0
        check = epsilon_mixture_check(PSTAR3, UNIFORM3, d, 0.5)
        assert check.d_eps.values == d.values

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_eps_domain(self, eps):
        with pytest.raises(OutOfRange):
            epsilon_mixture_check(PSTAR3, UNIFORM3, UtilityFunction([0, 0, 0]), eps)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_identities_random_d(self, n, eps):
        rng = np.random.default_rng(740 + n)
        for _ in range(5):
            p_star, p = random_positive_pair(rng, n)
            d = UtilityFunction(rng.normal(size=n))
            check = epsilon_mixture_check(p_star, p, d, eps)
            assert check.identities_hold
            assert check.max_mixture_residual <= 1e-9
            assert check.max_posterior_residual <= 1e-9
            assert check.global_residual <= 1e-9

    @pytest.mark.parametrize("n", [5, 11])
    def test_unshifted_d_eps_fails_the_identities(self, n, monkeypatch):
        # with d_eps = d every row's score on W_eps - (1-eps) W is eps E_p[d], not 0;
        # n = 11 streams chunks through the scan
        rng = np.random.default_rng(760 + n)
        p_star, p = random_positive_pair(rng, n)
        d = UtilityFunction(rng.uniform(0.0, 1.0, n))
        eps = 0.3
        monkeypatch.setattr(UtilityFunction, "shifted", lambda self, c: self)
        check = epsilon_mixture_check(p_star, p, d, eps)
        assert check.d_eps == d
        assert not check.identities_hold
        assert check.max_mixture_residual <= 1e-12
        assert check.max_posterior_residual == pytest.approx(eps * expectation(d, p), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("eps", [1e-3, 0.5, 0.999])
    def test_residuals_stay_finite_at_max_utility(self, n, eps):
        # |d_eps| <= 2 MAX_UTILITY, so every total of the difference table over blocks
        # stays within 2 MAX_UTILITY and every increment the carry adds within
        # 4 MAX_UTILITY (see construct.MAX_UTILITY): finite, below the float maximum
        rng = np.random.default_rng([n, int(eps * 1000)])
        alpha = np.full(n, 0.1)  # sparse: p* has zeros, p has weights down to the floor
        for _ in range(60):
            p_star = ProbabilityVector(rng.dirichlet(alpha))
            p = ProbabilityVector(np.maximum(rng.dirichlet(alpha), 1e-300))
            d = UtilityFunction(rng.choice([-1.0, 1.0], n) * MAX_UTILITY)
            check = epsilon_mixture_check(p_star, p, d, eps)
            residuals = [
                check.max_mixture_residual, check.max_posterior_residual, check.global_residual
            ]
            assert np.isfinite(residuals).all()
            assert check.max_posterior_residual <= 4 * MAX_UTILITY

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_part2_reduction_preserves_hypotheses(self, eps):
        """An inaccessible d stays inaccessible for (p_eps, p) after the shift."""
        rng = np.random.default_rng(77)
        for p_star, p in injective_pairs(rng, 4, 3):
            built = construct_inaccessible_decision(p_star, p)
            check = epsilon_mixture_check(p_star, p, built.d, eps)
            report = verify_inaccessibility(check.p_eps, p, check.d_eps)
            assert report.e_pstar > 0.0
            assert report.inaccessible

    def test_mixture_identity_against_oracle(self):
        eps = 0.5
        p_eps = ProbabilityVector(
            (1 - eps) * a + eps * b for a, b in zip(PSTAR3.weights, UNIFORM3.weights)
        )
        for blocks in brute_proper_partitions(3):
            lhs = brute_jeffrey(list(p_eps.weights), list(UNIFORM3.weights), blocks)
            q = brute_jeffrey(list(PSTAR3.weights), list(UNIFORM3.weights), blocks)
            rhs = [(1 - eps) * qi + eps * pi for qi, pi in zip(q, UNIFORM3.weights)]
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sweep_re_verifies_its_constructions(monkeypatch):
    # every max 1e-6 above its closed form -eps: still strong, so only the
    # re-verification of the constructed d's can notice
    real = mono._scan.score_scan

    def doctored(n, table, **kw):
        scan = real(n, table, **kw)
        scan.max_score = [m + 1e-6 for m in scan.max_score]
        return scan

    monkeypatch.setattr(mono._scan, "score_scan", doctored)
    with pytest.raises(VerificationFailed, match="re-verification"):
        sweep(n=4, samples=20, seed=0)
