import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inacc import (
    DimensionMismatch,
    NotInBlindSpot,
    OutOfRange,
    ProbabilityVector,
    PStarHasZero,
    RefusedTooLarge,
    SetPartition,
    UtilityFunction,
    VerificationFailed,
    appendix_certificate,
    bell_number,
    construct_inaccessible_decision,
    expectation,
    kl_divergence,
    log_density_ratio,
    posterior_classes,
    posterior_gap_decomposition,
    radon_nikodym,
    verify_inaccessibility,
)
from inacc import _scan
from inacc.construct import MAX_JSON_ROWS, MAX_UTILITY, _adjacent_pair_margin, _check_scan_inputs
from inacc.monotonicity import epsilon_mixture_check

from conftest import random_positive_pair
from oracles import (
    brute_degree,
    brute_expectation,
    brute_jeffrey,
    brute_kl,
    brute_posterior_scores,
    brute_proper_partitions,
)

UNIFORM3 = ProbabilityVector.uniform(3)
PSTAR3 = ProbabilityVector([0.5, 0.3, 0.2])


def simplex(n=3):
    return st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n
    ).map(lambda w: ProbabilityVector(x / math.fsum(w) for x in w))


class TestLogDensityRatio:
    def test_fixture(self):
        g = log_density_ratio(PSTAR3, UNIFORM3)
        assert g.values == pytest.approx((0.405465, -0.105361, -0.510826), abs=1e-6)

    def test_zero_when_equal(self):
        g = log_density_ratio(PSTAR3, PSTAR3)
        assert g.values == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_strict_mode_rejects_pstar_zero(self):
        with pytest.raises(PStarHasZero):
            log_density_ratio(ProbabilityVector([0.5, 0.5, 0]), UNIFORM3)

    def test_clamp_mode_floors(self):
        g = log_density_ratio(ProbabilityVector([0.5, 0.5, 0]), UNIFORM3, mode="clamp")
        assert g.values[2] == -50.0
        assert g.values[0] == pytest.approx(math.log(1.5))


class TestKLDivergence:
    def test_self_divergence_zero(self):
        assert kl_divergence(PSTAR3, PSTAR3) == 0.0

    def test_fixture_value(self):
        assert kl_divergence(PSTAR3, UNIFORM3) == pytest.approx(0.068959, abs=1e-6)

    def test_fixture_equals_expected_log_ratio(self):
        g = log_density_ratio(PSTAR3, UNIFORM3)
        assert kl_divergence(PSTAR3, UNIFORM3) == pytest.approx(
            expectation(g, PSTAR3), abs=1e-12
        )

    def test_support_conventions(self):
        a = ProbabilityVector([0.5, 0.5, 0.0])
        b = ProbabilityVector([0.5, 0.25, 0.25])
        assert math.isfinite(kl_divergence(a, b))
        assert kl_divergence(b, a) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(PSTAR3, ProbabilityVector.uniform(4))

    @given(simplex(), simplex())
    @settings(max_examples=100)
    def test_gibbs_nonnegative(self, q1, q2):
        div = kl_divergence(q1, q2)
        assert div >= 0.0
        assert div == pytest.approx(brute_kl(q1.weights, q2.weights), abs=1e-12)

    @given(simplex())
    @settings(max_examples=50)
    def test_matches_expected_log_ratio(self, p_star):
        # Gibbs equality case is p* = p; inequality is strict otherwise
        g = log_density_ratio(p_star, UNIFORM3)
        assert kl_divergence(p_star, UNIFORM3) == pytest.approx(
            expectation(g, p_star), abs=1e-9
        )


class TestGapDecomposition:
    def test_identity_pair_all_zero(self):
        out = posterior_gap_decomposition(PSTAR3, PSTAR3, SetPartition([0, 0, 1]))
        assert out.gap == pytest.approx(0.0, abs=1e-12)
        assert all(b.symmetric_divergence == pytest.approx(0.0, abs=1e-12) for b in out.per_block)

    def test_fixture_gap(self):
        out = posterior_gap_decomposition(PSTAR3, UNIFORM3, SetPartition([0, 0, 1]))
        assert out.gap == pytest.approx(0.068959 - 0.017877, abs=1e-5)
        assert out.block_sum == pytest.approx(out.gap, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_injective_ratio_gives_positive_gap(self, n):
        """Every posterior scores g strictly below the target when r is injective."""
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            p_star, p = random_positive_pair(rng, n)
            if not radon_nikodym(p_star, p).injective:
                continue
            for blocks in brute_proper_partitions(n):
                out = posterior_gap_decomposition(p_star, p, SetPartition.from_blocks(blocks))
                assert out.gap > 0.0
                assert all(b.symmetric_divergence >= 0.0 for b in out.per_block)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_posterior_scores_below_target_exhaustive(self, n):
        """max over all of P of E_q[g] stays under E_p*[g] up to n = 8."""
        from inacc import _scan

        rng = np.random.default_rng(75 + n)
        done = 0
        while done < 5:
            p_star, p = random_positive_pair(rng, n)
            if not radon_nikodym(p_star, p).injective:
                continue
            done += 1
            g = log_density_ratio(p_star, p)
            table = _scan._score_table(p_star.as_array(), p.as_array(), g.as_array())
            scan = _scan.score_scan(n, table)
            assert scan.count == bell_number(n) - 2
            assert scan.max_score < expectation(g, p_star)


class TestConstruction:
    def test_fixture_full_oracle(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3, 0.5)
        assert built.M == pytest.approx(0.048686, abs=1e-5)
        assert built.delta == pytest.approx(0.020274, abs=1e-5)
        assert built.epsilon == pytest.approx(0.010137, abs=1e-5)
        g = log_density_ratio(PSTAR3, UNIFORM3)
        assert built.d.values == pytest.approx(
            tuple(x - 0.058823 for x in g.values), abs=1e-5
        )
        assert built.report.e_pstar == pytest.approx(0.010137, abs=1e-5)
        scores = sorted(s for _, s in built.report.per_partition)
        assert scores == pytest.approx([-0.127307, -0.040946, -0.010137], abs=1e-5)
        assert built.report.argmax_partition.rgs == (0, 1, 1)
        assert built.f1.values == built.d.values
        assert built.f2.values == (0.0, 0.0, 0.0)

    def test_eps_fraction_099(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3, 0.99)
        assert built.report.strong
        assert built.report.e_pstar == pytest.approx(0.01 * built.delta, abs=1e-9)

    def test_not_in_blind_spot(self):
        with pytest.raises(NotInBlindSpot):
            construct_inaccessible_decision(PSTAR3, PSTAR3)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5, 1.5])
    def test_eps_fraction_domain(self, frac):
        with pytest.raises(OutOfRange):
            construct_inaccessible_decision(PSTAR3, UNIFORM3, frac)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_soundness_random_pairs(self, n):
        """E_{p*}[d] > 0 and max_Pi E_{q_Pi}[d] = -eps, exhaustively."""
        rng = np.random.default_rng(80 + n)
        done = 0
        while done < 10:
            p_star, p = random_positive_pair(rng, n)
            if not radon_nikodym(p_star, p).injective:
                continue
            built = construct_inaccessible_decision(p_star, p)
            done += 1
            assert built.report.strong
            assert built.report.e_pstar > 0.0
            assert built.report.max_score == pytest.approx(-built.epsilon, abs=1e-9)
            assert built.report.degree == bell_number(n) - 2
            # independent oracle on the same d
            scores = brute_posterior_scores(
                list(p_star.weights), list(p.weights), list(built.d.values), n
            )
            assert max(scores) == pytest.approx(-built.epsilon, abs=1e-9)
            assert all(s < 0 for s in scores)

    @pytest.mark.parametrize("mode", ["strict", "clamp"])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_closed_form_max_matches_scan(self, n, mode):
        """M and Delta from the adjacent-pair closed form equal the exhaustive scan's."""
        rng = np.random.default_rng(1200 + 20 * n + (mode == "clamp"))
        done = 0
        while done < (1 if n >= 11 else 4):
            p_star, p = random_positive_pair(rng, n)
            if mode == "clamp":
                weights = list(p_star.weights)
                weights[int(rng.integers(n))] = 0.0
                p_star = ProbabilityVector(x / math.fsum(weights) for x in weights)
            ratio = radon_nikodym(p_star, p)
            if not ratio.injective:
                continue
            done += 1
            g = log_density_ratio(p_star, p, mode=mode)
            table = _scan._score_table(p_star.as_array(), p.as_array(), g.as_array())
            scan = _scan.score_scan(n, table)
            delta, pairs = _adjacent_pair_margin(
                np.array([ratio.values]), np.array([ratio.order]),
                p.as_array()[None], g.as_array()[None],
            )
            delta, (i, j) = float(delta[0]), pairs[0].tolist()
            e_star = expectation(g, p_star)
            assert abs((e_star - delta) - scan.max_score) <= 1e-12
            assert abs(delta - (e_star - scan.max_score)) <= 1e-12
            pair = SetPartition.from_blocks(
                [[i + 1, j + 1]] + [[k + 1] for k in range(n) if k not in (i, j)]
            )
            rgs = np.asarray([pair.rgs], dtype=np.int8)
            pair_score = _scan.chunk_scores(rgs, _scan._increments(table))[0]
            assert abs(pair_score - scan.max_score) <= 1e-12
            if mode == "strict":
                assert pair in appendix_certificate(p_star, p).pair_partitions

    def test_clamp_mode_with_pstar_zero(self):
        p_star = ProbabilityVector([0.7, 0.3, 0.0])
        with pytest.raises(PStarHasZero):
            construct_inaccessible_decision(p_star, UNIFORM3)
        built = construct_inaccessible_decision(p_star, UNIFORM3, mode="clamp")
        assert built.report.strong
        assert built.report.e_pstar > 0.0
        assert built.d.values[2] <= -50.0  # clamped log ratio minus the shift


class TestVerify:
    def test_constructed_decision_strong(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)
        report = verify_inaccessibility(PSTAR3, UNIFORM3, built.d)
        assert report.degree == 3 == bell_number(3) - 2
        assert report.strong
        assert report.inaccessible

    def test_zero_utility_gap(self):
        report = verify_inaccessibility(PSTAR3, UNIFORM3, UtilityFunction([0, 0, 0]))
        assert report.degree == 3
        assert not report.strong
        assert report.inaccessible

    def test_positive_constant(self):
        report = verify_inaccessibility(PSTAR3, UNIFORM3, UtilityFunction([1, 1, 1]))
        assert report.degree == 0
        assert not report.strong
        assert report.max_score == pytest.approx(1.0, abs=1e-12)

    def test_n4_constructed_degree_13(self):
        rng = np.random.default_rng(4)
        while True:
            p_star, p = random_positive_pair(rng, 4)
            if radon_nikodym(p_star, p).injective:
                break
        built = construct_inaccessible_decision(p_star, p)
        assert built.report.degree == 13
        assert built.report.strong

    def test_resource_guard(self):
        p = ProbabilityVector.uniform(14)
        raw = [1.5 ** i for i in range(14)]
        p_star = ProbabilityVector(x / sum(raw) for x in raw)
        with pytest.raises(RefusedTooLarge):
            verify_inaccessibility(p_star, p, UtilityFunction([0.0] * 14))

    def test_guard_has_a_ceiling(self):
        # no max_outcomes reaches an n whose scan cannot finish
        raw = [1.1 ** i for i in range(17)]
        p_star = ProbabilityVector(x / sum(raw) for x in raw)
        with pytest.raises(RefusedTooLarge, match="16"):
            verify_inaccessibility(
                p_star, ProbabilityVector.uniform(17), UtilityFunction([0.0] * 17),
                max_outcomes=17,
            )

    @pytest.mark.parametrize("max_outcomes", [math.nan, 16.0, True, "16", None], ids=repr)
    def test_max_outcomes_must_be_an_integer(self, max_outcomes):
        # NaN compares false both ways, so min(nan, 16) would lift the ceiling at n = 17
        u = ProbabilityVector.uniform(17)
        with pytest.raises(OutOfRange, match="max_outcomes"):
            _check_scan_inputs(u, u, max_outcomes=max_outcomes)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2", None], ids=repr)
    def test_workers_must_be_a_positive_integer(self, workers):
        u = ProbabilityVector.uniform(4)
        with pytest.raises(OutOfRange, match="workers"):
            _check_scan_inputs(u, u, max_outcomes=13, workers=workers)

    def test_numpy_integer_knobs_pass(self):
        u = ProbabilityVector.uniform(4)
        assert _check_scan_inputs(u, u, max_outcomes=np.int64(13), workers=np.int32(2)) == 4

    @pytest.mark.parametrize("call", ["verify", "construct", "classes", "epsilon"])
    def test_every_scan_refuses_bad_workers_before_a_table(self, monkeypatch, call):
        def no_table(*args):
            raise AssertionError("built a table before checking workers")

        monkeypatch.setattr(_scan, "_subset_sums", no_table)
        p_star, p = ProbabilityVector([0.5, 0.3, 0.2]), ProbabilityVector.uniform(3)
        d = UtilityFunction([1.0, -1.0, 0.0])
        run = {
            "verify": lambda: verify_inaccessibility(p_star, p, d, workers=0),
            "construct": lambda: construct_inaccessible_decision(p_star, p, workers=0),
            "classes": lambda: posterior_classes(p_star, p, workers=0),
            "epsilon": lambda: epsilon_mixture_check(p_star, p, d, 0.5, workers=0),
        }[call]
        with pytest.raises(OutOfRange, match="workers"):
            run()

    def test_kept_details_are_refused_before_scanning(self, monkeypatch):
        # Bell(11) - 2 = 678,568 rows is above MAX_JSON_ROWS, whatever max_outcomes allows
        def no_scan(*args):
            raise AssertionError("scanned before refusing")

        monkeypatch.setattr(_scan, "iter_scored_chunks", no_scan)
        monkeypatch.setattr(_scan, "score_scan", no_scan)
        raw = [1.2 ** i for i in range(11)]
        p_star = ProbabilityVector(x / sum(raw) for x in raw)
        with pytest.raises(RefusedTooLarge, match=str(MAX_JSON_ROWS)):
            verify_inaccessibility(
                p_star, ProbabilityVector.uniform(11), UtilityFunction([0.0] * 11),
                max_outcomes=16, keep_partitions=True,
            )

    def test_guard_override(self):
        # n=11 is above the detail cap but below the default guard
        raw = [1.2 ** i for i in range(11)]
        report = verify_inaccessibility(
            ProbabilityVector(x / sum(raw) for x in raw),
            ProbabilityVector.uniform(11),
            UtilityFunction([1.0] * 11),
        )
        assert report.per_partition is None
        assert report.degree == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_scores_match_brute_force(self, n):
        rng = np.random.default_rng(90 + n)
        for _ in range(5):
            p_star, p = random_positive_pair(rng, n)
            d = UtilityFunction(rng.uniform(-1, 1, n))
            report = verify_inaccessibility(p_star, p, d)
            assert report.degree == brute_degree(
                list(p_star.weights), list(p.weights), list(d.values), n
            )
            oracle = {
                tuple(sorted(blocks)): brute_expectation(
                    list(d.values), brute_jeffrey(list(p_star.weights), list(p.weights), blocks)
                )
                for blocks in brute_proper_partitions(n)
            }
            for pi, score in report.per_partition:
                key = tuple(sorted(pi.blocks()))
                assert score == pytest.approx(oracle[key], abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_scores_stay_finite_at_max_utility(self, n):
        # every increment W(S) - W(S without its highest outcome) the carry adds is
        # within 2 MAX_UTILITY, and every total within MAX_UTILITY: a total over the
        # blocks of a prefix partition (see construct.MAX_UTILITY)
        rng = np.random.default_rng([n, 1600])
        alpha = np.full(n, 0.1)  # sparse: p* has zeros, p has weights down to the floor
        for _ in range(60):
            p_star = ProbabilityVector(rng.dirichlet(alpha))
            p = ProbabilityVector(np.maximum(rng.dirichlet(alpha), 1e-300))
            d = UtilityFunction(rng.choice([-1.0, 1.0], n) * MAX_UTILITY)
            report = verify_inaccessibility(p_star, p, d)
            extremes = np.array([report.max_score, report.min_score])
            assert np.isfinite(extremes).all()
            assert np.abs(extremes).max() <= MAX_UTILITY * (1 + 1e-12)

    def test_report_consistency(self):
        report = verify_inaccessibility(PSTAR3, UNIFORM3, UtilityFunction([0.1, -0.2, 0.05]))
        assert len(report.per_partition) == report.partition_count
        assert report.degree == len(report.inaccessible_set)
        assert report.e_pstar == pytest.approx(
            expectation(UtilityFunction([0.1, -0.2, 0.05]), PSTAR3)
        )


def _offset_scans(monkeypatch, offset):
    """Shift every score the scans report by ``offset``, kept rows and maxima alike.

    Verification keeps rows through ``iter_scored_chunks`` up to n = 8 and
    folds them in ``score_scan`` above, so both are doctored.
    """
    chunks, scan = _scan.iter_scored_chunks, _scan.score_scan

    def doctored_chunks(n, table):
        for labels, scores in chunks(n, table):
            yield labels, scores + offset

    def doctored_scan(n, table, **kw):
        out = scan(n, table, **kw)
        out.max_score += offset
        return out

    monkeypatch.setattr(_scan, "iter_scored_chunks", doctored_chunks)
    monkeypatch.setattr(_scan, "score_scan", doctored_scan)


class TestSelfChecks:
    """The re-verification and report checks raise when a scan disagrees with them."""

    @pytest.mark.parametrize("n", [3, 9])
    @pytest.mark.parametrize(
        "mode, error", [("strict", VerificationFailed), ("clamp", PStarHasZero)]
    )
    def test_construct_refuses_a_max_off_its_closed_form(self, monkeypatch, n, mode, error):
        raw = np.linspace(1.0, 2.0, n)
        if mode == "clamp":
            raw[0] = 0.0
        p_star = ProbabilityVector((raw / raw.sum()).tolist())
        p = ProbabilityVector.uniform(n)
        # a posterior max 1e-6 above -eps: still strong, but not the closed form's
        _offset_scans(monkeypatch, 1e-6)
        with pytest.raises(error, match="re-verification"):
            construct_inaccessible_decision(p_star, p, mode=mode)

    def test_report_degree_must_match_the_kept_rows(self):
        report = verify_inaccessibility(PSTAR3, UNIFORM3, UtilityFunction([0.1, -0.2, 0.05]))
        assert (report.degree, report.partition_count) == (2, 3)
        with pytest.raises(VerificationFailed, match="stored inaccessible set"):
            dataclasses.replace(report, degree=1)

    def test_report_verdict_must_match_the_degree(self):
        report = verify_inaccessibility(
            PSTAR3, UNIFORM3, UtilityFunction([0.1, -0.2, 0.05]), keep_partitions=False
        )
        with pytest.raises(VerificationFailed, match="verdict disagrees"):
            dataclasses.replace(report, degree=report.partition_count)
