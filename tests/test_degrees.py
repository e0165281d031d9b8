import dataclasses
import math
import re

import numpy as np
import pytest

from inacc import (
    DimensionMismatch,
    NotAchievable,
    NotAProbability,
    NotInBlindSpot,
    OutOfRange,
    PosteriorClasses,
    ProbabilityVector,
    RefusedTooLarge,
    SeparationFailed,
    TooSmall,
    UtilityFunction,
    VerificationFailed,
    achievable_degrees,
    bell_number,
    construct_inaccessible_decision,
    degree,
    expectation,
    find_separating_direction,
    inaccessible_set,
    log_density_ratio,
    perturbed_score,
    posterior_classes,
    radon_nikodym,
    realize_degree,
)
from inacc import _scan
from inacc.core import _expectations

from conftest import random_positive_pair
from oracles import brute_degree, brute_posterior_classes

UNIFORM3 = ProbabilityVector.uniform(3)
PSTAR3 = ProbabilityVector([0.5, 0.3, 0.2])


def blind_spot_pairs(rng, n, count):
    out = []
    while len(out) < count:
        p_star, p = random_positive_pair(rng, n)
        if radon_nikodym(p_star, p).injective:
            out.append((p_star, p))
    return out


class TestInaccessibleSetAndDegree:
    def test_strong_decision_has_full_set(self):
        built = construct_inaccessible_decision(PSTAR3, UNIFORM3)
        got = inaccessible_set(PSTAR3, UNIFORM3, built.d)
        assert {pi.rgs for pi in got} == {(0, 0, 1), (0, 1, 0), (0, 1, 1)}
        assert degree(PSTAR3, UNIFORM3, built.d) == 3

    def test_partial_threshold(self):
        d = log_density_ratio(PSTAR3, UNIFORM3).shifted(0.03)
        got = inaccessible_set(PSTAR3, UNIFORM3, d)
        assert {pi.rgs for pi in got} == {(0, 0, 1), (0, 1, 0)}
        assert degree(PSTAR3, UNIFORM3, d) == 2

    def test_positive_constant_empty(self):
        d = UtilityFunction([1.0, 1.0, 1.0])
        assert inaccessible_set(PSTAR3, UNIFORM3, d) == ()
        assert degree(PSTAR3, UNIFORM3, d) == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_degree_matches_brute_force(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            p_star, p = random_positive_pair(rng, n)
            d = UtilityFunction(rng.normal(size=n))
            assert degree(p_star, p, d) == brute_degree(
                list(p_star.weights), list(p.weights), list(d.values), n
            )


class TestPosteriorClasses:
    def test_fixture_three_singleton_classes(self):
        classes = posterior_classes(PSTAR3, UNIFORM3)
        assert len(classes) == 3
        assert (classes.multiplicities == 1).all()
        posteriors = {tuple(round(w, 6) for w in row) for row in classes.posteriors.tolist()}
        assert posteriors == {(0.4, 0.4, 0.2), (0.35, 0.3, 0.35), (0.5, 0.25, 0.25)}

    @pytest.mark.parametrize("n", [3, 4])
    def test_constant_ratio_collapses(self, n):
        p = ProbabilityVector.uniform(n)
        classes = posterior_classes(p, p)
        assert len(classes) == 1
        assert classes.multiplicities.tolist() == [bell_number(n) - 2]
        assert classes.posteriors[0].tolist() == pytest.approx(p.weights, abs=1e-12)

    @pytest.mark.parametrize("max_outcomes", [13, 16])
    def test_refused_above_n11(self, max_outcomes):
        # the class scan alone takes tens of seconds and GBs at n = 12; refused before it
        p = ProbabilityVector.uniform(12)
        with pytest.raises(RefusedTooLarge, match="11"):
            posterior_classes(p, p, max_outcomes=max_outcomes)

    def test_n4_multiplicities_sum_to_13(self):
        rng = np.random.default_rng(11)
        p_star, p = blind_spot_pairs(rng, 4, 1)[0]
        classes = posterior_classes(p_star, p)
        assert classes.multiplicities.sum() == 13

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force_dedup(self, n):
        rng = np.random.default_rng(300 + n)
        pairs = [random_positive_pair(rng, n) for _ in range(5)]
        pairs.append((ProbabilityVector.uniform(n), ProbabilityVector.uniform(n)))
        for p_star, p in pairs:
            ours = posterior_classes(p_star, p)
            brute = brute_posterior_classes(list(p_star.weights), list(p.weights), n)
            assert len(ours) == len(brute)
            assert sorted(ours.multiplicities.tolist()) == sorted(m for _, m in brute)
            for posterior, multiplicity in zip(ours.posteriors.tolist(), ours.multiplicities):
                match = min(
                    brute,
                    key=lambda item: max(abs(a - b) for a, b in zip(item[0], posterior)),
                )
                assert max(abs(a - b) for a, b in zip(match[0], posterior)) <= 1e-9
                assert match[1] == multiplicity

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rows_are_the_weights_of_probability_vectors(self, n):
        # the per-row path the table replaced: one ProbabilityVector per class
        def per_row(p_star, p):
            ps, pw = p_star.as_array(), p.as_array()
            table = _scan.class_scan(n, _scan._ratio_table(ps, pw), pw)
            return [ProbabilityVector(row).weights for row in table["posterior"].tolist()]

        rng = np.random.default_rng(1600 + n)
        pairs = [random_positive_pair(rng, n), (ProbabilityVector.uniform(n),) * 2]
        if n == 4:  # two classes of multiplicity 2
            pairs.append((ProbabilityVector([0.1, 0.2, 0.3, 0.4]), ProbabilityVector.uniform(4)))
        for p_star, p in pairs:
            classes = posterior_classes(p_star, p)
            assert classes.posteriors.tobytes() == np.array(per_row(p_star, p)).tobytes()
        if n == 4:
            assert sorted(classes.multiplicities.tolist()) == [1] * 9 + [2, 2]

    @pytest.mark.parametrize(
        "rows, multiplicities, error",
        [
            ([[math.nan, 0.5, 0.5]], [1], NotAProbability),
            ([[0.6, 0.5, -0.1]], [1], NotAProbability),
            ([[0.5, 0.3, 0.2 + 1e-6]], [1], NotAProbability),
            ([[0.5, 0.5]], [1], TooSmall),
            ([[0.5, 0.3, 0.2]], [0], OutOfRange),
            ([[0.5, 0.3, 0.2]], [1, 1], DimensionMismatch),
        ],
        ids=["nan", "negative", "sum-off-1e-6", "n=2", "multiplicity-0", "count-mismatch"],
    )
    def test_malformed_tables_raise_typed_errors(self, rows, multiplicities, error):
        with pytest.raises(error):
            PosteriorClasses(rows, multiplicities)
        if multiplicities == [1]:  # a row fault: ProbabilityVector raises the same error
            with pytest.raises(error):
                ProbabilityVector(rows[0])


class TestSeparatingDirection:
    def test_single_class_trivial(self):
        classes = posterior_classes(UNIFORM3, UNIFORM3)
        u = find_separating_direction(classes)
        assert u.n == 3

    def test_fixture_classes_separated(self):
        classes = posterior_classes(PSTAR3, UNIFORM3)
        u = find_separating_direction(classes, seed=0)
        vals = sorted(_expectations(u.as_array(), classes.posteriors))
        assert all(b - a > 1e-9 for a, b in zip(vals, vals[1:]))

    def test_known_direction_works_on_fixture(self):
        # first coordinates of the three posteriors are already distinct
        classes = posterior_classes(PSTAR3, UNIFORM3)
        vals = sorted(classes.posteriors[:, 0].tolist())
        assert vals == pytest.approx([0.35, 0.4, 0.5], abs=1e-12)

    def test_duplicate_representatives_fail(self):
        dup = PosteriorClasses([PSTAR3.weights] * 2, [1, 1])
        with pytest.raises(SeparationFailed):
            find_separating_direction(dup, max_attempts=8)

    def test_failure_reports_the_widest_smallest_gap(self):
        # two distinct classes 1e-10 apart: every direction leaves them within TOL_SEP
        near = PosteriorClasses([[0.5, 0.3, 0.2], [0.5 + 1e-10, 0.3 - 1e-10, 0.2]], [1, 1])
        with pytest.raises(SeparationFailed, match="not above TOL_SEP = 1e-09") as info:
            find_separating_direction(near, max_attempts=8)
        widest = float(re.search(r"was (\S+),", str(info.value)).group(1))
        assert 0.0 < widest <= 2e-10 * (1 + 1e-6)

    def test_classes_of_another_outcome_count(self):
        four = ProbabilityVector.uniform(4).weights
        with pytest.raises(DimensionMismatch):  # ragged rows
            PosteriorClasses([PSTAR3.weights, four], [1, 1])
        with pytest.raises(DimensionMismatch):
            perturbed_score(
                PSTAR3, UNIFORM3, UtilityFunction([1, 0, 0]), classes=PosteriorClasses([four], [1])
            )

    @pytest.mark.parametrize("max_attempts", [0, -3, 2.5, True])
    def test_max_attempts_must_be_a_positive_integer(self, max_attempts):
        # no direction is tried, so no gap could be reported
        with pytest.raises(OutOfRange, match="max_attempts"):
            find_separating_direction(posterior_classes(PSTAR3, UNIFORM3), max_attempts=max_attempts)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(OutOfRange):
            find_separating_direction(posterior_classes(PSTAR3, UNIFORM3), seed=seed)
        with pytest.raises(OutOfRange):
            realize_degree(PSTAR3, UNIFORM3, 1, seed=seed)


class TestPerturbedScore:
    def test_fixture_checks_hold(self):
        classes = posterior_classes(PSTAR3, UNIFORM3)
        u = find_separating_direction(classes, seed=0)
        out = perturbed_score(PSTAR3, UNIFORM3, u, classes=classes)
        assert out.eta > 0.0
        scores = sorted(_expectations(out.g_eta.as_array(), classes.posteriors))
        assert all(b - a > 1e-9 for a, b in zip(scores, scores[1:]))
        assert expectation(out.g_eta, PSTAR3) > scores[-1]

    def test_zero_direction_inherits_distinctness(self):
        out = perturbed_score(
            PSTAR3, UNIFORM3, UtilityFunction([0, 0, 0]), classes=posterior_classes(PSTAR3, UNIFORM3)
        )
        assert out.eta == 0.0
        assert out.g_eta.values == pytest.approx(
            log_density_ratio(PSTAR3, UNIFORM3).values, abs=1e-15
        )

    def test_large_eta_fraction_keeps_margin(self):
        u = UtilityFunction([1.0, -1.0, 1.0])  # adversarial-ish direction
        classes = posterior_classes(PSTAR3, UNIFORM3)
        out = perturbed_score(PSTAR3, UNIFORM3, u, eta_fraction=0.999, classes=classes)
        top = max(_expectations(out.g_eta.as_array(), classes.posteriors))
        assert expectation(out.g_eta, PSTAR3) > top

    def test_requires_blind_spot(self):
        with pytest.raises(NotInBlindSpot):
            perturbed_score(
                PSTAR3, PSTAR3, UtilityFunction([1, 0, 0]), classes=posterior_classes(PSTAR3, PSTAR3)
            )

    def test_a_tie_at_the_first_eta_halves_it(self):
        classes = posterior_classes(PSTAR3, UNIFORM3)
        u = find_separating_direction(classes, seed=0)
        first = perturbed_score(PSTAR3, UNIFORM3, u, classes=classes)
        # a mixture of the lowest and highest classes that scores the middle one's
        # E_q[g_eta] at the first eta; it moves neither the gap nor the scale of u
        reps = classes.posteriors
        scores = reps @ first.g_eta.as_array()
        lo, mid, hi = np.argsort(scores)
        t = (scores[mid] - scores[lo]) / (scores[hi] - scores[lo])
        tie = (1 - t) * reps[lo] + t * reps[hi]
        out = perturbed_score(
            PSTAR3, UNIFORM3, u, classes=PosteriorClasses(np.vstack([reps, tie]), [1] * 4)
        )
        assert out.eta == first.eta / 2

    @pytest.mark.parametrize("eta_fraction", [0.0, 0.5])
    def test_duplicate_classes_cannot_be_separated(self, eta_fraction):
        classes = posterior_classes(PSTAR3, UNIFORM3)
        u = find_separating_direction(classes, seed=0)
        with pytest.raises(SeparationFailed, match="no eta"):
            perturbed_score(
                PSTAR3, UNIFORM3, u, eta_fraction=eta_fraction, classes=classes.take([0, 1, 2, 0])
            )


class TestAchievableDegrees:
    def test_fixture_full_range(self):
        spectrum = achievable_degrees(PSTAR3, UNIFORM3)
        assert spectrum.achievable == (0, 1, 2, 3)
        assert spectrum.cumulative == (1, 2, 3)
        assert spectrum.classes.multiplicities.tolist() == [1, 1, 1]
        scores = spectrum.scores.tolist()
        assert scores == sorted(scores)

    def test_n4_all_distinct_full_range(self):
        rng = np.random.default_rng(21)
        p_star, p = blind_spot_pairs(rng, 4, 1)[0]
        spectrum = achievable_degrees(p_star, p)
        if (spectrum.classes.multiplicities == 1).all():
            assert spectrum.achievable == tuple(range(14))
        assert spectrum.cumulative[-1] == 13

    def test_not_in_blind_spot(self):
        with pytest.raises(NotInBlindSpot):
            achievable_degrees(PSTAR3, PSTAR3)

    def test_spectrum_refuses_tied_scores(self):
        spectrum = achievable_degrees(PSTAR3, UNIFORM3)
        tied = [0, 0, 2]
        with pytest.raises(VerificationFailed, match="not separated"):
            dataclasses.replace(
                spectrum, classes=spectrum.classes.take(tied), scores=spectrum.scores[tied]
            )

    def test_spectrum_refuses_cumulative_sums_off_the_multiplicities(self):
        spectrum = achievable_degrees(PSTAR3, UNIFORM3)
        with pytest.raises(VerificationFailed, match="cumulative sums"):
            dataclasses.replace(spectrum, cumulative=(1, 2, 4))

    def test_tied_pair_is_refused_before_the_class_scan(self, monkeypatch):
        # the class scan alone takes tens of milliseconds at n = 8, and a
        # pair outside the blind spot has no spectrum to scan for
        def no_class_scan(*args, **kwargs):
            raise AssertionError("class scan ran for a pair outside the blind spot")

        monkeypatch.setattr(_scan, "class_scan", no_class_scan)
        rng = np.random.default_rng(88)
        p = rng.dirichlet(np.ones(8))
        r = rng.uniform(0.5, 2.0, 8)
        r[5] = r[2]
        p_star = ProbabilityVector(r * p / (r @ p))
        with pytest.raises(NotInBlindSpot, match="requires an injective ratio"):
            achievable_degrees(p_star, ProbabilityVector(p))
        with pytest.raises(NotInBlindSpot, match="requires an injective ratio"):
            realize_degree(p_star, ProbabilityVector(p), 1)

    def test_seed_determinism(self):
        a = achievable_degrees(PSTAR3, UNIFORM3, seed=7)
        b = achievable_degrees(PSTAR3, UNIFORM3, seed=7)
        assert a.u.values == b.u.values
        assert a.eta == b.eta

    def test_a_numpy_seed_is_reported_as_an_int(self):
        report = achievable_degrees(PSTAR3, UNIFORM3, seed=np.int64(7)).to_json_dict()
        assert report == achievable_degrees(PSTAR3, UNIFORM3, seed=7).to_json_dict()


class TestRealizeDegree:
    def test_fixture_k2(self):
        realized = realize_degree(PSTAR3, UNIFORM3, 2)
        assert realized.report.degree == 2
        assert realized.report.e_pstar > 0.0
        scores = sorted(realized.spectrum.scores.tolist())
        assert scores[1] < realized.c < scores[2]

    def test_k0_empty_set(self):
        realized = realize_degree(PSTAR3, UNIFORM3, 0)
        assert realized.report.degree == 0
        assert realized.report.e_pstar > 0.0

    def test_k_max_strongly_inaccessible(self):
        realized = realize_degree(PSTAR3, UNIFORM3, 3)
        assert realized.report.degree == 3
        assert realized.report.strong

    def test_unachievable_degree(self):
        with pytest.raises(NotAchievable):
            realize_degree(PSTAR3, UNIFORM3, 5)

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_k_must_be_an_integer(self, k):
        # True == 1 and 1.0 == 1 sit in the achievable set, but neither is a degree
        with pytest.raises(OutOfRange, match="k must be an integer"):
            realize_degree(PSTAR3, UNIFORM3, k)
        assert realize_degree(PSTAR3, UNIFORM3, np.int64(1)).report.degree == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_achievable_degree_realizes(self, n):
        rng = np.random.default_rng(400 + n)
        for p_star, p in blind_spot_pairs(rng, n, 3):
            spectrum = achievable_degrees(p_star, p)
            for k in spectrum.achievable:
                realized = realize_degree(p_star, p, k, spectrum=spectrum)
                assert realized.report.degree == k
                # independent check against the brute-force degree
                assert k == brute_degree(
                    list(p_star.weights), list(p.weights), list(realized.d.values), n
                )
                assert realized.report.e_pstar > 0.0


class TestSpectrumLaws:
    @pytest.mark.parametrize("n", [3, 4])
    def test_initial_segment_law(self, n):
        """deg(d) of any d lands in the achievable set of the pair."""
        rng = np.random.default_rng(500 + n)
        for p_star, p in blind_spot_pairs(rng, n, 3):
            spectrum = achievable_degrees(p_star, p)
            allowed = set(spectrum.achievable)
            for _ in range(50):
                d = UtilityFunction(rng.normal(size=n))
                assert degree(p_star, p, d) in allowed

    def test_threshold_monotonicity(self):
        spectrum = achievable_degrees(PSTAR3, UNIFORM3)
        lo = spectrum.scores.min() - 1.0
        hi = spectrum.scores.max() + 1.0
        degrees = [
            degree(PSTAR3, UNIFORM3, spectrum.g_eta.shifted(c))
            for c in np.linspace(lo, hi, 40)
        ]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize("n", [3, 4])
    def test_corollary_full_range_iff_injective_map(self, n):
        rng = np.random.default_rng(600 + n)
        pairs = blind_spot_pairs(rng, n, 3)
        for p_star, p in pairs:
            spectrum = achievable_degrees(p_star, p)
            full = spectrum.achievable == tuple(range(bell_number(n) - 1))
            all_mult_one = (spectrum.classes.multiplicities == 1).all()
            assert full == all_mult_one
