from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persisteval.errors import DataError, UsageError
from persisteval.stats import (
    mean,
    regularized_incomplete_beta,
    t_test_unpaired,
    two_sided_p,
    variance,
)

from oracles import oracle_pooled_t, oracle_two_sided_p

samples = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=30,
)


class TestDescriptive:
    def test_mean_and_variance(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)
        assert variance([1, 2, 3]) == pytest.approx(1.0)

    def test_single_observation(self):
        assert mean([5]) == 5.0
        with pytest.raises(DataError):
            variance([5])

    def test_empty_mean_rejected(self):
        with pytest.raises(DataError):
            mean([])

    def test_constant_sample(self):
        assert variance([4.2] * 6) == 0.0


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        # I_{1/2}(a, a) = 1/2 for any a
        for a in (0.5, 1.0, 3.0, 17.5):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.25, 0.77):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_closed_form_a2_b1(self):
        # I_x(2, 1) = x^2
        assert regularized_incomplete_beta(2.0, 1.0, 0.3) == pytest.approx(0.09, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(DataError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestTCdf:
    """The t distribution through its two-sided tail, two_sided_p = 2 (1 - CDF(|t|))."""

    def test_value_at_zero_is_exact(self):
        for df in (1, 2, 5, 30.5, 246):
            assert two_sided_p(0.0, df) == 1.0

    def test_symmetry_exact(self):
        for i in range(1, 101):
            x = 0.37 * i
            assert two_sided_p(-x, 9) == two_sided_p(x, 9)

    def test_against_quadrature(self):
        for t in (-6.0, -1.5, -0.2, 0.4, 2.0, 8.0):
            for df in (1, 4, 11, 60, 246):
                assert two_sided_p(t, df) == pytest.approx(oracle_two_sided_p(t, df), abs=2e-8)

    def test_cauchy_closed_form(self):
        # df=1 is the Cauchy distribution: P(|T| > t) = 1 - 2 atan(|t|)/pi
        for t in (-50.0, -3.0, -0.5, 0.8, 4.0, 50.0):
            expected = 1.0 - 2.0 * math.atan(abs(t)) / math.pi
            assert two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_monotone(self):
        # The tail falls as |t| grows.
        values = [two_sided_p(t / 4.0, 7) for t in range(41)]
        assert values == sorted(values, reverse=True)

    def test_infinite_t(self):
        # df / (df + t * t) is 0.0, where the incomplete beta is 0.0.
        for df in (1, 2, 5, 30.5, 246):
            assert two_sided_p(math.inf, df) == two_sided_p(-math.inf, df) == 0.0

    def test_non_positive_df_is_a_data_error(self):
        for df in (0, -1.5):
            with pytest.raises(DataError, match="shape parameters must be positive"):
                two_sided_p(1.0, df)


class TestTTest:
    def test_reference_value(self):
        result = t_test_unpaired([1, 2, 3], [4, 5, 6])
        assert result.t_statistic == pytest.approx(-3.6742346141747673, abs=1e-10)
        assert result.degrees_of_freedom == 4
        assert result.p_value == pytest.approx(0.02131, abs=1e-4)
        assert result.variant == "student_pooled"

    def test_identical_samples(self):
        result = t_test_unpaired([0.3, 0.5, 0.9], [0.3, 0.5, 0.9])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0

    def test_degenerate_equal(self):
        result = t_test_unpaired([0, 0], [0, 0])
        assert result.t_statistic == 0.0 and result.p_value == 1.0
        assert not result.degenerate

    def test_degenerate_unequal(self):
        result = t_test_unpaired([1, 1], [0, 0])
        assert result.p_value == 0.0
        assert result.degenerate

    @pytest.mark.parametrize(
        "a, b, t",
        [
            ([0.1] * 3, [0.2] * 3, -math.inf),
            ([0.7] * 7, [0.1] * 3, math.inf),
            ([0.1] * 3, [0.1] * 4, 0.0),
        ],
    )
    def test_constant_samples_are_judged_by_their_values(self, a, b, t):
        """The rounded mean of three 0.1s is not 0.1, so a variance around it
        is not 0; the samples are constant all the same."""
        result = t_test_unpaired(a, b)
        assert result.t_statistic == t and result.degenerate == math.isinf(t)
        assert result.p_value == (0.0 if math.isinf(t) else 1.0)

    def test_undersized_sample(self):
        with pytest.raises(DataError):
            t_test_unpaired([1], [2, 3])

    def test_unknown_variant(self):
        with pytest.raises(UsageError):
            t_test_unpaired([1, 2], [3, 4], "bogus")

    def test_pooled_matches_textbook_oracle(self):
        a = [0.12, 0.5, 0.31, 0.44]
        b = [0.2, 0.6, 0.55]
        t, df = oracle_pooled_t(a, b)
        result = t_test_unpaired(a, b)
        assert result.t_statistic == pytest.approx(t, abs=1e-12)
        assert result.degrees_of_freedom == df
        assert result.p_value == pytest.approx(oracle_two_sided_p(t, df), abs=1e-8)

    def test_welch_degrees_of_freedom(self):
        result = t_test_unpaired([1, 2, 3, 9], [4, 5, 6], "welch")
        # Welch-Satterthwaite by hand: var_a=12.9167/4, var_b=1/3
        term_a, term_b = 12.916666666666666 / 4, 1.0 / 3
        expected_df = (term_a + term_b) ** 2 / (term_a**2 / 3 + term_b**2 / 2)
        assert result.degrees_of_freedom == pytest.approx(expected_df, abs=1e-9)

    @given(samples, samples)
    def test_swap_negates_t_preserves_p(self, a, b):
        first = t_test_unpaired(a, b)
        second = t_test_unpaired(b, a)
        assert second.t_statistic == -first.t_statistic
        assert second.p_value == first.p_value

    @given(samples, samples, st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, a, b, shift):
        base = t_test_unpaired(a, b)
        shifted = t_test_unpaired([x + shift for x in a], [x + shift for x in b])
        assert shifted.p_value == pytest.approx(base.p_value, abs=1e-9)

    @given(samples, samples, st.floats(0.01, 50, allow_nan=False))
    def test_scale_invariance(self, a, b, scale):
        base = t_test_unpaired(a, b)
        scaled = t_test_unpaired([x * scale for x in a], [x * scale for x in b])
        assert scaled.t_statistic == pytest.approx(base.t_statistic, abs=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-9)

    def test_monotone_in_mean_separation(self):
        a = [0.1, 0.2, 0.3, 0.4]
        b = [0.15, 0.25, 0.35, 0.45]
        previous = 1.1
        for shift in (0.0, 0.1, 0.3, 0.9, 2.0):
            p = t_test_unpaired(a, [x + shift for x in b]).p_value
            assert p <= previous + 1e-12
            previous = p

    def test_p_matches_quadrature_oracle(self):
        result = t_test_unpaired([0.4, 0.1, 0.9, 0.3], [0.2, 0.8, 0.5])
        assert result.p_value == pytest.approx(
            oracle_two_sided_p(result.t_statistic, result.degrees_of_freedom), abs=1e-8
        )
        assert two_sided_p(result.t_statistic, result.degrees_of_freedom) == result.p_value


class TestScipyOracle:
    """scipy is a test-only oracle; the package itself never imports it."""

    @pytest.mark.parametrize("variant, equal_var", [("student_pooled", True), ("welch", False)])
    def test_matches_ttest_ind(self, variant, equal_var):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(20200725)
        for _ in range(300):
            a = [rng.random() for _ in range(rng.randint(2, 40))]
            b = [rng.random() * rng.choice([0.5, 1.0, 2.0]) for _ in range(rng.randint(2, 40))]
            ours = t_test_unpaired(a, b, variant)
            reference = scipy_stats.ttest_ind(a, b, equal_var=equal_var)
            assert ours.t_statistic == pytest.approx(float(reference.statistic), rel=1e-9, abs=1e-12)
            assert abs(ours.p_value - float(reference.pvalue)) <= 1e-10

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="FOUND line on two_sided_p in CHANGES.md: for |t| near 0 the symmetric branch "
        "of regularized_incomplete_beta recomputes 1 - x from x = df / (df + t^2), which cancels",
    )
    def test_two_sided_p_matches_sf_at_large_df(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        ts = [10.0 ** (k / 4) for k in range(-28, 6)]  # |t| from 1e-7 to about 18
        for df in (400.0, 1000.0, 2000.0, 2999.5, 4000.0):
            for t in ts:
                reference = 2.0 * float(scipy_stats.t.sf(t, df))
                assert abs(two_sided_p(t, df) - reference) <= 1e-10, (t, df)
