import math
import random

import numpy as np
import pytest

from gtl.errors import DegenerateInput, DomainError, EmptyInput, ZeroVariance
from gtl.stats import (
    anova_oneway,
    boxplot_summary,
    _t_two_sided_p,
    cdf_f,
    regularized_incomplete_beta,
    ttest_two_sample,
)


# --- independent oracles ------------------------------------------------------

def _adaptive_simpson(f, a, b, tol, depth=60):
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, d):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, fl, f1, left, eps / 2.0, d - 1)
                + recurse(xm, x2, f1, fr, f2, right, eps / 2.0, d - 1))

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def ibeta_quadrature(x, a, b, tol=1e-11):
    """I_x(a,b) by adaptive Simpson quadrature.

    Substitutions t = u^2 near 0 and 1 - t = v^2 near 1 remove the
    integrable endpoint singularities for a, b >= 0.5. The 1/B(a,b)
    normalization is folded into the integrand so the quadrature
    tolerance applies to the regularized value itself.
    """
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density_sub_left(u):  # t = u^2, weight 2u du, normalized
        if u == 0.0:
            return 0.0 if a > 0.5 else 2.0 * math.exp(-ln_b)
        ln_f = (math.log(2.0) + (2.0 * a - 1.0) * math.log(u)
                + (b - 1.0) * math.log1p(-u * u) - ln_b)
        return math.exp(ln_f)

    def density_sub_right(v):  # 1 - t = v^2
        if v == 0.0:
            return 0.0 if b > 0.5 else 2.0 * math.exp(-ln_b)
        ln_f = (math.log(2.0) + (2.0 * b - 1.0) * math.log(v)
                + (a - 1.0) * math.log1p(-v * v) - ln_b)
        return math.exp(ln_f)

    if x <= 0.5:
        return _adaptive_simpson(density_sub_left, 0.0, math.sqrt(x), tol)
    upper_tail = _adaptive_simpson(density_sub_right, 0.0,
                                   math.sqrt(1.0 - x), tol)
    return 1.0 - upper_tail


def anova_brute_force(groups):
    """Sums of squares straight from the definitions, via numpy."""
    all_values = np.concatenate([np.asarray(g, float) for g in groups])
    grand = all_values.mean()
    ssb = sum(len(g) * (np.mean(g) - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((np.asarray(g) - np.mean(g)) ** 2)) for g in groups)
    df_b = len(groups) - 1
    df_w = len(all_values) - len(groups)
    return (ssb / df_b) / (ssw / df_w), (df_b, df_w)


def ttest_brute_force(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    df = len(a) + len(b) - 2
    pooled = ((len(a) - 1) * a.var(ddof=1) + (len(b) - 1) * b.var(ddof=1)) / df
    return (a.mean() - b.mean()) / math.sqrt(pooled * (1 / len(a) + 1 / len(b))), df


# --- incomplete beta -----------------------------------------------------------

class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.5, 3.5) == 0.0
        assert regularized_incomplete_beta(1.0, 2.5, 3.5) == 1.0

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.9])
    def test_uniform_case(self, x):
        assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(
            x, abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
    def test_symmetry_at_half(self, a):
        assert regularized_incomplete_beta(0.5, a, a) == pytest.approx(
            0.5, abs=1e-12)

    @pytest.mark.parametrize("a,b", [
        (0.5, 0.5), (0.5, 4.0), (1.5, 2.0), (2.0, 3.0),
        (5.0, 1.5), (7.5, 7.5), (74.0, 0.5), (149.0, 0.5), (1.0, 6.0),
    ])
    @pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_against_quadrature_oracle(self, a, b, x):
        got = regularized_incomplete_beta(x, a, b)
        ref = ibeta_quadrature(x, a, b)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)

    def test_cdf_monotone_on_grids(self):
        for df in (1.0, 2.0, 12.0, 298.0):
            # the two-sided p of t falls as |t| grows
            values = [_t_two_sided_p(t, df)
                      for t in sorted(np.linspace(-8, 8, 161), key=abs)]
            assert all(x1 >= x2 - 1e-15 for x1, x2 in zip(values, values[1:]))
        for d1, d2 in ((2.0, 12.0), (1.0, 5.0), (10.0, 10.0)):
            values = [cdf_f(f, d1, d2) for f in np.linspace(0, 20, 161)]
            assert all(x1 <= x2 + 1e-15 for x1, x2 in zip(values, values[1:]))


# --- boxplot -------------------------------------------------------------------

class TestBoxplot:
    def test_worked_example(self):
        b = boxplot_summary([1, 2, 3, 4, 100])
        assert b.median == 3
        assert b.mean == 22
        assert b.q1 == 2
        assert b.q3 == 4
        assert b.outliers == (100,)
        assert b.whisker_low == 1
        assert b.whisker_high == 4

    def test_single_value(self):
        b = boxplot_summary([7])
        assert (b.n, b.mean, b.median, b.q1, b.q3) == (1, 7, 7, 7, 7)
        assert (b.whisker_low, b.whisker_high) == (7, 7)
        assert b.outliers == ()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            boxplot_summary([])

    def test_quartiles_match_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            data = rng.standard_normal(int(rng.integers(1, 40))).tolist()
            b = boxplot_summary(data)
            s = sorted(data)
            for q, p in ((b.q1, 0.25), (b.median, 0.5), (b.q3, 0.75)):
                h = p * (len(s) - 1)
                lo = math.floor(h)
                want = (s[lo] if lo == len(s) - 1
                        else s[lo] + (h - lo) * (s[lo + 1] - s[lo]))
                assert q == pytest.approx(want, abs=1e-12)

    def test_whiskers_clamped_to_data_inside_fences(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            data = rng.standard_normal(25).tolist()
            b = boxplot_summary(data)
            iqr = b.q3 - b.q1
            assert b.whisker_low >= b.q1 - 1.5 * iqr
            assert b.whisker_high <= b.q3 + 1.5 * iqr
            assert b.whisker_low in data
            assert b.whisker_high in data
            for v in b.outliers:
                assert v < b.q1 - 1.5 * iqr or v > b.q3 + 1.5 * iqr


# --- anova ---------------------------------------------------------------------

class TestAnova:
    def test_identical_groups(self):
        r = anova_oneway([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert r.statistic == 0.0
        assert r.p == pytest.approx(1.0)

    def test_hand_computed_example(self):
        # SSB = 2*((1.5-3.5)^2 + 0 + (5.5-3.5)^2) = 16, MSB = 8
        # SSW = 3 * 0.5 = 1.5, MSW = 0.5  ->  F = 16 with df (2, 3)
        r = anova_oneway([[1, 2], [3, 4], [5, 6]])
        assert r.statistic == pytest.approx(16.0, rel=1e-12)
        assert r.df == (2.0, 3.0)
        want_p = 1.0 - ibeta_quadrature(2.0 * 16.0 / (2.0 * 16.0 + 3.0), 1.0, 1.5)
        assert r.p == pytest.approx(want_p, abs=1e-6)

    def test_df_structure_three_by_five(self):
        rng = np.random.default_rng(14)
        groups = [rng.standard_normal(5).tolist() for _ in range(3)]
        r = anova_oneway(groups)
        assert r.df == (2.0, 12.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            groups = [rng.standard_normal(int(rng.integers(2, 10))).tolist()
                      for _ in range(int(rng.integers(2, 5)))]
            r = anova_oneway(groups)
            f_ref, df_ref = anova_brute_force(groups)
            assert r.statistic == pytest.approx(f_ref, rel=1e-9)
            assert r.df == (float(df_ref[0]), float(df_ref[1]))

    def test_shift_invariance_and_scale_invariance(self):
        rng = np.random.default_rng(16)
        groups = [rng.standard_normal(6).tolist() for _ in range(3)]
        base = anova_oneway(groups).statistic
        shifted = anova_oneway([[x + 11.25 for x in g] for g in groups]).statistic
        scaled = anova_oneway([[x * -2.5 for x in g] for g in groups]).statistic
        assert shifted == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_f_equals_t_squared_for_two_groups(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.standard_normal(8).tolist()
            b = rng.standard_normal(8).tolist()
            f = anova_oneway([a, b])
            t = ttest_two_sample(a, b)
            assert f.statistic == pytest.approx(t.statistic ** 2, rel=1e-9)
            assert f.p == pytest.approx(t.p, rel=1e-9)

    def test_zero_within_variance_raises(self):
        # constant groups leave F undefined even when their means differ
        with pytest.raises(DegenerateInput, match="every group constant"):
            anova_oneway([[1.0, 1.0], [2.0, 2.0]])

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateInput):
            anova_oneway([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateInput):
            anova_oneway([[1.0, 2.0]])
        with pytest.raises(DegenerateInput):
            anova_oneway([[1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("groups", [
        [[1e308, -1e308], [3.0, 4.0]],
        [[1e308, 1e308], [-1e308, -1e308]],
        [[1e160, 0.0], [0.0, 1.0]],
        [[1e150, 1e150], [0.0, 1e-160]],
    ], ids=["squares", "means", "between-groups", "F"])
    def test_overflow_is_degenerate(self, groups):
        with pytest.raises(DegenerateInput, match="float range"):
            anova_oneway(groups)

    def test_p_in_unit_interval_fuzz(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            groups = [
                (rng.standard_normal(int(rng.integers(2, 8)))
                 * rng.uniform(0.1, 10) + rng.uniform(-5, 5)).tolist()
                for _ in range(int(rng.integers(2, 5)))]
            r = anova_oneway(groups)
            assert 0.0 <= r.p <= 1.0


# --- t-test --------------------------------------------------------------------

class TestTtest:
    def test_equal_samples(self):
        a = [1.0, 2.0, 3.0]
        r = ttest_two_sample(a, list(a))
        assert r.statistic == 0.0
        assert r.p == pytest.approx(1.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.standard_normal(6).tolist()
            b = rng.standard_normal(9).tolist()
            fwd = ttest_two_sample(a, b)
            rev = ttest_two_sample(b, a)
            assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
            assert fwd.p == rev.p

    def test_df_for_two_groups_of_150(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal(150).tolist()
        b = rng.standard_normal(150).tolist()
        r = ttest_two_sample(a, b)
        assert r.df == (298.0,)
        assert r.n_per_group == (150, 150)

    def test_statistic_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal(int(rng.integers(2, 20))).tolist()
            b = rng.standard_normal(int(rng.integers(2, 20))).tolist()
            r = ttest_two_sample(a, b)
            t_ref, df_ref = ttest_brute_force(a, b)
            assert r.statistic == pytest.approx(t_ref, rel=1e-9)
            assert r.df == (float(df_ref),)

    def test_p_matches_quadrature_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.standard_normal(10).tolist()
            b = (rng.standard_normal(12) + rng.uniform(-1, 1)).tolist()
            r = ttest_two_sample(a, b)
            df = r.df[0]
            ref = ibeta_quadrature(df / (df + r.statistic ** 2), df / 2, 0.5)
            assert r.p == pytest.approx(ref, abs=1e-6)

    def test_welch_degrees_of_freedom(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [10.0, 30.0]
        r = ttest_two_sample(a, b, variant="welch")
        sa = np.var(a, ddof=1) / len(a)
        sb = np.var(b, ddof=1) / len(b)
        want_df = (sa + sb) ** 2 / (sa ** 2 / 3 + sb ** 2 / 1)
        assert r.df[0] == pytest.approx(want_df, rel=1e-12)

    def test_constant_samples(self):
        # constant samples leave t undefined even when their means differ
        for variant in ("student", "welch"):
            with pytest.raises(ZeroVariance, match="constant and equal"):
                ttest_two_sample([2.0, 2.0], [2.0, 2.0], variant)
            for a, b in (([3.0, 3.0], [2.0, 2.0]), ([1.0, 1.0], [2.0, 2.0])):
                with pytest.raises(ZeroVariance,
                                   match="both samples constant: t"):
                    ttest_two_sample(a, b, variant)

    def test_too_small_samples(self):
        with pytest.raises(DegenerateInput):
            ttest_two_sample([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("variant", ["student", "welch"])
    @pytest.mark.parametrize("a,b", [
        ([1e308, -1e308], [3.0, 4.0]),
        ([1e308, 1e308], [-1e308, -1e308]),
        ([0.0, 1.4e154], [0.0, 1.4e154]),
        ([1e300, 1e300], [0.0, 1e-160]),
    ], ids=["squares", "means", "pooled", "t"])
    def test_overflow_is_degenerate(self, a, b, variant):
        with pytest.raises(DegenerateInput, match="float range"):
            ttest_two_sample(a, b, variant)

    @pytest.mark.parametrize("sample", [[0.0, 1e100], [0.0, 1e-160]],
                             ids=["over", "under"])
    def test_welch_df_out_of_float_range_is_degenerate(self, sample):
        with pytest.raises(DegenerateInput, match="float range"):
            ttest_two_sample(sample, sample, "welch")

    def test_p_in_unit_interval_fuzz(self):
        rng = np.random.default_rng(23)
        rnd = random.Random(23)
        for _ in range(200):
            a = (rng.standard_normal(int(rng.integers(2, 30)))
                 * rnd.uniform(0.01, 100)).tolist()
            b = (rng.standard_normal(int(rng.integers(2, 30)))
                 + rnd.uniform(-10, 10)).tolist()
            variant = rnd.choice(["student", "welch"])
            r = ttest_two_sample(a, b, variant)
            assert 0.0 <= r.p <= 1.0
