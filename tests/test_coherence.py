import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj import (
    gram,
    mutual_coherence,
    normalize_columns,
    offdiag_histogram,
    t_average_coherence,
)
from incoproj.coherence import _upper_flat, offdiag_magnitudes, relative_threshold, trace_coherence
from incoproj.errors import EmptyAverage


def unit_pair(angle):
    """Two unit columns in the plane with a prescribed inner product."""
    return np.array([[1.0, np.cos(angle)], [0.0, np.sin(angle)]])


class TestMutualCoherence:
    def test_known_pair(self):
        D = unit_pair(np.pi / 3)  # inner product 0.5
        mu, pair = mutual_coherence(gram(D))
        assert_allclose(mu, 0.5, atol=1e-15)
        assert pair == (0, 1)

    def test_orthonormal_is_zero(self):
        mu, _ = mutual_coherence(gram(np.eye(5)))
        assert mu == 0.0

    def test_bounded_by_one(self):
        for seed in range(10):
            D = normalize_columns(np.random.default_rng(seed).standard_normal((6, 14)))
            mu, _ = mutual_coherence(gram(D))
            assert 0.0 <= mu <= 1.0

    def test_argmax_pair_is_lexicographic_on_ties(self):
        # three copies of the same direction: pairs (0,1),(0,2),(1,2) all tie
        v = np.array([[1.0], [0.0]])
        D = np.hstack([v, v, v])
        _, pair = mutual_coherence(gram(D))
        assert pair == (0, 1)

    def test_single_column_rejected(self):
        with pytest.raises(ValueError, match="^mutual coherence needs at least two columns$") as exc:
            mutual_coherence(gram(np.ones((3, 1))))
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("statistic", [mutual_coherence, lambda G: t_average_coherence(G, 0.0),
                                           lambda G: offdiag_histogram(G, 4)])
    def test_non_square_gram_rejected(self, statistic):
        for shape in [(3, 5), (5, 3)]:
            with pytest.raises(ValueError, match=rf"^gram must be square, got shape \({shape[0]}, {shape[1]}\)$"):
                statistic(np.full(shape, 0.1))


class TestUpperTriangle:
    @pytest.mark.parametrize("k", [2, 3, 20, 400])
    def test_cached_flat_indices_are_triu_indices(self, k):
        flat = _upper_flat(k)
        assert np.array_equal(np.divmod(flat, k), np.triu_indices(k, 1))
        assert not flat.flags.writeable
        assert _upper_flat(k) is flat

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_magnitudes_are_the_fancy_index_gather_bit_for_bit(self, order):
        G = np.asarray(np.random.default_rng(8).standard_normal((20, 20)), order=order)
        assert offdiag_magnitudes(G).tobytes() == np.abs(G[np.triu_indices(20, 1)]).tobytes()


class TestTAverage:
    def test_strictly_above_threshold(self):
        # Gram offdiag magnitudes: 0.5 and 0.2 and 0.1
        D = np.array(
            [
                [1.0, 0.5, 0.2],
                [0.0, np.sqrt(1 - 0.25), (0.1 - 0.5 * 0.2) / np.sqrt(0.75)],
            ]
        )
        D = np.vstack([D, np.zeros((1, 3))])
        D[2, 2] = np.sqrt(max(0.0, 1 - D[0, 2] ** 2 - D[1, 2] ** 2))
        G = gram(D)
        mags = offdiag_magnitudes(G)
        t = 0.15
        expected = mags[mags > t].mean()
        assert_allclose(t_average_coherence(G, t), expected, atol=1e-14)

    def test_empty_average_raises(self):
        with pytest.raises(EmptyAverage):
            t_average_coherence(gram(np.eye(4)), 0.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
            t_average_coherence(gram(np.eye(4)), -0.1)

    def test_t_zero_averages_everything_nonzero(self):
        D = normalize_columns(np.random.default_rng(3).standard_normal((5, 9)))
        G = gram(D)
        mags = offdiag_magnitudes(G)
        assert_allclose(t_average_coherence(G, 0.0), mags[mags > 0].mean(), atol=1e-14)

    def test_mu_t_at_most_mu(self):
        for seed in range(20):
            D = normalize_columns(np.random.default_rng(seed).standard_normal((7, 15)))
            G = gram(D)
            mu, _ = mutual_coherence(G)
            for t in (0.0, 0.1, 0.3):
                try:
                    mt = t_average_coherence(G, t)
                except EmptyAverage:
                    continue
                assert mt <= mu + 1e-14

    def test_monotone_in_t(self):
        """mu_t is non-decreasing in t wherever it is defined."""
        for seed in range(10):
            D = normalize_columns(np.random.default_rng(100 + seed).standard_normal((6, 12)))
            G = gram(D)
            vals = []
            for t in np.linspace(0.0, 0.6, 13):
                try:
                    vals.append(t_average_coherence(G, t))
                except EmptyAverage:
                    break
            assert np.all(np.diff(vals) >= -1e-14)


def gram_with_offdiags(vals):
    """Symmetric unit-diagonal matrix whose upper triangle is `vals` (row-major)."""
    M = len(vals)
    k = int((1 + np.sqrt(1 + 8 * M)) / 2)
    G = np.eye(k)
    iu = np.triu_indices(k, 1)
    G[iu] = vals
    G[(iu[1], iu[0])] = vals
    return G


class TestRelativeThreshold:
    def test_order_statistic_hand_example(self):
        # magnitudes {0.9, 0.5, 0.1}: asking for 33.4% of 3 pairs means
        # ceil(1.002) = 2 strictly above, so the threshold is 0.1
        mags = offdiag_magnitudes(gram_with_offdiags([0.9, 0.5, 0.1]))
        t = relative_threshold(mags, 33.4)
        assert_allclose(t, 0.1, atol=0)
        assert int(np.sum(mags > t)) == 2

    def test_tie_degeneracy_flagged(self):
        mags = offdiag_magnitudes(gram_with_offdiags([0.7, 0.7, 0.7]))
        t = relative_threshold(mags, 50.0)
        # order statistic lands inside a tie run: nothing lies strictly
        # above it, although the target count is 2
        assert t == 0.7
        assert not np.any(mags > t)

    def test_count_above_matches_request(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            D = normalize_columns(rng.standard_normal((6, 11)))
            G = gram(D)
            mags = offdiag_magnitudes(G)
            pct = float(rng.uniform(5, 95))
            t = relative_threshold(mags, pct)
            want = int(np.ceil(pct / 100.0 * mags.size))
            got = int(np.sum(mags > t))
            tied = np.sum(mags == t) > 1
            if not tied and want < mags.size:
                assert got == want

    def test_rank_off_the_end_gives_the_smallest_magnitude(self):
        mags = offdiag_magnitudes(gram_with_offdiags([0.9, 0.5, 0.1]))
        t = relative_threshold(mags, 99.9)  # ceil(2.997) = 3 = population
        assert t == 0.1

    def test_all_zero_magnitudes_give_a_positive_floor(self):
        mags = offdiag_magnitudes(np.eye(3))
        assert relative_threshold(mags, 50.0) == 1e-12


class TestHistogramAndReport:
    def test_counts_sum_to_pair_count(self):
        for seed in range(5):
            D = normalize_columns(np.random.default_rng(seed).standard_normal((6, 10)))
            hist = offdiag_histogram(gram(D), bins=13)
            assert sum(c for _, c in hist) == 10 * 9 // 2
            lowers = np.array([lo for lo, _ in hist])
            assert_allclose(lowers, np.linspace(0, 1, 14)[:-1], atol=1e-14)

    def test_offdiag_count(self):
        D = normalize_columns(np.random.default_rng(1).standard_normal((4, 7)))
        assert offdiag_magnitudes(gram(D)).size == 7 * 6 // 2

    def test_report_fields(self):
        # what `incoproj design` reports, all read off one Gram
        D = normalize_columns(np.random.default_rng(2).standard_normal((5, 8)))
        G = gram(D)
        mu, (i, j) = mutual_coherence(G)
        assert 0.0 <= mu <= 1.0
        assert 0.2 < t_average_coherence(G, 0.2) <= mu
        assert len(offdiag_histogram(G, bins=10)) == 10
        assert 0 <= i < j < 8

    def test_report_absent_mu_t(self):
        G = gram(np.eye(6))
        with pytest.raises(EmptyAverage):  # printed as mu_t[0.5]=n/a
            t_average_coherence(G, 0.5)
        assert offdiag_histogram(G, bins=4)[0] == (0.0, 6 * 5 // 2)

    def test_trace_row_matches_the_statistics(self):
        G = gram(np.random.default_rng(4).standard_normal((5, 9)))
        mags = offdiag_magnitudes(G)
        mu, mu_t = trace_coherence(mags, 0.3)
        assert mu == mutual_coherence(G)[0]
        assert mu_t == t_average_coherence(G, 0.3)
        assert np.isnan(trace_coherence(mags, mu)[1])
