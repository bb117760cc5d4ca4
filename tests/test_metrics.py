"""Simulability, plausibility AUC, median/IQR aggregation, skill ratings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from smat.metrics import (
    DRAW_MARGIN,
    DRAW_PROBABILITY,
    Aggregate,
    SkillRating,
    aggregate_median_iqr,
    corpus_auc,
    format_rank,
    fresh_ratings,
    plausibility_auc,
    rank_with_confidence,
    simulability_accuracy,
    simulability_pearson,
    trueskill_update,
)
from smat.metrics import SKILL_BETA, _update_pair, _v_draw, _v_win, _w_draw, _w_win


def test_accuracy_cases():
    assert simulability_accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert simulability_accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
    # constant student against a balanced teacher
    assert simulability_accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5
    with pytest.raises(ValueError):
        simulability_accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        simulability_accuracy([], [])


def test_pearson_cases():
    assert simulability_pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert simulability_pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)
    assert simulability_pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)


def test_pearson_rejects_zero_variance():
    with pytest.raises(ValueError):
        simulability_pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        simulability_pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_auc_cases():
    assert plausibility_auc([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0]) == 1.0
    assert plausibility_auc([0.1, 0.9], [1, 0]) == 0.0
    assert plausibility_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5  # ties count half


def test_auc_rejects_degenerate_masks():
    with pytest.raises(ValueError):
        plausibility_auc([0.5, 0.5], [1, 1])
    with pytest.raises(ValueError):
        plausibility_auc([0.5, 0.5], [0, 0])


def test_auc_rejects_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        plausibility_auc([0.5, float("nan"), 0.2], [1, 0, 0])


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        scores = rng.normal(size=n)
        mask = rng.integers(0, 2, size=n)
        if mask.min() == mask.max():
            mask[0] = 1 - mask[0]
        a = plausibility_auc(scores.tolist(), mask.tolist())
        b = plausibility_auc(np.exp(2.0 * scores).tolist(), mask.tolist())
        assert a == pytest.approx(b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_auc_is_the_pairwise_count_of_wins_and_half_ties(dtype):
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        levels = rng.normal(size=int(rng.integers(1, 6))).astype(dtype)
        scores = levels[rng.integers(0, levels.size, size=n)]
        mask = rng.integers(0, 2, size=n)
        mask[:2] = [0, 1]
        pos, neg = scores[mask == 1], scores[mask == 0]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        oracle = Fraction(2 * wins + ties, 2 * pos.size * neg.size)
        assert plausibility_auc(scores, mask) == float(oracle)


def test_corpus_auc_skips_degenerate_examples():
    pairs = [
        ([0.9, 0.1], [1, 0]),
        ([0.4, 0.6], [1, 1]),  # no negatives: skipped
        ([0.2, 0.8], [0, 1]),
    ]
    mean, used, skipped = corpus_auc(pairs)
    assert used == 2 and skipped == 1
    assert mean == pytest.approx(1.0)
    with pytest.raises(ValueError):
        corpus_auc([([0.5], [1])])  # nothing usable at all


def test_median_iqr_cases():
    agg = aggregate_median_iqr([1, 2, 3, 4, 5])
    assert (agg.median, agg.iqr_low, agg.iqr_high) == (3.0, 2.0, 4.0)
    agg = aggregate_median_iqr([7])
    assert (agg.median, agg.iqr_low, agg.iqr_high) == (7.0, 7.0, 7.0)
    agg = aggregate_median_iqr([1, 2, 3, 4])
    assert agg.median == 2.0  # lower of the two middle values
    assert (agg.iqr_low, agg.iqr_high) == (1.0, 3.0)  # by the median's rule
    with pytest.raises(ValueError):
        aggregate_median_iqr([])


@pytest.mark.parametrize("n", range(1, 9))
def test_median_iqr_bounds_come_by_the_medians_rule(n):
    values = np.random.default_rng(n).normal(size=n).tolist()
    ranked = sorted(values)
    agg = aggregate_median_iqr(values)
    assert agg.median == ranked[(n - 1) // 2]  # the lower middle value
    assert agg.iqr_low <= agg.median <= agg.iqr_high
    # the k-th of n values at or below a share p first reaches p at k = ceil(p * n)
    assert agg.iqr_low == ranked[math.ceil(0.25 * n) - 1]
    assert agg.iqr_high == ranked[math.ceil(0.75 * n) - 1]
    if n % 4 == 1:  # 4k + 1 values: the interpolated quartiles are values too
        assert (agg.iqr_low, agg.iqr_high) == tuple(np.percentile(values, [25, 75]))


def test_median_is_order_independent():
    agg = aggregate_median_iqr([4, 1, 3, 5, 2])
    assert agg.median == 3.0


# ---------------------------------------------------------------------------
# skill ratings


def test_default_prior():
    r = SkillRating()
    assert r.mu == 0.0 and r.sigma == 0.5
    lo, hi = r.interval()
    assert lo == pytest.approx(-0.98)
    assert hi == pytest.approx(0.98)


def test_single_match_symmetry():
    ratings = fresh_ratings(["a", "b"])
    updated = trueskill_update(ratings, ["a", "b"])
    assert updated["a"].mu > 0 > updated["b"].mu
    assert updated["a"].mu == pytest.approx(-updated["b"].mu)
    assert updated["a"].sigma == updated["b"].sigma
    assert updated["a"].sigma < 0.5  # observing a result reduces uncertainty


def test_draw_between_equals_changes_nothing_in_mu():
    ratings = fresh_ratings(["a", "b"])
    updated = trueskill_update(ratings, [["a", "b"]])  # one tie group
    assert updated["a"].mu == pytest.approx(0.0, abs=1e-12)
    assert updated["b"].mu == pytest.approx(0.0, abs=1e-12)
    assert updated["a"].mu == updated["b"].mu


def test_sigma_never_increases():
    ratings = fresh_ratings(["a", "b", "c"])
    rankings = [["a", "b", "c"], ["c", "a", "b"], [["a", "c"], "b"]]
    current = ratings
    for ranking in rankings:
        nxt = trueskill_update(current, ranking)
        for name in current:
            assert nxt[name].sigma <= current[name].sigma + 1e-12
        current = nxt


def test_repeated_wins_are_monotone_in_mu():
    ratings = fresh_ratings(["a", "b"])
    last = 0.0
    for _ in range(10):
        ratings = trueskill_update(ratings, ["a", "b"])
        assert ratings["a"].mu >= last - 1e-12
        last = ratings["a"].mu
    assert ratings["a"].mu > 0.5


def test_update_rejects_unknown_and_repeated_names():
    ratings = fresh_ratings(["a", "b"])
    with pytest.raises(KeyError):
        trueskill_update(ratings, ["a", "z"])
    with pytest.raises(ValueError):
        trueskill_update(ratings, ["a", "a"])


def test_update_does_not_mutate_input():
    ratings = fresh_ratings(["a", "b"])
    trueskill_update(ratings, ["a", "b"])
    assert ratings["a"].mu == 0.0 and ratings["a"].sigma == 0.5


def test_draw_margin_positive():
    assert DRAW_PROBABILITY == pytest.approx(0.10)
    assert DRAW_MARGIN > 0


# Quadrature oracles for the two-player update (Herbrich, Minka & Graepel 2006).
# They check the v and w corrections and one pair update against integrals of
# the exact densities. trueskill_update's adjacent-pair decomposition of a
# multi-way ranking is a modelling choice, and has no such oracle.


def _normal_cdf(x):
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-np.asarray(x) / math.sqrt(2.0)).astype(float)


def _truncated_normal_moments(lo, hi):
    """Mean and variance of a standard normal truncated to (lo, hi), by the
    trapezoid rule on a 1e-4 grid."""
    z = np.linspace(lo, hi, int(round((hi - lo) / 1e-4)) + 1)
    density = np.exp(-0.5 * z * z)
    mass = np.trapezoid(density, z)
    mean = np.trapezoid(z * density, z) / mass
    return mean, np.trapezoid((z - mean) ** 2 * density, z) / mass


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_v_and_w_are_the_moments_of_a_truncated_normal(eps):
    """A win truncates the performance gap's standard normal to (eps - t, inf)
    and a draw to (-eps - t, eps - t); v is the truncated mean, w one minus
    the truncated variance."""
    for t in np.linspace(-12.0, 12.0, 97):
        mean, var = _truncated_normal_moments(eps - t, max(eps - t, 0.0) + 12.0)
        assert abs(_v_win(t, eps) - mean) < 1e-7 and abs(_w_win(t, eps) - (1 - var)) < 1e-7, t
        mean, var = _truncated_normal_moments(-eps - t, eps - t)
        assert abs(_v_draw(t, eps) - mean) < 1e-7 and abs(_w_draw(t, eps) - (1 - var)) < 1e-7, t


@pytest.mark.parametrize("draw", [False, True])
@pytest.mark.parametrize("winner, loser", [
    (SkillRating(), SkillRating()),
    (SkillRating(0.3, 0.4), SkillRating(-0.2, 0.3)),
    (SkillRating(-0.5, 0.2), SkillRating(0.5, 0.6)),  # an upset
    (SkillRating(1.0, 0.1), SkillRating(0.0, 0.5)),
])
def test_a_pair_update_matches_the_moments_of_the_exact_posterior(winner, loser, draw):
    """Prior N(mu_w, sigma_w^2) x N(mu_l, sigma_l^2) times the likelihood of
    the outcome given d = s_w - s_l: Phi((d - eps) / (sqrt(2) beta)) for a win,
    Phi((eps - d) / (sqrt(2) beta)) - Phi((-eps - d) / (sqrt(2) beta)) for a
    draw. Its mean and standard deviation of each skill, on a 201 x 201 grid
    at +-8 sigma, are what the update returns; no clamp binds here."""
    grid = np.linspace(-8.0, 8.0, 201)
    sw, sl = np.meshgrid(winner.mu + winner.sigma * grid, loser.mu + loser.sigma * grid,
                         indexing="ij")
    d, scale = sw - sl, math.sqrt(2.0) * SKILL_BETA
    if draw:
        likelihood = _normal_cdf((DRAW_MARGIN - d) / scale) - _normal_cdf((-DRAW_MARGIN - d) / scale)
    else:
        likelihood = _normal_cdf((d - DRAW_MARGIN) / scale)
    posterior = np.exp(-0.5 * grid[:, None] ** 2 - 0.5 * grid[None, :] ** 2) * likelihood
    weights = np.ones(201)
    weights[[0, -1]] = 0.5  # the trapezoid rule on both axes
    posterior *= weights[:, None] * weights[None, :]
    posterior /= posterior.sum()
    new_winner, new_loser = _update_pair(winner, loser, draw=draw)
    for skill, rating in ((sw, new_winner), (sl, new_loser)):
        mean = float((posterior * skill).sum())
        sigma = math.sqrt(float((posterior * (skill - mean) ** 2).sum()))
        assert rating.mu == pytest.approx(mean, abs=1e-10)
        assert rating.sigma == pytest.approx(sigma, abs=1e-10)


# ---------------------------------------------------------------------------
# rank ranges from rating intervals


def test_disjoint_intervals_give_strict_ranks():
    ratings = {
        "x": SkillRating(mu=3.0, sigma=0.1),
        "y": SkillRating(mu=0.0, sigma=0.1),
        "z": SkillRating(mu=-3.0, sigma=0.1),
    }
    ranks = rank_with_confidence(ratings)
    assert ranks == {"x": (1, 1), "y": (2, 2), "z": (3, 3)}


def test_overlapping_intervals_share_ranks():
    ratings = {
        "x": SkillRating(mu=0.1, sigma=1.0),
        "y": SkillRating(mu=-0.1, sigma=1.0),
    }
    ranks = rank_with_confidence(ratings)
    assert ranks == {"x": (1, 2), "y": (1, 2)}


def test_published_style_rank_pattern():
    """Four methods at (-2.7, -2.1, 0.7, 4.3) with 1.96-sigma half-widths
    (.67, .67, .67, .70) resolve to ranks {3-4, 3-4, 2, 1}."""
    z = 1.96
    ratings = {
        "m1": SkillRating(mu=-2.7, sigma=0.67 / z),
        "m2": SkillRating(mu=-2.1, sigma=0.67 / z),
        "m3": SkillRating(mu=0.7, sigma=0.67 / z),
        "m4": SkillRating(mu=4.3, sigma=0.70 / z),
    }
    ranks = rank_with_confidence(ratings)
    assert ranks["m1"] == (3, 4)
    assert ranks["m2"] == (3, 4)
    assert ranks["m3"] == (2, 2)
    assert ranks["m4"] == (1, 1)
    assert format_rank(ranks["m1"]) == "3-4"
    assert format_rank(ranks["m4"]) == "1"


def test_tournament_recovers_latent_order():
    """Sequential updates over simulated rankings recover the latent strengths."""
    rng = np.random.default_rng(11)
    latent = {"a": 2.0, "b": 0.7, "c": -0.5, "d": -1.8}
    names = list(latent)
    correct = 0
    trials = 120
    for _ in range(trials):
        ratings = fresh_ratings(names)
        for _ in range(12):
            noisy = {n: latent[n] + rng.normal(scale=1.0) for n in names}
            ranking = sorted(names, key=lambda n: -noisy[n])
            ratings = trueskill_update(ratings, ranking)
        recovered = sorted(names, key=lambda n: -ratings[n].mu)
        if recovered == sorted(names, key=lambda n: -latent[n]):
            correct += 1
    assert correct / trials > 0.8


def test_aggregate_to_dict():
    agg = aggregate_median_iqr([1.0, 2.0, 3.0])
    d = agg.to_dict()
    assert d["median"] == 2.0
    assert d["iqr"] == [1.0, 3.0]
    assert d["values"] == [1.0, 2.0, 3.0]
