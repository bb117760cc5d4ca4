"""Evaluation metrics: simulability, plausibility, and skill ranking.

Simulability measures how often a student reproduces a teacher's
predictions (exact match for classification, Pearson correlation for
regression). Plausibility scores an explainer's saliency against gold
rationale masks with ROC-AUC. Multi-seed results are summarized by
median and interquartile range. Tournament-style comparisons across
methods use the two-player Gaussian skill update with conservative
confidence-interval ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from collections.abc import Mapping, Sequence

import numpy as np

_NORMAL = NormalDist()

# Two-player Gaussian skill model: performance noise (half the prior sigma),
# the share of draws, and the z of a rating's confidence interval.
SKILL_BETA = 0.25
DRAW_PROBABILITY = 0.10
INTERVAL_Z = 1.96
DRAW_MARGIN = _NORMAL.inv_cdf((DRAW_PROBABILITY + 1.0) / 2.0) * math.sqrt(2.0) * SKILL_BETA


# ---------------------------------------------------------------------------
# simulability


def simulability_accuracy(predictions: Sequence[int], targets: Sequence[int]) -> float:
    """Fraction of exact prediction matches."""
    if len(predictions) == 0 or len(predictions) != len(targets):
        raise ValueError("need equal, non-zero numbers of predictions and targets")
    hits = sum(1 for p, t in zip(predictions, targets) if int(p) == int(t))
    return hits / len(predictions)


def simulability_pearson(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Pearson correlation between predicted and target scores."""
    x = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("need equal, non-zero numbers of predictions and targets")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc**2).sum()))
    sy = float(np.sqrt((yc**2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("Pearson correlation undefined: a side has zero variance")
    return float((xc * yc).sum() / (sx * sy))


# ---------------------------------------------------------------------------
# plausibility


def plausibility_auc(scores: Sequence[float], mask: Sequence[int]) -> float:
    """ROC-AUC of saliency scores against a binary rationale mask.

    Computed by the rank-sum statistic; tied scores contribute 0.5.
    The mask must contain both classes. This is :func:`corpus_auc`'s
    per-example value for a corpus of one pair.
    """
    values, used = _pair_aucs([(scores, mask)])
    if not used[0]:
        raise ValueError("mask must contain both positive and negative positions")
    return float(values[0])


def corpus_auc(
    pairs: Sequence[tuple[Sequence[float], Sequence[int]]],
) -> tuple[float, int, int]:
    """Mean per-example AUC over a corpus.

    Examples whose mask is empty, all-positive or all-negative are skipped
    and counted. Every pair is checked, skipped or not: a mask entry other
    than 0 or 1, or scores and a mask of different lengths, raise naming
    the pair's position. Returns (mean AUC, used, skipped); raises if
    nothing is usable.
    """
    values, used = _pair_aucs(pairs)
    if not values.size:
        raise ValueError("no examples with two-class rationale masks")
    return float(np.mean(values)), int(values.size), int(used.size - values.size)


def _pair_aucs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The AUC of each pair with a two-class mask, in input order, and a
    boolean per pair saying which those are.

    One pass over the corpus: the used pairs' scores are NaN-padded into one
    (pairs, longest) matrix and sorted row by row, pads last. A tie run at
    sorted positions left .. right - 1 shares the mean 1-based rank
    (left + 1 + right) / 2, so a rank sum is an exact sum of halves in any
    order, and each value is (rank_sum - n_pos (n_pos + 1) / 2) / (n_pos n_neg).
    Memory is that of the padded matrix, whatever the lengths.
    """
    scores = [np.asarray(s, dtype=np.float64) for s, _ in pairs]
    masks = [np.asarray(m) for _, m in pairs]
    for i, (s, m) in enumerate(zip(scores, masks)):
        if m.dtype.kind not in "biuf":
            raise ValueError(f"pair {i}: mask entries must be 0 or 1")
        if s.ndim != 1 or s.shape != m.shape:
            raise ValueError(f"pair {i}: scores and mask must be equal-length non-empty vectors")
    lengths = np.array([m.size for m in masks], dtype=np.int64)
    if not lengths.sum():
        return np.zeros(0), np.zeros(lengths.size, dtype=bool)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat_mask = np.concatenate(masks)
    binary = (flat_mask == 0) | (flat_mask == 1)
    if not binary.all():
        pair = np.searchsorted(ends, np.argmin(binary), side="right")
        raise ValueError(f"pair {pair}: mask entries must be 0 or 1")
    positives = np.concatenate([[0], np.cumsum(flat_mask, dtype=np.int64)])
    n_pos = positives[ends] - positives[starts]
    used = (n_pos > 0) & (n_pos < lengths)
    if not used.any():
        return np.zeros(0), used
    pair_of = np.repeat(np.arange(lengths.size), lengths)
    keep = used[pair_of]
    flat_scores = np.concatenate(scores)[keep]
    nan = np.isnan(flat_scores)
    if nan.any():
        raise ValueError(f"pair {pair_of[keep][np.argmax(nan)]}: scores must not be NaN: "
                         "they have no rank")
    row = (np.cumsum(used) - 1)[pair_of[keep]]
    col = (np.arange(ends[-1]) - np.repeat(starts, lengths))[keep]
    n_pos, n_neg = n_pos[used], lengths[used] - n_pos[used]
    shape = (n_pos.size, int(lengths[used].max()))
    padded = np.full(shape, np.nan)
    padded[row, col] = flat_scores
    positive = np.zeros(shape, dtype=np.int64)
    positive[row, col] = flat_mask[keep]
    order = np.argsort(padded, axis=1)
    ordered = np.take_along_axis(padded, order, axis=1)
    first = np.ones(shape, dtype=bool)  # a tie run starts here; NaN ties nothing
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    last = np.ones(shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    at = np.arange(shape[1])
    left = np.maximum.accumulate(np.where(first, at, 0), axis=1)
    right = np.minimum.accumulate(np.where(last, at + 1, shape[1])[:, ::-1], axis=1)[:, ::-1]
    twice_rank_sum = ((left + right + 1) * np.take_along_axis(positive, order, axis=1)).sum(axis=1)
    return (twice_rank_sum / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg), used


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class Aggregate:
    """Median and interquartile range of a metric across seeds."""

    values: list[float]
    median: float
    iqr_low: float
    iqr_high: float

    def to_dict(self) -> dict:
        return {
            "values": list(self.values),
            "median": self.median,
            "iqr": [self.iqr_low, self.iqr_high],
        }


def aggregate_median_iqr(values: Sequence[float]) -> Aggregate:
    """Median (lower of the middle two for even counts) plus 25/75 bounds.

    All three are taken by one rule, the inverted empirical CDF: each is
    the smallest value with at least that share of the values at or below
    it. So each is one of the values, and the median never lies outside its
    own bounds.
    """
    if len(values) == 0:
        raise ValueError("cannot aggregate an empty value list")
    lo, median, hi = np.percentile([float(v) for v in values], [25.0, 50.0, 75.0],
                                   method="inverted_cdf")
    return Aggregate(values=list(values), median=float(median), iqr_low=float(lo),
                     iqr_high=float(hi))


# ---------------------------------------------------------------------------
# skill rating


@dataclass(frozen=True)
class SkillRating:
    """Gaussian belief over one method's latent skill; the defaults are the prior."""

    mu: float = 0.0
    sigma: float = 0.5

    def interval(self) -> tuple[float, float]:
        return self.mu - INTERVAL_Z * self.sigma, self.mu + INTERVAL_Z * self.sigma


def _cdf(x: float) -> float:
    """Standard normal CDF by erfc, exact deep in the lower tail where 0.5 * (1 + erf) cancels."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _v_win(t: float, eps: float) -> float:
    x = t - eps
    denom = _cdf(x)
    if denom < 1e-300:
        return -x
    return _NORMAL.pdf(x) / denom


def _w_win(t: float, eps: float) -> float:
    v = _v_win(t, eps)
    return v * (v + t - eps)


def _v_draw(t: float, eps: float) -> float:
    sign = -1.0 if t < 0 else 1.0
    a = eps - abs(t)
    b = -eps - abs(t)
    denom = _cdf(a) - _cdf(b)
    if denom < 1e-300:
        return sign * (-abs(t))
    return sign * (_NORMAL.pdf(b) - _NORMAL.pdf(a)) / denom


def _w_draw(t: float, eps: float) -> float:
    a = eps - abs(t)
    b = -eps - abs(t)
    denom = _cdf(a) - _cdf(b)
    if denom < 1e-300:
        return 1.0
    v = _v_draw(abs(t), eps)
    return v * v + (a * _NORMAL.pdf(a) - b * _NORMAL.pdf(b)) / denom


def _update_pair(
    winner: SkillRating,
    loser: SkillRating,
    draw: bool,
) -> tuple[SkillRating, SkillRating]:
    c2 = 2.0 * SKILL_BETA**2 + winner.sigma**2 + loser.sigma**2
    c = math.sqrt(c2)
    t = (winner.mu - loser.mu) / c
    eps = DRAW_MARGIN / c
    if draw:
        v = _v_draw(t, eps)
        w = _w_draw(t, eps)
    else:
        v = _v_win(t, eps)
        w = _w_win(t, eps)
    w = min(max(w, 0.0), 1.0)

    new_winner_mu = winner.mu + (winner.sigma**2 / c) * v
    new_loser_mu = loser.mu - (loser.sigma**2 / c) * v
    new_winner_sigma = winner.sigma * math.sqrt(max(1.0 - (winner.sigma**2 / c2) * w, 1e-12))
    new_loser_sigma = loser.sigma * math.sqrt(max(1.0 - (loser.sigma**2 / c2) * w, 1e-12))
    # Uncertainty never grows past what we already believed.
    return (
        SkillRating(mu=new_winner_mu, sigma=min(new_winner_sigma, winner.sigma)),
        SkillRating(mu=new_loser_mu, sigma=min(new_loser_sigma, loser.sigma)),
    )


RankingGroup = Sequence[str]


def trueskill_update(
    ratings: Mapping[str, SkillRating],
    ranking: Sequence[str | RankingGroup],
) -> dict[str, SkillRating]:
    """Apply one tournament outcome to a set of ratings.

    ``ranking`` lists methods best to worst; an inner sequence groups
    tied methods. The outcome decomposes into adjacent pairwise updates
    (a tie inside a group becomes a draw). Returns a new mapping; the
    input is untouched.
    """
    out = dict(ratings)
    flat: list[tuple[str, int]] = []
    for group_idx, entry in enumerate(ranking):
        names = [entry] if isinstance(entry, str) else list(entry)
        for name in names:
            if name not in out:
                raise KeyError(f"ranking names unknown method {name!r}")
            flat.append((name, group_idx))
    if len({name for name, _ in flat}) != len(flat):
        raise ValueError("ranking repeats a method")
    for (name_a, grp_a), (name_b, grp_b) in zip(flat, flat[1:]):
        a, b = out[name_a], out[name_b]
        new_a, new_b = _update_pair(a, b, draw=grp_a == grp_b)
        out[name_a], out[name_b] = new_a, new_b
    return out


def rank_with_confidence(ratings: Mapping[str, SkillRating]) -> dict[str, tuple[int, int]]:
    """Conservative rank ranges from non-overlapping confidence intervals.

    Method A is strictly better than B only when A's interval lower
    bound clears B's upper bound. Each method's range runs from
    1 + (methods strictly better) to n - (methods strictly worse).
    """
    names = list(ratings)
    n = len(names)
    intervals = {name: ratings[name].interval() for name in names}
    out: dict[str, tuple[int, int]] = {}
    for name in names:
        lo, hi = intervals[name]
        better = sum(1 for other in names if other != name and intervals[other][0] > hi)
        worse = sum(1 for other in names if other != name and intervals[other][1] < lo)
        out[name] = (1 + better, n - worse)
    return out


def format_rank(rank: tuple[int, int]) -> str:
    lo, hi = rank
    return str(lo) if lo == hi else f"{lo}-{hi}"


def fresh_ratings(names: Sequence[str]) -> dict[str, SkillRating]:
    return {name: SkillRating() for name in names}
