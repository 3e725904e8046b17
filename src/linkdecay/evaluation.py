"""Temporal evaluation of decay scores, plus edge-survival analysis.

The protocol: cut an event stream at ``t1 = first + fraction * span``.
Edges alive at ``t1`` but gone by the final time form the positive test
set; an equal-size seeded sample of edges that survived forms the zero
(negative) set.  :func:`temporal_split` makes that cut and owns its
options.  A scorer ranks the union, and average precision over that
ranking measures how well decayed edges float to the top:
:func:`evaluate` ranks a given split with one spec, :func:`sweep` with
all 40.  A creation-side twin (:func:`evaluate_link_prediction`) ranks
newly formed edges against never-present pairs with the raw measures, so
decay and creation difficulty can be compared on the same stream.  Every
protocol scores its pairs with one
:func:`~linkdecay.scoring.score_matrix` call on the ``t1`` snapshot;
:func:`sweep` passes all 40 specs at once, so they share one snapshot and
one pair-feature pass per degree combination.

Every protocol ranks through one array path.  The pairs are put in their
stable lexicographic order once; each score row over that order then gets
one default (SIMD) ``argsort`` by descending score and the packed-key
stable order of its dense tie-block ranks, so ties fall by endpoint pair,
then input position.  The p-th positive at rank r adds precision ``p /
r``; the expected AP under random tie order is a closed form per tie
block.  :func:`sweep` keeps only AP; the other protocols return an
:class:`APResult`, which keeps the ranking as arrays.  Sums run left to
right with ``np.cumsum``, so AP has the bits of a plain loop.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .events import (TemporalEdgeList, _check_seed, _draw_distinct, _in_sorted,
                     _packed_order, _stable_order)
from .graph import _as_pairs, snapshot_at
from .scoring import (Measure, ScoreModel, ScoreSpec, DegreeCombination,
                      all_specs, score_matrix)

__all__ = [
    "APResult",
    "EdgeLifetimes",
    "EvaluationSplit",
    "SurvivalFit",
    "average_precision",
    "edge_ages",
    "edge_lifetimes",
    "evaluate",
    "evaluate_link_prediction",
    "fit_exponential_half_life",
    "random_baseline",
    "survival_curve",
    "sweep",
    "temporal_split",
]


# ---------------------------------------------------------------------------
# temporal split


@dataclass(eq=False)
class EvaluationSplit:
    """Train/test cut of an event stream.

    ``test_set`` holds decayed edges (present at ``t1``, absent at the
    end); ``zero_test_set`` is the seeded sample of surviving edges.  All
    edge sets are ``(k, 2)`` arrays in lexicographic order.
    """

    t1: float
    t_end: int
    training_edges: np.ndarray
    test_set: np.ndarray
    zero_test_set: np.ndarray
    seed: int


def _keys_to_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    return np.column_stack(np.divmod(keys, n))


def _cut_time(tel: TemporalEdgeList, fraction: float) -> float:
    """``t1 = first + fraction * (last - first)``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be strictly between 0 and 1, got {fraction}")
    if len(tel) == 0:
        raise ValueError("cannot cut an empty event stream")
    return tel.time_first + fraction * (tel.time_last - tel.time_first)


def _cut(tel: TemporalEdgeList, fraction: float
         ) -> tuple[float, int, np.ndarray, np.ndarray]:
    """``t1`` (:func:`_cut_time`), the final time, and the sorted live edge
    keys at each."""
    t1, t_end = _cut_time(tel, fraction), tel.time_last
    return t1, t_end, tel.live_keys(t1), tel.live_keys(t_end)


def temporal_split(tel: TemporalEdgeList, fraction: float = 0.75, *,
                   seed: int) -> EvaluationSplit:
    """Split an event stream at ``t1 = first + fraction * (last - first)``.

    Parameters
    ----------
    tel : TemporalEdgeList
        The full event stream.
    fraction : float
        Position of the cut within the stream's time span (0 < f < 1).
    seed : int
        Seed for sampling the zero test set: a uniform sample, without
        replacement, of the edges present both at ``t1`` and at the end,
        of size ``min(#decayed, #survivors)``.  A warning is issued when
        the survivor count is the binding minimum.

    One search of the sorted live keys at ``t1`` in those at the end
    (``_in_sorted``) splits them, in order, into decayed and survivors.

    Raises
    ------
    ValueError
        On an empty stream, a degenerate fraction, or when no edge decays
        in the test window (nothing to rank), or without a seed.
    """
    _check_seed(seed)
    t1, t_end, k1, k_end = _cut(tel, fraction)
    n = tel.node_count
    survives = _in_sorted(k_end, k1)
    test_keys, survivor_keys = k1[~survives], k1[survives]
    if len(test_keys) == 0:
        raise ValueError(
            f"no decayed edges between t1={t1:g} and t_end={t_end}: "
            "nothing to evaluate"
        )
    size = min(len(test_keys), len(survivor_keys))
    if size < len(test_keys):
        warnings.warn(
            f"only {len(survivor_keys)} surviving edges for "
            f"{len(test_keys)} decayed ones; zero test set truncated",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(survivor_keys), size=size, replace=False)
    pick.sort()
    return EvaluationSplit(
        t1=float(t1),
        t_end=int(t_end),
        training_edges=_keys_to_pairs(k1, n),
        test_set=_keys_to_pairs(test_keys, n),
        zero_test_set=_keys_to_pairs(survivor_keys[pick], n),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# average precision


@dataclass(eq=False)
class APResult:
    """Average precision plus the ranking it was computed from.

    ``pairs``, ``scores`` and ``positive`` hold the ranked items as arrays,
    in rank order: descending score, ties by endpoint pair.  ``ranking``
    lists them as ``((src, dst), score, label)``; ``precision_at[k]`` is
    the precision after the first ``k+1`` entries of that ranking.  With
    the default tie policy, ``ap`` equals the mean of ``precision_at`` over
    positive positions, so the value can be recomputed from the ranking.
    """

    ap: float
    pairs: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    positive: np.ndarray = field(repr=False)
    positives: int
    tie_break: str = "lexicographic"

    @cached_property
    def ranking(self) -> list[tuple[tuple[int, int], float, str]]:
        edges = zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist())
        labels = np.where(self.positive, "test", "zero").tolist()
        return list(zip(edges, self.scores.tolist(), labels))

    @cached_property
    def precision_at(self) -> list[float]:
        ranks = np.arange(1, len(self.positive) + 1)
        return (np.cumsum(self.positive) / ranks).tolist()


#: The tie policies of every ranking, in the order the CLI lists them.
_TIE_BREAKS = ("lexicographic", "expected")


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be 'lexicographic' or 'expected', got {tie_break!r}")


def _pair_order(pairs: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of ``(k, 2)`` int64 pairs: by source, then
    target, then input position, for any ids.  Two stable passes
    (:func:`_stable_order`): by target, then that order by source."""
    by_dst = _stable_order(pairs[:, 1])
    return by_dst[_stable_order(pairs[by_dst, 0])]


def _descending(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(-scores, kind="stable")`` from one default (SIMD)
    ``argsort`` and the :func:`_packed_order` of its dense ranks, and
    whether each item starts a tie block (``0.0`` ties ``-0.0``, NaN ties
    NaN).  The keys fit int64 for fewer than ``2 ** 31`` scores."""
    negated = -scores
    by_value = np.argsort(negated)
    ordered = negated[by_value]
    head = np.r_[True, ordered[1:] != ordered[:-1]]
    head[ordered.searchsorted(np.nan) + 1:] = False   # NaNs sort last
    return _packed_order(np.cumsum(head), by_value, (len(scores) - 1).bit_length()), head


def _rankings(by_pair: np.ndarray, rows: Iterable[np.ndarray], positive: np.ndarray,
              tie_break: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """Rank the pairs in their order ``by_pair`` by each score row
    (:func:`_descending`); yield the row, its order as positions in
    ``by_pair``, the positive mask in that order and the AP under
    ``tie_break``.  Sums run left to right (``np.cumsum``), so the AP bits
    equal those of a ``+=`` loop; the p-th positive at rank r adds ``p / r``.
    """
    _check_tie_break(tie_break)
    positives = int(np.count_nonzero(positive))
    if positives == 0:
        raise ValueError("average precision needs at least one 'test' item")
    positive = positive[by_pair]   # in pair order, as each row is ranked
    rank = np.arange(1, len(by_pair) + 1)
    for row in rows:
        at, head = _descending(row[by_pair])
        ranked = positive[at]
        if tie_break == "lexicographic":
            total = np.cumsum(rank[:positives] / (np.flatnonzero(ranked) + 1))[-1]
        else:
            # Expected AP when tied items are ordered uniformly at random.
            # A positive lands at in-block rank r of a block holding t
            # positives among `size` items with probability t/size;
            # conditioned on that, (r-1)(t-1)/(size-1) other positives
            # precede it in the block.
            first = np.flatnonzero(head)
            size = np.diff(np.r_[first, len(head)])
            seen = np.r_[0, np.cumsum(ranked)]   # seen[k]: positives among the first k items
            t = seen[first + size] - seen[first]
            above = np.repeat(first, size)
            above_pos = np.repeat(seen[first], size)
            t = np.repeat(t, size)
            r = rank[:len(above)] - np.repeat(np.cumsum(size) - size, size)
            size = np.repeat(size, size)
            # In a block of one, r - 1 is 0, so the guarded divisor gives 0.
            within = (r - 1) * (t - 1) / np.maximum(size - 1, 1)
            total = np.cumsum((t / size) * (above_pos + 1 + within) / (above + r))[-1]
        yield row, at, ranked, float(total / positives)


def _rank_rows(pairs: np.ndarray, rows: Iterable[np.ndarray],
               positive: np.ndarray, tie_break: str) -> Iterator[APResult]:
    """Each row's :func:`_rankings` of ``(k, 2)`` pairs as an :class:`APResult`."""
    by_pair = _pair_order(pairs)
    for row, at, ranked, ap in _rankings(by_pair, rows, positive, tie_break):
        order = by_pair[at]
        yield APResult(ap=ap, pairs=pairs[order], scores=row[order], positive=ranked,
                       positives=int(np.count_nonzero(ranked)), tie_break=tie_break)


def average_precision(scored: Iterable[tuple], tie_break: str = "lexicographic") -> APResult:
    """Average precision of a labeled scored edge list.

    ``scored`` yields ``((src, dst), score, label)`` with label ``"test"``
    (positive: the edge decayed) or ``"zero"``.  Items are ranked by
    descending score; exact score ties are broken by the endpoint pair,
    ascending, so the ranking is deterministic.  AP is the mean precision
    at the positive positions.  ``tie_break="expected"`` instead returns
    the expected AP when tied items are ordered uniformly at random
    (useful when a sparse measure assigns many identical scores).  NaN
    scores rank last and tie with each other, as ``0.0`` ties ``-0.0``.  Edges
    that are not ``(src, dst)`` pairs of exact int64 values raise ``ValueError``.
    """
    items = list(scored)
    edges, scores, labels = zip(*items) if items else ((), (), ())
    labels = np.array(labels, dtype=object)
    positive = labels == "test"
    bad = np.flatnonzero(~positive & (labels != "zero"))
    if len(bad):
        raise ValueError(f"label must be 'test' or 'zero', got {labels[bad[0]]!r}")
    return next(_rank_rows(_as_pairs(edges), (np.array(scores, dtype=np.float64),),
                           positive, tie_break))


# ---------------------------------------------------------------------------
# end-to-end protocols


def _labeled(test: np.ndarray, zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranked pairs, positives first, and their positive mask."""
    pairs = np.vstack((test, zero))
    return pairs, np.arange(len(pairs)) < len(test)


def _scored_split(tel: TemporalEdgeList, split: EvaluationSplit, specs: list[ScoreSpec]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split's pairs, their score rows on the ``t1`` snapshot, and the positive mask."""
    pairs, positive = _labeled(split.test_set, split.zero_test_set)
    return pairs, score_matrix(snapshot_at(tel, split.t1), pairs, specs), positive


def evaluate(tel: TemporalEdgeList, spec: ScoreSpec, split: EvaluationSplit,
             tie_break: str = "lexicographic") -> APResult:
    """Rank one split's test and zero pairs with one spec.

    Build ``split`` with :func:`temporal_split`, which owns the cut's
    options; scoring happens on the snapshot at ``split.t1``.
    ``tie_break`` is ``"lexicographic"`` or ``"expected"``, as in
    :func:`average_precision`.  :func:`sweep` does the same for all 40
    specs.
    """
    _check_tie_break(tie_break)
    return next(_rank_rows(*_scored_split(tel, split, [spec]), tie_break))


def sweep(tel: TemporalEdgeList, split: EvaluationSplit,
          tie_break: str = "lexicographic") -> list[float]:
    """AP of each spec of :func:`all_specs` on one split, in that order."""
    _check_tie_break(tie_break)
    pairs, scores, positive = _scored_split(tel, split, all_specs())
    return [ap for *_, ap in _rankings(_pair_order(pairs), scores, positive, tie_break)]


def random_baseline(split: EvaluationSplit, *, seed: int,
                    tie_break: str = "lexicographic") -> APResult:
    """AP of uniform-random scores on a split's test + zero pairs.

    It is the floor any real scorer has to beat.  The expected AP of
    random scores is the prevalence, the share of test pairs among the
    ranked pairs, up to a term of order ``log(k) / k`` for ``k`` pairs.
    With equal-size test and zero sets that is 0.5.  When survivors are
    scarcer than decays, :func:`temporal_split` truncates the zero set and
    the floor rises: on the planted 5000-node stream under the
    ``few_common_neighbors`` bias it is 0.65-0.66.
    """
    _check_tie_break(tie_break)
    _check_seed(seed)
    pairs, positive = _labeled(split.test_set, split.zero_test_set)
    scores = np.random.default_rng(seed).random(len(pairs))
    return next(_rank_rows(pairs, (scores,), positive, tie_break))


def _absent_keys(ever: np.ndarray, n: int, need: int, seed: int) -> np.ndarray:
    """The sorted keys ``i * n + j`` of ``need`` distinct pairs ``i != j``
    outside the sorted keys ``ever``: a per-key loop's keys, from chunks of
    ``default_rng(seed).integers(0, n * n)`` less their self-pairs through
    :func:`~linkdecay.events._draw_distinct`."""
    rng = np.random.default_rng(seed)

    def draw(size: int) -> np.ndarray:
        keys = rng.integers(0, n * n, size=size)
        return keys[keys // n != keys % n]

    return _draw_distinct(draw, need, ever)


def evaluate_link_prediction(tel: TemporalEdgeList, measure: Measure,
                             combo: DegreeCombination, fraction: float = 0.75, *,
                             seed: int, tie_break: str = "lexicographic") -> APResult:
    """Creation-side mirror of :func:`evaluate`.

    Positives are edges present at the end but not at ``t1`` (newly
    formed); negatives are an equal-size seeded sample of ordered pairs
    that never occur anywhere in the stream.  Pairs are ranked by the raw
    link-prediction measure on the ``t1`` snapshot (no negation).
    """
    _check_tie_break(tie_break)
    _check_seed(seed)
    t1, t_end, k1, k_end = _cut(tel, fraction)
    n = tel.node_count
    new_keys = k_end[~_in_sorted(k1, k_end)]
    if len(new_keys) == 0:
        raise ValueError(f"no new edges between t1={t1:g} and t_end={t_end}")
    # Distinct keys by a sort and a mask: np.unique hashes in recent numpy,
    # which is many times slower than a sort on large key arrays.
    ever = np.sort(tel.src * np.int64(n) + tel.dst)
    ever = ever[np.r_[True, ever[1:] != ever[:-1]]]
    need = len(new_keys)
    capacity = n * (n - 1) - len(ever)
    if capacity < need:
        raise ValueError(
            f"cannot sample {need} never-present pairs: only {capacity} exist"
        )
    negative_keys = _absent_keys(ever, n, need, seed)
    pairs, positive = _labeled(_keys_to_pairs(new_keys, n),
                               _keys_to_pairs(negative_keys, n))
    # The score model's decay score is the negated raw measure.
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, measure, combo)
    scores = -score_matrix(snapshot_at(tel, t1), pairs, [spec])[0]
    return next(_rank_rows(pairs, (scores,), positive, tie_break))


# ---------------------------------------------------------------------------
# survival


@dataclass(eq=False)
class EdgeLifetimes:
    """Per-presence-interval durations with censoring flags."""

    durations: np.ndarray
    censored: np.ndarray

    def __len__(self) -> int:
        return len(self.durations)

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())

    @property
    def n_uncensored(self) -> int:
        return len(self.durations) - self.n_censored


def edge_lifetimes(tel: TemporalEdgeList) -> EdgeLifetimes:
    """Lifetime records of the stream's presence intervals.

    Every add of an absent edge opens an interval; a matching delete closes
    it (uncensored, duration = delete - add).  Intervals still open at the
    final event time are censored with duration ``t_end - add``.  A pair
    deleted and re-added later therefore contributes one record per
    interval.  Uncensored records come in delete order, then censored ones
    in ``(src, dst)`` order.
    """
    iv = tel.intervals
    censored = iv.censored
    closed = np.flatnonzero(~censored)
    rows = np.concatenate((closed[np.argsort(iv.end[closed])],
                           np.flatnonzero(censored)))
    return EdgeLifetimes(iv.end_time[rows] - iv.start_time[rows], censored[rows])


@dataclass
class SurvivalFit:
    """Exponential lifetime fit."""

    half_life: float
    lifetimes_used: int
    censored: int

    @property
    def rate(self) -> float:
        return math.log(2.0) / self.half_life


def _as_lifetimes(lifetimes) -> EdgeLifetimes:
    """``lifetimes`` as ``EdgeLifetimes``: as given, or built from
    ``(duration, censored)`` records.  Raises ``ValueError`` naming the
    first record whose duration is NaN, infinite or negative."""
    if not isinstance(lifetimes, EdgeLifetimes):
        rows = list(lifetimes)
        lifetimes = EdgeLifetimes(
            np.array([r[0] for r in rows], dtype=np.float64),
            np.array([bool(r[1]) for r in rows], dtype=bool),
        )
    durations = lifetimes.durations
    bad = np.flatnonzero(~np.isfinite(durations) | (durations < 0))
    if len(bad):
        at = int(bad[0])
        raise ValueError(f"lifetime {at}: duration must be finite and "
                         f"non-negative, got {durations[at].item()!r}")
    return lifetimes


def fit_exponential_half_life(lifetimes) -> SurvivalFit:
    """Censored maximum-likelihood exponential fit.

    The rate estimate is ``#uncensored / sum(all durations)`` — censored
    intervals contribute observation time but no event — and the half-life
    is ``ln 2 / rate``.  Requires at least two uncensored records.
    """
    records = _as_lifetimes(lifetimes)
    uncensored = records.n_uncensored
    if uncensored < 2:
        raise ValueError(
            f"need at least two uncensored lifetimes to fit, got {uncensored}"
        )
    total = float(records.durations.sum())
    if total <= 0:
        raise ValueError("total observed lifetime is zero; cannot fit a rate")
    rate = uncensored / total
    return SurvivalFit(half_life=math.log(2.0) / rate,
                       lifetimes_used=len(records),
                       censored=records.n_censored)


def survival_curve(lifetimes) -> list[tuple[float, float]]:
    """Kaplan–Meier survival estimate as ``(t, fraction_surviving)`` steps.

    Starts at ``(0, 1.0)``; censored records leave the risk set without
    producing a drop.
    """
    records = _as_lifetimes(lifetimes)
    if len(records) == 0:
        return [(0.0, 1.0)]
    order = np.argsort(records.durations)
    durations = records.durations[order]
    died = ~records.censored[order]
    _, first = np.unique(durations, return_index=True)
    # The sort leaves each run of equal durations in no set order; its
    # earliest record names the run, as with a stable sort (0.0 ties -0.0).
    times = records.durations[np.minimum.reduceat(order, first)]
    deaths = np.add.reduceat(died.astype(np.int64), first)
    at_risk = len(durations) - first
    drop = deaths > 0
    surviving = np.cumprod(1.0 - deaths[drop] / at_risk[drop])
    return [(0.0, 1.0)] + list(zip(times[drop].astype(np.float64).tolist(),
                                   surviving.tolist()))


def edge_ages(tel: TemporalEdgeList, t: float) -> dict[tuple[int, int], float]:
    """Age of each edge alive at ``t`` (time since its current presence
    interval began), in the order those intervals began.

    Support for age-based baseline scorers.  With memoryless lifetimes
    and one hazard class, ranking by age carries no decay signal.  A
    planted bias fixes an edge's class at add time, so the older survivors
    lean toward the slow class: on the 5000-node, 40000-add planted
    stream, ranking younger edges first gives an expected-tie AP of 0.59
    under ``low_degree`` and 0.50 under ``none`` (seeds 0 and 1).
    """
    start = tel.intervals.start[tel.alive(t)]
    start.sort()
    added = tel.time[start]
    # Each age is float(t - added): a float t converts added to float first;
    # an integer t below 2**64 (and at least every live added) subtracts
    # exactly in uint64 and rounds once; a larger one, per item in Python.
    if isinstance(t, float):
        ages = (t - added).tolist()
    elif isinstance(t, numbers.Integral) and len(added) and t < 2 ** 64:
        ages = (np.uint64(t) - added.astype(np.uint64)).astype(np.float64).tolist()
    else:
        ages = [float(t - a) for a in added.tolist()]
    return dict(zip(zip(tel.src[start].tolist(), tel.dst[start].tolist()), ages))
