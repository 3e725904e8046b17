"""The array ranking path against the per-item reference code.

Inputs are drawn tie-heavy: scores from a three-value set holding both
``0.0`` and ``-0.0``, endpoint pairs from a 3 x 3 grid (so a pair repeats
with different labels), single items, all-positive lists, and lists of
distinct scores (tie blocks of size 1).  AP must equal the reference bit
for bit under both tie policies, and so must every score in the ranking.
Several score rows over one pair list go through ``_rank_rows`` and
through ``_rankings``, the AP-only route ``sweep`` takes; both rank all
of them against one shared pair order.

Each row is ranked by one default ``argsort``, dense ranks of its tie
blocks and the packed-key stable order of those ranks.  That order must
equal ``np.argsort(-row, kind="stable")`` element for element, on rows of
up to 70,000 items, all distinct, all tied, and drawn from ``0.0``,
``-0.0``, NaN and the infinities.  NaN scores form one tie block, as
``0.0`` and ``-0.0`` do, so the expected AP does not depend on how labels
fall among them.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_evaluation as reference
from linkdecay import evaluation
from linkdecay.evaluation import (EdgeLifetimes, average_precision, evaluate,
                                  evaluate_link_prediction, random_baseline,
                                  survival_curve, sweep, temporal_split)
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import snapshot_at
from linkdecay.scoring import all_specs, score_batch

TIE_BREAKS = ("lexicographic", "expected")
finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


PAIR = st.tuples(st.integers(0, 2), st.integers(0, 2))
LABEL = st.sampled_from(("test", "zero"))


def _row_scores(draw):
    """Scores for one row: often three values, ``0.0`` and ``-0.0`` among
    them, so ties are heavy; otherwise any finite floats."""
    if draw(st.booleans()):
        return st.sampled_from((0.0, -0.0, draw(finite)))
    return finite


@st.composite
def scored_items(draw):
    return draw(st.lists(st.tuples(PAIR, _row_scores(draw), LABEL),
                         min_size=1, max_size=40))


@st.composite
def shared_pairs(draw):
    """One labeled pair list, pairs repeating under different labels, and
    several score rows over it, each tie-heavy or not on its own."""
    labeled = draw(st.lists(st.tuples(PAIR, LABEL), min_size=1, max_size=40))
    rows = [draw(st.lists(_row_scores(draw), min_size=len(labeled),
                          max_size=len(labeled)))
            for _ in range(draw(st.integers(1, 5)))]
    return labeled, rows


def _assert_same_as_reference(items, tie_break):
    try:
        want = reference.average_precision(items, tie_break)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            average_precision(items, tie_break)
        assert str(caught.value) == str(err)
        return
    _assert_same_result(average_precision(items, tie_break), want, tie_break)


def _assert_same_result(got, want, tie_break):
    assert _bits(got.ap) == _bits(want.ap)
    assert got.ranking == want.ranking
    assert [_bits(s) for _, s, _ in got.ranking] == \
        [_bits(s) for _, s, _ in want.ranking]
    assert got.precision_at == want.precision_at
    assert got.positives == want.positives
    assert got.tie_break == tie_break


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(scored_items())
@example([((0, 1), 0.5, "test")])
@example([((0, 1), 0.0, "test"), ((1, 0), -0.0, "test"), ((0, 1), 0.0, "test")])
@example([((0, 1), 3.0, "zero"), ((0, 2), 2.0, "test"), ((0, 1), 1.0, "test")])
@example([((0, 1), -0.0, "zero"), ((0, 1), 0.0, "test"), ((0, 1), 0.0, "zero")])
@example([((1, 2), 1.0, "zero")])
def test_average_precision_matches_reference(items):
    for tie_break in TIE_BREAKS:
        _assert_same_as_reference(items, tie_break)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(shared_pairs())
@example(([((0, 1), "test"), ((0, 1), "zero"), ((0, 1), "test")],
          [[0.0, -0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]]))
@example(([((1, 1), "zero"), ((0, 2), "zero")], [[0.5, 0.5], [1.0, 2.0]]))
def test_rows_ranked_against_one_pair_order_match_reference(case):
    labeled, rows = case
    pairs = np.array([pair for pair, _ in labeled], dtype=np.int64)
    labels = [label for _, label in labeled]
    positive = np.array(labels) == "test"
    scores = np.array(rows, dtype=np.float64)
    items = [list(zip(map(tuple, pairs.tolist()), row, labels)) for row in rows]
    for tie_break in TIE_BREAKS:
        if not positive.any():
            with pytest.raises(ValueError) as caught:
                list(evaluation._rank_rows(pairs, scores, positive, tie_break))
            with pytest.raises(ValueError) as want:
                reference.average_precision(items[0], tie_break)
            assert str(caught.value) == str(want.value)
            continue
        got = list(evaluation._rank_rows(pairs, scores, positive, tie_break))
        assert len(got) == len(rows)
        for result, row_items in zip(got, items):
            _assert_same_result(
                result, reference.average_precision(row_items, tie_break),
                tie_break)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.lists(st.tuples(PAIR, st.one_of(
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)), st.floats())),
    min_size=1, max_size=40))
def test_rank_order_equals_the_three_key_lexsort(items):
    # NaN scores included: the reference sort cannot order them, but the
    # three-key lexsort the shared order replaced can.
    pairs = np.array([pair for pair, _ in items], dtype=np.int64)
    scores = np.array([score for _, score in items], dtype=np.float64)
    positive = np.arange(len(items)) % 2 == 0
    order = np.lexsort((pairs[:, 1], pairs[:, 0], -scores))
    got = next(evaluation._rank_rows(pairs, [scores], positive, "lexicographic"))
    assert np.array_equal(got.pairs, pairs[order])
    assert got.scores.tobytes() == scores[order].tobytes()
    assert np.array_equal(got.positive, positive[order])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(shared_pairs())
@example(([((0, 1), "test"), ((0, 1), "zero"), ((0, 1), "test")],
          [[0.0, -0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]]))
def test_sweep_route_matches_reference(case):
    labeled, rows = case
    pairs = np.array([pair for pair, _ in labeled], dtype=np.int64)
    labels = [label for _, label in labeled]
    positive = np.array(labels) == "test"
    assume(positive.any())
    scores = np.array(rows, dtype=np.float64)
    for tie_break in TIE_BREAKS:
        got = [ap for *_, ap in evaluation._rankings(
            evaluation._pair_order(pairs), scores, positive, tie_break)]
        want = [reference.average_precision(
            list(zip(map(tuple, pairs.tolist()), row, labels)), tie_break).ap
            for row in rows]
        assert [_bits(ap) for ap in got] == [_bits(ap) for ap in want]


def _scale_rows():
    rng = np.random.default_rng(26)
    special = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.5, -2.0])
    return {
        "70k-more-than-2**16-distinct": rng.integers(0, 10**6, 70_000) / 8.0,
        "all-distinct": rng.permutation(70_000) * 0.25 - 100.0,
        "all-tied": np.full(70_000, 0.5),
        "zeros-nan-inf": rng.choice(special, size=70_000),
        "k1": np.array([math.nan]),
        "k2-tied": np.array([0.0, -0.0]),
        "k2-nan": np.array([math.nan, math.nan]),
        "k2-distinct": np.array([1.0, 2.0]),
        "k2-nan-first": np.array([math.nan, -math.inf]),
    }


@pytest.mark.parametrize("name", list(_scale_rows()))
def test_descending_is_the_stable_argsort_at_scale(name):
    row = _scale_rows()[name]
    if name.startswith("70k"):
        assert 65_535 < len(np.unique(row)) < len(row)
    at, head = evaluation._descending(row)
    want = np.argsort(-row, kind="stable")
    assert np.array_equal(at, want)
    # A block starts wherever the score differs from the one before it:
    # 0.0 ties -0.0, and NaN ties NaN.
    ordered = row[want]
    tied = (ordered[1:] == ordered[:-1]) | (np.isnan(ordered[1:]) & np.isnan(ordered[:-1]))
    assert np.array_equal(head, np.r_[True, ~tied])


def _pair_cases():
    rng = np.random.default_rng(27)
    top, wide = 2 ** 62, (2 ** 63 - 1) // 7
    return {
        "duplicates": rng.integers(0, 5, (300, 2)),
        "negative": rng.integers(-7, 7, (300, 2)),
        "int64-min": -2 ** 63 + rng.integers(0, 3, (300, 2)),
        "near-2**62": top + rng.integers(-3, 3, (300, 2)),
        # 7 sources times (2**63 - 1) / 7 targets: the largest key is
        # 2**63 - 2, which _stable_order sorts by its own fallback.
        "keys-fill-int64": np.array([[0, 0], [6, wide - 1], [5, 7], [6, 0], [5, 7],
                                     [0, wide - 1]]),
        # 2**63 keys or more: the lexsort fallback.
        "2**63-keys": np.array([[0, 0], [2 ** 31 - 1, 2 ** 32 - 1], [0, 2 ** 32 - 1],
                                [2 ** 31 - 1, 0], [0, 0]]),
        "one-source-2**63-targets": np.array([[3, 2 ** 63 - 1], [3, 0], [3, 2 ** 63 - 1]]),
        "wide": rng.choice([-top, -1, 0, 1, top], (300, 2)),
        "one": np.array([[top, -top]]),
        "empty": np.empty((0, 2), dtype=np.int64),
    }


@pytest.mark.parametrize("name", list(_pair_cases()))
def test_pair_order_is_the_stable_lexsort(name):
    """The packed-key pair order is ``np.lexsort`` by source, then target,
    with equal pairs in input order, for any int64 ids."""
    pairs = _pair_cases()[name].astype(np.int64)
    got = evaluation._pair_order(pairs)
    assert np.array_equal(got, np.lexsort((pairs[:, 1], pairs[:, 0])))
    assert len(got) == len(pairs)


#: Scores below every finite score drawn by ``nan_items``.
BELOW = -1e10


@st.composite
def nan_items(draw):
    """Tie-heavy items with some NaN scores, and a shuffle of the labels
    among the NaN-scored ones."""
    score = st.one_of(st.just(math.nan), st.sampled_from((0.0, -0.0, 1.0)),
                      st.floats(-1e9, 1e9))
    items = draw(st.lists(st.tuples(PAIR, score, LABEL), min_size=1, max_size=40))
    nan_at = [k for k, (_, s, _) in enumerate(items) if math.isnan(s)]
    labels = draw(st.permutations([items[k][2] for k in nan_at]))
    swapped = list(items)
    for k, label in zip(nan_at, labels):
        swapped[k] = (items[k][0], items[k][1], label)
    return items, swapped


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(nan_items())
@example(([((0, 1), 1.0, "zero"), ((0, 2), math.nan, "test"), ((0, 3), math.nan, "zero")],
          [((0, 1), 1.0, "zero"), ((0, 2), math.nan, "zero"), ((0, 3), math.nan, "test")]))
def test_nan_scores_form_one_expected_tie_block(case):
    items, swapped = case
    assume(any(label == "test" for *_, label in items))
    got = average_precision(items, "expected").ap
    assert _bits(average_precision(swapped, "expected").ap) == _bits(got)
    below = [(pair, BELOW if math.isnan(s) else s, label) for pair, s, label in items]
    for tie_break in TIE_BREAKS:
        assert _bits(average_precision(items, tie_break).ap) == \
            _bits(reference.average_precision(below, tie_break).ap)


@pytest.fixture(scope="module")
def small_split():
    tel = generate(GenConfig(seed=3, n_nodes=200, n_add_events=3000,
                             decay_bias="low_degree"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tel, temporal_split(tel, 0.75, seed=2)


def test_sweep_computes_the_pair_order_once(small_split, monkeypatch):
    tel, split = small_split
    calls = []
    pair_order = evaluation._pair_order
    monkeypatch.setattr(evaluation, "_pair_order",
                        lambda pairs: calls.append(len(pairs)) or pair_order(pairs))
    for tie_break in TIE_BREAKS:
        calls.clear()
        assert len(sweep(tel, split, tie_break)) == 40
        assert calls == [len(split.test_set) + len(split.zero_test_set)]


def test_sweep_builds_no_ap_result(small_split, monkeypatch):
    tel, split = small_split

    def no_result(*args, **kwargs):
        raise AssertionError("sweep built an APResult")

    monkeypatch.setattr(evaluation, "APResult", no_result)
    for tie_break in TIE_BREAKS:
        assert len(sweep(tel, split, tie_break)) == 40


def test_bad_tie_break_is_rejected_before_scoring(small_split, monkeypatch):
    tel, split = small_split

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored before checking tie_break")

    monkeypatch.setattr(evaluation, "score_matrix", no_scoring)
    monkeypatch.setattr(evaluation, "snapshot_at", no_scoring)
    message = "^tie_break must be 'lexicographic' or 'expected', got 'bogus'$"
    spec = all_specs()[0]
    calls = [
        lambda: sweep(tel, split, "bogus"),
        lambda: evaluate(tel, spec, split, "bogus"),
        lambda: evaluate_link_prediction(tel, spec.measure, spec.combo,
                                         seed=2, tie_break="bogus"),
        lambda: random_baseline(split, seed=2, tie_break="bogus"),
        lambda: average_precision([((0, 1), 1.0, "test")], "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.lists(st.sampled_from(("test", "zero", "maybe", None, 1)),
                min_size=1, max_size=8))
def test_unknown_label_raises_on_the_first_bad_one(labels):
    items = [((0, k + 1), float(k % 2), label) for k, label in enumerate(labels)]
    _assert_same_as_reference(items, "lexicographic")
    bad = [label for label in labels if label not in ("test", "zero")]
    if bad:
        with pytest.raises(ValueError, match=f"got {bad[0]!r}$"):
            average_precision(items)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=30))
def test_survival_curve_matches_reference(records):
    durations = np.array([d for d, _ in records], dtype=np.int64)
    censored = np.array([c for _, c in records], dtype=bool)
    want = reference.survival_curve(durations, censored)
    for given_as in (records, EdgeLifetimes(durations, censored)):
        got = survival_curve(given_as)
        assert got == want
        assert [tuple(map(_bits, point)) for point in got] == \
            [tuple(map(_bits, point)) for point in want]


@pytest.mark.parametrize("durations", [
    np.arange(6, dtype=np.int64),
    np.array([0.0, -0.0, 1.5, 2.0, 3.0, 8.0]),
], ids=["int", "signed-zero"])
def test_survival_curve_with_long_tie_runs_matches_reference(durations):
    # 5000 records over 6 durations: the sort reorders every tie run, and
    # each step must still take the bits the reference's stable sort gives,
    # including which of 0.0 and -0.0 names the first run.
    rng = np.random.default_rng(16)
    records = EdgeLifetimes(rng.choice(durations, size=5000),
                            rng.random(5000) < 0.4)
    assert not np.array_equal(np.argsort(records.durations),
                              np.argsort(records.durations, kind="stable"))
    want = reference.survival_curve(records.durations, records.censored)
    assert len(want) == len(np.unique(durations)) + 1
    got = survival_curve(records)
    assert [tuple(map(_bits, point)) for point in got] == \
        [tuple(map(_bits, point)) for point in want]


def test_evaluate_matches_reference_over_score_batch_for_all_specs(small_split):
    tel, split = small_split
    g1 = snapshot_at(tel, split.t1)
    pairs = np.vstack((split.test_set, split.zero_test_set))
    labels = ["test"] * len(split.test_set) + ["zero"] * len(split.zero_test_set)
    swept = {tie_break: sweep(tel, split, tie_break) for tie_break in TIE_BREAKS}
    for k, spec in enumerate(all_specs()):
        scored = score_batch(g1, pairs, spec)
        items = [((e.src, e.dst), e.score, label)
                 for e, label in zip(scored, labels)]
        for tie_break in TIE_BREAKS:
            got = evaluate(tel, spec, split, tie_break)
            want = reference.average_precision(items, tie_break)
            assert _bits(got.ap) == _bits(want.ap), (str(spec), tie_break)
            assert got.ranking == want.ranking
            assert _bits(swept[tie_break][k]) == _bits(want.ap), (str(spec), tie_break)
