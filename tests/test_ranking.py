"""The array ranking path against the per-item reference code.

Inputs are drawn tie-heavy: scores from a three-value set holding both
``0.0`` and ``-0.0``, endpoint pairs from a 3 x 3 grid (so a pair repeats
with different labels), single items, all-positive lists, and lists of
distinct scores (tie blocks of size 1).  AP must equal the reference bit
for bit under both tie policies, and so must every score in the ranking.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_evaluation as reference
from linkdecay.evaluation import (EdgeLifetimes, average_precision, evaluate,
                                  survival_curve, sweep, temporal_split)
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import snapshot_at
from linkdecay.scoring import all_specs, score_batch

TIE_BREAKS = ("lexicographic", "expected")
finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def scored_items(draw):
    if draw(st.booleans()):
        score = st.sampled_from((0.0, -0.0, draw(finite)))
    else:
        score = finite
    pair = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return draw(st.lists(
        st.tuples(pair, score, st.sampled_from(("test", "zero"))),
        min_size=1, max_size=40))


def _assert_same_as_reference(items, tie_break):
    try:
        want = reference.average_precision(items, tie_break)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            average_precision(items, tie_break)
        assert str(caught.value) == str(err)
        return
    got = average_precision(items, tie_break)
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


def test_evaluate_matches_reference_over_score_batch_for_all_specs():
    tel = generate(GenConfig(seed=3, n_nodes=200, n_add_events=3000,
                             decay_bias="low_degree"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = temporal_split(tel, 0.75, seed=2)
    g1 = snapshot_at(tel, split.t1)
    pairs = np.vstack((split.test_set, split.zero_test_set))
    labels = ["test"] * len(split.test_set) + ["zero"] * len(split.zero_test_set)
    swept = {tie_break: sweep(tel, split, tie_break) for tie_break in TIE_BREAKS}
    for k, spec in enumerate(all_specs()):
        scored = score_batch(g1, pairs, spec)
        items = [((e.src, e.dst), e.score, label)
                 for e, label in zip(scored, labels)]
        for tie_break in TIE_BREAKS:
            got = evaluate(tel, spec, seed=2, tie_break=tie_break, split=split)
            want = reference.average_precision(items, tie_break)
            assert _bits(got.ap) == _bits(want.ap), (str(spec), tie_break)
            assert got.ranking == want.ranking
            assert _bits(swept[tie_break][k]) == _bits(want.ap), (str(spec), tie_break)
