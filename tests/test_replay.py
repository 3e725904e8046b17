"""The presence-interval table against the per-event reference replays.

Streams are drawn over 2-4 nodes and ticks 0-5, so same-tick
add/delete/re-add, duplicate adds, deletes of absent edges, and empty and
single-event streams all come up.  Every quantity read off the table must
equal the reference exactly: ingest counts, the strict-deletes error,
lifetime arrays (values, order, dtypes), the age dict (with its order) and
snapshots at every tick, before the first event, after the last one and
between ticks.
"""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_replay as reference
from linkdecay.evaluation import edge_ages, edge_lifetimes
from linkdecay.events import EventFormatError, TemporalEdgeList, read_events
from linkdecay.graph import snapshot_at


@st.composite
def streams(draw):
    n = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    events = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.sampled_from((1, -1)),
                  st.integers(0, 5)),
        max_size=30))
    return n, [(i, j, sign, t) for (i, j), sign, t in events]


def _query_times(tel):
    ticks = sorted(set(tel.time.tolist())) or [0]
    return ([ticks[0] - 1, ticks[-1] + 1, ticks[-1] + 0.5]
            + ticks + [t + 0.5 for t in ticks] + [t - 0.25 for t in ticks])


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(streams())
def test_interval_table_matches_reference_replays(stream):
    n, records = stream
    tel = TemporalEdgeList.from_records(records, n=n)

    want = reference.replay_scan(tel.src, tel.dst, tel.sign, False)
    assert tel.stats == want
    try:
        reference.replay_scan(tel.src, tel.dst, tel.sign, True)
    except EventFormatError as err:
        with pytest.raises(EventFormatError) as caught:
            TemporalEdgeList.from_records(records, n=n, strict_deletes=True)
        assert str(caught.value) == str(err)
    else:
        TemporalEdgeList.from_records(records, n=n, strict_deletes=True)

    got, ref = edge_lifetimes(tel), reference.edge_lifetimes(tel)
    for name in ("durations", "censored"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()

    for t in _query_times(tel):
        ages, want_ages = edge_ages(tel, t), reference.edge_ages(tel, t)
        assert list(ages.items()) == list(want_ages.items())
        assert all(type(age) is float for age in ages.values())
        assert snapshot_at(tel, t) == reference.snapshot_at(tel, t)


def test_interval_table_on_hand_stream():
    # (0,1): add, duplicate add, delete, then re-added and left open;
    # (1,0): a no-op delete, then add/delete/re-add at one tick.
    tel = TemporalEdgeList.from_records(
        [(0, 1, 1, 0), (1, 0, -1, 1), (0, 1, 1, 2), (0, 1, -1, 3),
         (1, 0, 1, 3), (1, 0, -1, 3), (1, 0, 1, 3), (0, 1, 1, 4)], n=2)
    iv = tel.intervals
    assert iv.key.tolist() == [1, 1, 2, 2]
    assert iv.start.tolist() == [0, 7, 4, 6]
    assert iv.end.tolist() == [3, -1, 5, -1]
    assert iv.censored.tolist() == [False, True, False, True]
    # The times of those events; a censored interval ends at the last time.
    assert iv.start_time.tolist() == [0, 4, 3, 3]
    assert iv.end_time.tolist() == [3, 4, 3, 4]
    assert tel.stats.duplicate_adds == 1 and tel.stats.noop_deletes == 1
    assert tel.live_keys(3).tolist() == [2]
    assert tel.live_keys(4).tolist() == [1, 2]


def test_event_columns_and_table_are_read_only():
    tel = read_events(io.StringIO("a\tb\t+1\t1\na\tb\t-1\t2\n"))
    iv = tel.intervals
    for arr in (tel.src, tel.dst, tel.sign, tel.time, iv.key, iv.start, iv.end,
                iv.start_time, iv.end_time):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_nan_time_is_rejected():
    tel = TemporalEdgeList.from_records([(0, 1, 1, 0)], n=2)
    for query in (tel.live_keys, lambda t: snapshot_at(tel, t),
                  lambda t: edge_ages(tel, t)):
        with pytest.raises(ValueError, match="NaN"):
            query(float("nan"))


def test_ages_and_snapshots_near_the_top_of_int64():
    # Times above 2**53 up to 2**63 - 1, queried at ints (exact, also beyond
    # uint64 and below int64), floats (which the times round to) and numpy
    # scalars: the ages keep their keys, order and float bits, and a
    # censored interval stays present at 2.0**63, which its time rounds to.
    top = 2**63 - 1
    tel = TemporalEdgeList.from_records(
        [(0, 1, 1, 2**53 + 1), (1, 2, 1, 2**53 + 3), (0, 1, -1, top - 1000),
         (2, 0, 1, top - 1), (1, 2, -1, top), (0, 2, 1, top)], n=3)
    queries = [2**53, 2**53 + 1, 2**53 + 2, 2.0**53 + 2, 2.0**53 + 4,
               top - 1000, float(top - 1000), top - 1, top, float(top), 2**63,
               2**64 - 1, 2**64, 2**70, -2**70, np.int64(top - 1),
               np.uint64(2**64 - 1), np.float64(2.0**62), np.float32(2.0**62)]
    for t in queries:
        got, want = edge_ages(tel, t), reference.edge_ages(tel, t)
        assert list(got) == list(want), t
        assert [struct.pack("<d", age) for age in got.values()] == \
            [struct.pack("<d", age) for age in want.values()], t
        assert all(type(age) is float for age in got.values())
        if t < 2**63:
            assert snapshot_at(tel, t) == reference.snapshot_at(tel, t), t
    assert list(edge_ages(tel, 2.0**63)) == [(2, 0), (0, 2)]
    assert snapshot_at(tel, 2**70) == snapshot_at(tel, math.inf)
    assert snapshot_at(tel, -2**70).edge_count == 0
