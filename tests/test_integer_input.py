"""Caller integers: every array entry point and scalar node check reads them
through one int64 conversion, which takes exact integers and rejects the rest.

The bad-input table pairs each entry point with values an int64 does not
hold exactly (a fraction, NaN, an infinity, ``2**63`` as a Python int and as
a uint64, a string) and with rows of the wrong shape.  Each must raise the
entry point's own error type with the conversion's message, never truncate,
reshape, warn or overflow.  The valid-input table checks that narrower
integer dtypes, Python ints, integral floats and empty input give the
arrays an int64 input gives.
"""

import warnings

import numpy as np
import pytest

from linkdecay.evaluation import average_precision
from linkdecay.events import EventFormatError, TemporalEdgeList, _int64
from linkdecay.graph import DegreeCombination, Graph, _as_pairs, pair_features
from linkdecay.scoring import (Measure, ScoreModel, ScoreSpec, decay_score, score_batch,
                               score_matrix)

SPEC = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, DegreeCombination.SYM)
VALUE = "expected integers that int64 holds"
PAIRS = r"pairs must have shape \(k, 2\)"
RECORDS = r"records must be \(src, dst, sign, time\) tuples"
BIG = 2 ** 63
BIG_U64 = np.array([BIG], dtype=np.uint64)[0]


def _graph():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def _stream_time(value):
    return TemporalEdgeList([0], [1], [1], [value], ["a", "b"])


def _stream_src(value):
    return TemporalEdgeList([value], [1], [1], [0], ["a", "b"])


def _records(value):
    return TemporalEdgeList.from_records([(0, 1, 1, value)], n=2)


def _graph_dst(value):
    return Graph(4, [0], [value])


def _node_count(value):
    return Graph(value, [0], [1])


def _from_edges(value):
    return Graph.from_edges(4, [(0, value)])


def _pair_features(value):
    return pair_features(_graph(), [(0, value)], DegreeCombination.SYM)


def _score_matrix(value):
    return score_matrix(_graph(), [(0, value)], [SPEC])


def _score_batch(value):
    return score_batch(_graph(), np.array([(0, value)], dtype=object), SPEC)


def _average_precision(value):
    return average_precision([((0, value), 0.5, "test"), ((1, 2), 0.25, "zero")])


def _neighbors(value):
    return _graph().neighbors(value)


def _has_edge(value):
    return _graph().has_edge(0, value)


def _decay_score(value):
    return decay_score(_graph(), 0, value, SPEC)


BAD_VALUES = {
    "fraction": 2.7,
    "nan": float("nan"),
    "inf": float("inf"),
    "2**63": BIG,
    "2**63-uint64": BIG_U64,
    "string": "3",
}

# entry point -> (call on one bad value, error type)
VALUE_ENTRY_POINTS = {
    "TemporalEdgeList-time": (_stream_time, EventFormatError),
    "TemporalEdgeList-src": (_stream_src, EventFormatError),
    "from_records": (_records, EventFormatError),
    "Graph-dst": (_graph_dst, ValueError),
    "Graph-node-count": (_node_count, ValueError),
    "from_edges": (_from_edges, ValueError),
    "pair_features": (_pair_features, ValueError),
    "score_matrix": (_score_matrix, ValueError),
    "score_batch": (_score_batch, ValueError),
    "average_precision": (_average_precision, ValueError),
    "neighbors": (_neighbors, ValueError),
    "has_edge": (_has_edge, ValueError),
    "decay_score": (_decay_score, ValueError),
}


def _raises_cleanly(call, error, match):
    """``call()`` raises ``error`` matching ``match``, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match) as info:
            call()
    assert not isinstance(info.value, OverflowError)


@pytest.mark.parametrize("value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
@pytest.mark.parametrize("entry", list(VALUE_ENTRY_POINTS))
def test_value_int64_does_not_hold_is_rejected(entry, value):
    call, error = VALUE_ENTRY_POINTS[entry]
    _raises_cleanly(lambda: call(value), error, VALUE)


def test_float_arrays_are_checked_as_arrays():
    """A float column is checked in one vectorized pass, so its NaN,
    fraction and out-of-range values are rejected as list values are."""
    for bad in (np.nan, 0.5, 2.0 ** 63, -np.inf):
        column = np.array([1.0, bad], dtype=np.float32 if bad == 0.5 else np.float64)
        _raises_cleanly(lambda: Graph(4, np.array([0.0, 2.0]), column), ValueError, VALUE)
        _raises_cleanly(lambda: TemporalEdgeList([0, 1], [1, 0], [1, 1], column, "ab"),
                        EventFormatError, VALUE)


# entry point -> (call on an iterable of rows, shape message)
ROW_ENTRY_POINTS = {
    "from_records": (lambda rows: TemporalEdgeList.from_records(rows, n=6), RECORDS),
    "from_edges": (lambda rows: Graph.from_edges(6, rows), PAIRS),
    "pair_features": (lambda rows: pair_features(_graph(), rows, DegreeCombination.SYM),
                      PAIRS),
    "score_matrix": (lambda rows: score_matrix(_graph(), rows, [SPEC]), PAIRS),
    "score_batch": (lambda rows: score_batch(_graph(), rows, SPEC), PAIRS),
    "average_precision": (lambda rows: average_precision(
        [(row, 0.5, "test") for row in rows]), PAIRS),
}
# A 3-wide table is a shape error everywhere already, except where it was
# flattened into pairs; ragged rows were a bare numpy error everywhere.
BAD_ROWS = {
    "ragged": {name: [(0, 1, 1, 0), (0, 1, 1)] if name == "from_records"
               else [(0, 1), (2,)] for name in ROW_ENTRY_POINTS},
    "3-wide": {"from_edges": [(0, 1, 2), (3, 4, 5)],
               "pair_features": np.array([(0, 1, 2), (3, 1, 2)]),
               "average_precision": [(0, 1, 2), (3, 1, 2)]},
}


@pytest.mark.parametrize("entry, rows", [
    (entry, rows) for kind in BAD_ROWS.values() for entry, rows in kind.items()],
    ids=[f"{entry}-{kind}" for kind in BAD_ROWS for entry in BAD_ROWS[kind]])
def test_rows_of_another_shape_are_rejected(entry, rows):
    call, message = ROW_ENTRY_POINTS[entry]
    error = EventFormatError if entry == "from_records" else ValueError
    _raises_cleanly(lambda: call(rows), error, message)


def test_an_empty_row_is_a_row_of_another_shape():
    """Only input with no rows is zero rows; one row of no values is a row
    of the wrong width, for pairs as for records."""
    _raises_cleanly(lambda: score_matrix(_graph(), [[]], [SPEC]), ValueError,
                    rf"{PAIRS}, got \(1, 0\)")
    _raises_cleanly(lambda: TemporalEdgeList.from_records([()]), EventFormatError,
                    rf"{RECORDS}, got an array of shape \(1, 0\)")


def test_float_node_count_and_float_node_are_rejected():
    _raises_cleanly(lambda: Graph(3.7, [0], [1]), ValueError, f"node count: {VALUE}, got 3.7")
    _raises_cleanly(lambda: _graph().neighbors(1.7), ValueError, f"node: {VALUE}, got 1.7")
    _raises_cleanly(lambda: _graph().degree("3", "out"), ValueError, f"node: {VALUE}, got '3'")


# ---- valid input ----

#: Each accepted kind of caller input, made from int64 values.
KINDS = {
    "int32": lambda values: values.astype(np.int32),
    "uint8": lambda values: values.astype(np.uint8),
    "python-ints": lambda values: values.tolist(),
    "float-list": lambda values: values.astype(np.float64).tolist(),
    "float-array": lambda values: values.astype(np.float64),
}
EDGES = [(0, 1), (2, 0), (1, 2), (3, 2)]
RECORDS_ROWS = [(0, 1, 1, 5), (1, 2, 1, 3), (0, 1, -1, 9), (3, 0, 1, 3)]


def _stream_columns(tel):
    return [tel.src, tel.dst, tel.sign, tel.time]


def _snapshot(g):
    return [g.edges(), g.neighbor_counts]


def _ranking(result):
    return [result.pairs, result.scores, result.positive, np.array([result.ap])]


# entry point -> function of the int64 values, giving comparable arrays.
VALID_ENTRY_POINTS = {
    "TemporalEdgeList": (np.array(RECORDS_ROWS).T, lambda columns: _stream_columns(
        TemporalEdgeList(*columns, list("abcd")))),
    "from_records": (RECORDS_ROWS, lambda rows: _stream_columns(
        TemporalEdgeList.from_records(rows))),
    "Graph": (np.array(EDGES).T, lambda columns: _snapshot(Graph(4, *columns))),
    "from_edges": (EDGES, lambda rows: _snapshot(Graph.from_edges(4, rows))),
    "pair_features": (EDGES, lambda rows: list(
        pair_features(_graph(), rows, DegreeCombination.ASYM))),
    "score_matrix": (EDGES, lambda rows: [score_matrix(_graph(), rows, [SPEC])]),
    "score_batch": (EDGES, lambda rows: [np.array(score_batch(_graph(), rows, SPEC))]),
    "average_precision": (EDGES, lambda rows: _ranking(average_precision(
        zip(rows, [0.5, 0.5, 0.25, 0.75], ["test", "zero", "zero", "test"])))),
    "node-count": ([4], lambda values: _snapshot(Graph(values[0], [0], [3]))),
    "node": ([2, 3], lambda values: [_graph().neighbors(values[0]),
                                     np.array([_graph().has_edge(*values)])]),
}


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry, (values, _) in VALID_ENTRY_POINTS.items()
    for kind in KINDS if kind != "uint8" or np.min(values) >= 0])
def test_exact_integers_give_the_int64_result(entry, kind):
    values, call = VALID_ENTRY_POINTS[entry]
    values = np.asarray(values, dtype=np.int64)
    want = call(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same(call(KINDS[kind](values)), want)


@pytest.mark.parametrize("empty", [[], (), np.empty(0), np.empty((0, 2), np.int32)],
                         ids=["list", "tuple", "float-array", "int32-rows"])
def test_empty_input_is_zero_rows(empty):
    assert Graph.from_edges(3, empty).edge_count == 0
    assert score_matrix(_graph(), empty, [SPEC]).shape == (1, 0)
    assert score_batch(_graph(), empty, SPEC) == []
    assert pair_features(_graph(), empty, DegreeCombination.SYM).cn.tolist() == []
    assert len(TemporalEdgeList.from_records(empty)) == 0


@pytest.mark.parametrize("empty", [[], np.empty(0), np.empty(0, np.uint8)],
                         ids=["list", "float-array", "uint8-array"])
def test_empty_columns_are_zero_events_and_edges(empty):
    assert Graph(3, empty, empty).edge_count == 0
    assert len(TemporalEdgeList(empty, empty, empty, empty, "ab")) == 0


def test_from_records_reads_n_as_graph_reads_its_node_count():
    tel = TemporalEdgeList.from_records([(0, 1, 1, 0)], n=3.0)
    assert tel.node_ids == ["0", "1", "2"]
    assert Graph(3.0, [0], [1]).node_count == tel.node_count
    _raises_cleanly(lambda: TemporalEdgeList.from_records([(0, 1, 1, 0)], n=2.5),
                    EventFormatError, f"node count: {VALUE}, got 2.5")
    _raises_cleanly(lambda: TemporalEdgeList.from_records([], n=-1),
                    EventFormatError, "node count must be >= 0, got -1")


def test_an_int64_array_is_taken_as_it_is():
    """No copy of an int64 column or table: the caller's array is what the
    checks read, and it stays unchanged and writable."""
    src = np.array([0, 2], dtype=np.int64)
    dst = np.array([1, 0], dtype=np.int64)
    pairs = np.column_stack((src, dst))
    assert _int64(src, ValueError, "src", "") is src
    assert _as_pairs(pairs) is pairs
    g = Graph(3, src, dst)
    tel = TemporalEdgeList(src, dst, np.ones(2, np.int64), np.array([4, 2]), "abc")
    assert g.edges().tolist() == [[0, 1], [2, 0]]
    assert tel.time.tolist() == [2, 4] and not tel.time.flags.writeable
    assert src.tolist() == [0, 2] and src.flags.writeable
