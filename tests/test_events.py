"""Event-file parsing, validation, and round-trip behavior."""

import io

import numpy as np
import pytest

from linkdecay.events import (EdgeEvent, EventFormatError, TemporalEdgeList,
                              read_events, read_id_map)


def _read(text, **kwargs):
    return read_events(io.StringIO(text), **kwargs)


def test_empty_stream():
    tel = _read("")
    assert len(tel) == 0
    assert tel.node_count == 0


def test_two_events_two_nodes():
    tel = _read("a\tb\t+1\t10\na\tb\t-1\t80\n")
    assert len(tel) == 2
    assert tel.node_count == 2
    events = list(tel.events)
    assert events[0] == EdgeEvent(0, 1, 1, 10)
    assert events[1] == EdgeEvent(0, 1, -1, 80)
    assert events[0].is_add and not events[1].is_add


def test_whitespace_and_comments():
    tel = _read("# header comment\na b +1 10\n\n  \nb\tc\t1\t20\n")
    assert len(tel) == 2
    # bare "1" is accepted as an add sign
    assert list(tel.sign) == [1, 1]


def test_node_ids_first_seen_order():
    tel = _read("x\ty\t+1\t5\nz\tx\t+1\t3\n")
    assert tel.node_ids == ["x", "y", "z"]
    # events come back time-sorted even though input was not
    assert list(tel.time) == [3, 5]


def test_stable_sort_preserves_input_order_at_equal_times():
    tel = _read("a\tb\t+1\t7\nc\td\t+1\t7\na\tc\t+1\t7\n")
    pairs = [(e.src, e.dst) for e in tel.events]
    assert pairs == [(0, 1), (2, 3), (0, 2)]


def test_self_loop_skip_policy_counts_and_drops():
    tel = _read("a\ta\t+1\t5\n")
    assert len(tel) == 0
    assert tel.stats.self_loops_skipped == 1
    # skipped records register no node ids
    assert tel.node_count == 0


def test_self_loop_error_policy():
    with pytest.raises(EventFormatError, match="line 1"):
        _read("a\ta\t+1\t5\n", self_loops="error")


def test_bad_self_loop_policy_rejected():
    with pytest.raises(ValueError):
        _read("a\tb\t+1\t5\n", self_loops="ignore")


@pytest.mark.parametrize("line,fragment", [
    ("a\tb\t+1\n", "line 1"),            # too few fields
    ("a\tb\t+1\t10\textra\n", "line 1"),  # too many fields
    ("a\tb\t+2\t10\n", "sign"),
    ("a\tb\t+1\t-3\n", "must be >= 0"),
    ("a\tb\t+1\tten\n", "line 1"),
])
def test_malformed_lines(line, fragment):
    with pytest.raises(EventFormatError, match=fragment):
        _read(line)


def test_error_reports_correct_line_number():
    with pytest.raises(EventFormatError, match="line 3"):
        _read("a\tb\t+1\t1\n# fine\nbroken line\n")


def test_noop_delete_counted_by_default():
    tel = _read("a\tb\t-1\t5\n")
    assert len(tel) == 1
    assert tel.stats.noop_deletes == 1


def test_noop_delete_strict_mode_raises():
    with pytest.raises(EventFormatError, match="absent edge"):
        _read("a\tb\t-1\t5\n", strict_deletes=True)


def test_strict_deletes_reports_first_noop_in_time_order():
    # Node ids a=0, b=1, c=2, d=3: the no-op delete of (2, 3) comes first in
    # time but last in key order.
    text = "a\tb\t-1\t5\nc\td\t-1\t3\n"
    with pytest.raises(EventFormatError) as caught:
        _read(text, strict_deletes=True)
    assert str(caught.value) == "delete of absent edge (2, 3) at event index 0"


def test_duplicate_add_counted():
    tel = _read("a\tb\t+1\t5\na\tb\t+1\t9\n")
    assert tel.stats.duplicate_adds == 1


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "events.tsv"
    tel = _read("alpha\tbeta\t+1\t3\nbeta\tgamma\t+1\t4\nalpha\tbeta\t-1\t9\n")
    tel.write(str(path))
    back = read_events(str(path))
    assert back.node_ids == tel.node_ids
    assert np.array_equal(back.src, tel.src)
    assert np.array_equal(back.dst, tel.dst)
    assert np.array_equal(back.sign, tel.sign)
    assert np.array_equal(back.time, tel.time)


def test_id_map_round_trip(tmp_path):
    path = tmp_path / "ids.tsv"
    tel = _read("u\tv\t+1\t1\nw\tu\t+1\t2\n")
    tel.write_id_map(str(path))
    mapping = read_id_map(str(path))
    assert mapping == {"u": 0, "v": 1, "w": 2}


def test_from_records_with_explicit_n():
    tel = TemporalEdgeList.from_records([(0, 1, 1, 5), (1, 2, 1, 6)], n=5)
    assert tel.node_count == 5
    assert tel.node_ids == ["0", "1", "2", "3", "4"]


def test_from_records_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        TemporalEdgeList.from_records([(0, 3, 1, 5)], n=2)


def test_from_records_rejects_self_loop():
    with pytest.raises(ValueError):
        TemporalEdgeList.from_records([(1, 1, 1, 5)], n=3)


def test_from_records_rejects_negative_time():
    with pytest.raises(ValueError):
        TemporalEdgeList.from_records([(0, 1, 1, -2)], n=2)


def _columns(tel):
    return [(a.dtype.str, a.tolist()) for a in (
        tel.src, tel.dst, tel.sign, tel.time, tel.intervals.key,
        tel.intervals.start, tel.intervals.end)]


def test_constructor_builds_what_from_records_builds():
    """The constructor sorts shuffled columns by time (equal times in input
    order), replays them, counts the ingest stats and freezes the columns,
    exactly as from_records does for the same rows."""
    rows = [(0, 1, 1, 3), (0, 1, 1, 3), (1, 2, 1, 0), (0, 1, -1, 7),
            (2, 0, -1, 2), (1, 2, -1, 5), (1, 2, 1, 5), (0, 1, 1, 7),
            (2, 1, 1, 9), (2, 0, 1, 2)]
    rng = np.random.default_rng(7)
    rows = [rows[k] for k in rng.permutation(len(rows))]
    src, dst, sign, time = (np.array(column) for column in zip(*rows))
    given = [column.copy() for column in (src, dst, sign, time)]
    tel = TemporalEdgeList(src, dst, sign, time, ["a", "b", "c"])
    want = TemporalEdgeList.from_records(rows, node_ids=["a", "b", "c"])
    assert _columns(tel) == _columns(want)
    assert tel.node_ids == want.node_ids
    assert tel.stats == want.stats
    assert tel.stats.duplicate_adds and tel.stats.noop_deletes
    got_bytes, want_bytes = io.StringIO(), io.StringIO()
    tel.write(got_bytes)
    want.write(want_bytes)
    assert got_bytes.getvalue() == want_bytes.getvalue()
    for column in (tel.src, tel.dst, tel.sign, tel.time):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    # The caller's columns keep their order and stay writable.
    for column, before in zip((src, dst, sign, time), given):
        assert column.flags.writeable
        assert column.tolist() == before.tolist()


def test_constructor_replays_unsorted_columns_in_time_order():
    """A delete at t=5 given before an add at t=1 is replayed after it:
    a->b is live from t=1 until t=5 and gone at t=6."""
    tel = TemporalEdgeList([0, 0], [1, 1], [-1, 1], [5, 1], ["a", "b"])
    assert (tel.time_first, tel.time_last) == (1, 5)
    assert tel.live_keys(3).tolist() == [1]
    assert tel.live_keys(6).tolist() == []
    assert tel.stats.noop_deletes == 0
    with pytest.raises(EventFormatError, match="delete of absent edge"):
        TemporalEdgeList([0, 0], [1, 1], [1, -1], [5, 1], ["a", "b"],
                         strict_deletes=True)


@pytest.mark.parametrize("columns", [
    ([0, 1], [1, 0], [1, 1], [0]),
    ([0], [1], [1, 1], [0]),
    ([[0, 1]], [[1, 0]], [[1, 1]], [[0, 0]]),
    (0, 1, 1, 0),
], ids=["short-time", "short-sign", "2-d", "0-d"])
def test_constructor_rejects_columns_of_other_shapes(columns):
    with pytest.raises(EventFormatError, match=(
            "^src, dst, sign and time must be 1-d arrays of equal length$")):
        TemporalEdgeList(*columns, ["a", "b"])


@pytest.mark.parametrize("record, shape", [
    ((0, 1, 1), r"\(2, 3\)"),
    ((0, 1, 1, 4, 9), r"\(2, 5\)"),
], ids=["3-fields", "5-fields"])
def test_from_records_rejects_records_of_other_than_four_fields(record, shape):
    """A 3-field record is not an IndexError, and a 5-field one is not cut
    to four fields."""
    with pytest.raises(EventFormatError, match=(
            r"^records must be \(src, dst, sign, time\) tuples, got an "
            rf"array of shape {shape}$")):
        TemporalEdgeList.from_records([record, record], n=3)


def test_repr_is_short_and_equality_is_identity():
    tel = TemporalEdgeList.from_records([(0, 1, 1, 5), (1, 2, 1, 6)], n=5)
    same = TemporalEdgeList.from_records([(0, 1, 1, 5), (1, 2, 1, 6)], n=5)
    assert repr(tel) == "TemporalEdgeList(n=5, events=2)"
    assert repr(TemporalEdgeList.from_records([])) == (
        "TemporalEdgeList(n=0, events=0)")
    assert tel == tel
    assert (tel == same) is False
    assert len({tel, same}) == 2


def test_bad_self_loop_policy_is_checked_before_the_source(tmp_path):
    """The policy is checked on entry: on a path, on a missing path and on
    a file object alike."""
    message = r"^self_loops must be 'skip' or 'error', got 'keep'$"
    path = tmp_path / "events.tsv"
    path.write_text("a\tb\t+1\t1\n")
    for source in (str(path), str(tmp_path / "missing.tsv"),
                   io.StringIO("a\tb\t+1\t1\n")):
        with pytest.raises(ValueError, match=message):
            read_events(source, self_loops="keep")


def test_time_bounds():
    tel = _read("a\tb\t+1\t4\nb\tc\t+1\t19\n")
    assert tel.time_first == 4
    assert tel.time_last == 19


def test_time_bounds_empty_stream_raise():
    tel = _read("")
    with pytest.raises(ValueError):
        tel.time_first
    with pytest.raises(ValueError):
        tel.time_last


def test_write_canonical_signs():
    buf = io.StringIO()
    _read("a\tb\t1\t2\na\tb\t-1\t3\n").write(buf)
    assert buf.getvalue() == "a\tb\t+1\t2\na\tb\t-1\t3\n"


def test_random_streams_round_trip_exactly():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 60))
        lines = []
        live = set()
        for _ in range(k):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            sign = "+1" if (int(i), int(j)) not in live else "-1"
            if sign == "+1":
                live.add((int(i), int(j)))
            else:
                live.discard((int(i), int(j)))
            lines.append(f"n{i}\tn{j}\t{sign}\t{int(rng.integers(0, 100))}")
        text = "\n".join(lines) + "\n" if lines else ""
        tel = _read(text)
        buf = io.StringIO()
        tel.write(buf)
        # the canonical form is a fixed point: sorting may renumber ids
        # relative to the raw input, but a second pass changes nothing
        again = _read(buf.getvalue())
        buf2 = io.StringIO()
        again.write(buf2)
        assert buf2.getvalue() == buf.getvalue()
        assert len(again) == len(tel)


@pytest.mark.parametrize("sign", [0, 2, -2, 5, np.iinfo(np.int64).min])
def test_from_records_rejects_signs_other_than_plus_minus_one(sign):
    with pytest.raises(EventFormatError, match="sign must be"):
        TemporalEdgeList.from_records([(0, 1, 1, 0), (0, 1, sign, 3)], n=2)


def test_id_map_bad_index_names_its_line(tmp_path):
    path = tmp_path / "ids.tsv"
    path.write_text("# node\tindex\nu\t0\nv\tone\n")
    with pytest.raises(EventFormatError,
                       match=r"^line 3: index must be an integer, got 'one'$"):
        read_id_map(str(path))
