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
