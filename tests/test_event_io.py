"""The event-file byte kernels against the line loop and the f-string writer.

``read_events`` parses a canonical file given by path in blocks with numpy
and falls back to the line loop for anything else; file objects always
take the loop.  Every path read here is compared with the loop's reading
of the same text, results and errors alike, numbers of every digit width
included.  ``write`` gathers each chunk of rows from byte pieces; its
output is compared with ``tests/reference_events.py``, for short, long,
non-ASCII and title-like tokens, and for times of every width.
The stable orders under every read come from ``_stable_order``; it is
compared with numpy's stable argsort at and just past the widest value
range its packed keys hold, and so is a file whose times reach past it.
Times beyond int64 are rejected with their line number.
"""

import gc
import io
import itertools
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_replay
from linkdecay import events
from linkdecay.cli import main
from linkdecay.evaluation import edge_ages, edge_lifetimes
from linkdecay.events import TemporalEdgeList, read_events
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import snapshot_at
from reference_events import write_events

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300,
                    database=None)

NODES = ["0", "1", "2", "7", "10", "42", "999", "123456789012345678"]
SIGNS = ["+1", "1", "-1"]

#: Lines the block parser refuses, so the whole file goes to the line loop.
#: Some of them the loop accepts, some it rejects with a line number.
TRIGGERS = {
    "blank line": b"\n",
    "comment": b"# note\n",
    "spaces": b"1 2 +1 5\n",
    "crlf": b"1\t2\t+1\t5\r\n",
    "bom": b"\xef\xbb\xbf1\t2\t+1\t5\n",
    "non-ascii token": "é\t2\t+1\t5\n".encode(),
    "string token": b"a\tb\t+1\t5\n",
    "leading-zero token": b"01\t2\t+1\t5\n",
    "plus time": b"1\t2\t+1\t+7\n",
    "minus zero time": b"1\t2\t+1\t-0\n",
    "underscore time": b"1\t2\t+1\t1_0\n",
    "19-digit token": b"1234567890123456789\t2\t+1\t5\n",
    "19-digit time": b"1\t2\t+1\t1234567890123456789\n",
    "trailing tab": b"1\t2\t+1\t5\t\n",
    "bad sign": b"1\t2\t+2\t5\n",
    "three fields": b"1\t2\t+1\n",
    "negative time": b"1\t2\t+1\t-3\n",
    "invalid utf-8": b"\xff\t2\t+1\t5\n",
}


def _outcome(read):
    """What a read gives: the stream's contents, or the error it raises."""
    try:
        tel = read()
    except ValueError as exc:  # EventFormatError, UnicodeDecodeError
        return type(exc), str(exc)
    iv = tel.intervals
    columns = (tel.src, tel.dst, tel.sign, tel.time, iv.key, iv.start, iv.end,
               iv.start_time, iv.end_time)
    return (tel.node_ids, [(a.dtype.str, a.tolist()) for a in columns],
            tel.stats.as_dict())


def _check_equivalent(path, data, **kwargs):
    """The path read equals the loop's reads of a text handle on the file
    and, where the bytes are text, of a ``StringIO``."""
    path.write_bytes(data)
    got = _outcome(lambda: read_events(str(path), **kwargs))
    with open(path, encoding="utf-8") as handle:
        assert got == _outcome(lambda: read_events(handle, **kwargs))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return got
    assert got == _outcome(lambda: read_events(io.StringIO(text), **kwargs))
    return got


@st.composite
def event_files(draw):
    """Canonical lines (self-loops, leading-zero times and every sign
    spelling included), maybe with one trigger line, maybe without the
    final newline."""
    times = st.one_of(st.integers(0, 30), st.integers(0, 10**18 - 1))
    lines = draw(st.lists(
        st.builds(lambda u, v, s, z, t: f"{u}\t{v}\t{s}\t{'0' * z}{t}\n",
                  st.sampled_from(NODES), st.sampled_from(NODES),
                  st.sampled_from(SIGNS), st.integers(0, 1), times)
        .map(str.encode), max_size=40))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, TRIGGERS[draw(st.sampled_from(sorted(TRIGGERS)))])
    data = b"".join(lines)
    if data and draw(st.booleans()):
        data = data[:-1]
    return data


@SETTINGS
@given(event_files(), st.sampled_from(["skip", "error"]), st.booleans(),
       st.one_of(st.integers(1, 200), st.just(events._BLOCK)))
def test_path_read_equals_line_loop(tmp_path_factory, data, self_loops,
                                    strict_deletes, block):
    path = tmp_path_factory.mktemp("io") / "events.tsv"
    with mock.patch.object(events, "_BLOCK", block):
        _check_equivalent(path, data, self_loops=self_loops,
                          strict_deletes=strict_deletes)


@pytest.mark.parametrize("name", sorted(TRIGGERS))
@pytest.mark.parametrize("block", [7, events._BLOCK])
def test_each_trigger_falls_back_to_the_loop(tmp_path, name, block):
    data = b"3\t4\t+1\t1\n" + TRIGGERS[name] + b"4\t3\t-1\t2\n"
    path = tmp_path / "events.tsv"
    path.write_bytes(data)
    with open(path, "rb") as raw, mock.patch.object(events, "_BLOCK", block):
        assert events._canonical_columns(raw) is None
    _check_equivalent(path, data)


def test_block_parser_stops_at_an_overlong_line(tmp_path):
    # No canonical line is longer than _MAX_LINE bytes, so the parser gives
    # up there instead of carrying a newline-free file block after block.
    path = tmp_path / "events.tsv"
    path.write_bytes(b"1\t2\t+1\t5\n" + b"x" * 100_000)
    with open(path, "rb") as raw, mock.patch.object(events, "_BLOCK", 16):
        assert events._canonical_columns(raw) is None
        assert raw.tell() <= 16 + events._MAX_LINE + 16


def test_fallback_closes_what_it_opens(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text("swim\tsurf\t+1\t3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_events(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_self_loop_under_error_falls_back_for_the_line_number(tmp_path):
    path = tmp_path / "events.tsv"
    data = b"1\t2\t+1\t1\n5\t5\t+1\t2\n"
    kind, message = _check_equivalent(path, data, self_loops="error")
    assert message == "line 2: self-loop '5' -> '5'"
    got = _check_equivalent(path, data)
    assert got[2]["self_loops_skipped"] == 1
    assert got[0] == ["1", "2"]


def test_empty_and_unterminated_files(tmp_path):
    path = tmp_path / "events.tsv"
    assert _check_equivalent(path, b"")[0] == []
    got = _check_equivalent(path, b"12\t3\t-1\t0007")
    assert got[0] == ["12", "3"]
    assert got[1][3] == ("<i8", [7])


def test_strict_deletes_error_from_the_block_path(tmp_path):
    path = tmp_path / "events.tsv"
    kind, message = _check_equivalent(path, b"1\t2\t-1\t5\n3\t4\t-1\t3\n",
                                      strict_deletes=True)
    assert message == "delete of absent edge (2, 3) at event index 0"


#: Digit counts around the 8-digit words the block parser reads numbers in.
WIDTHS = (1, 7, 8, 9, 16, 17, 18)


def _digits(rng, width, lead):
    """A ``width``-digit decimal; the first digit is from ``lead``."""
    return str(rng.choice(lead)) + "".join(map(str, rng.integers(0, 10, width - 1)))


@pytest.mark.parametrize("block", [23, events._BLOCK])
def test_fields_of_every_digit_width_match_the_loop(tmp_path, block):
    # Every (src, dst, time) width triple, with the smallest and largest
    # numbers of each width among them; times may have leading zeros.  A
    # 23-byte block puts each line at the start of its own block.
    rng = np.random.default_rng(4)
    lines = []
    for a, b, c in itertools.product(WIDTHS, repeat=3):
        u = _digits(rng, a, [1, 9] if a > 1 else [0, 5, 9])
        v = _digits(rng, b, [1, 9] if b > 1 else [0, 5, 9])
        lines.append(f"{u}\t{v}\t{rng.choice(SIGNS)}\t{_digits(rng, c, [0, 1, 9])}\n")
    for width in WIDTHS:
        low, high = "1".ljust(width, "0"), "9" * width
        lines.append(f"{high}\t{low}\t-1\t{high}\n{low}\t{high}\t+1\t{'0' * width}\n")
    text = "".join(lines)
    path = tmp_path / "events.tsv"
    path.write_text(text)
    with mock.patch.object(events, "_BLOCK", block), \
            mock.patch.object(events, "_read_lines",
                              side_effect=AssertionError("the line loop ran")):
        got = _outcome(lambda: read_events(str(path)))
    assert got == _outcome(lambda: read_events(io.StringIO(text)))
    assert got[2]["self_loops_skipped"] < 5


@pytest.fixture()
def generated(tmp_path):
    """A ``gen``-written canonical file longer than one block."""
    path = tmp_path / "gen.tsv"
    generate(GenConfig(seed=5, n_nodes=400, n_add_events=20000)).write(str(path))
    assert path.stat().st_size > events._BLOCK
    return path


def test_canonical_path_takes_the_block_parser(generated, monkeypatch):
    expected = _outcome(lambda: read_events(io.StringIO(generated.read_text())))

    def refuse(*args, **kwargs):
        raise AssertionError("the line loop ran on a canonical file")

    monkeypatch.setattr(events, "_read_lines", refuse)
    assert _outcome(lambda: read_events(str(generated))) == expected
    assert _outcome(lambda: read_events(generated)) == expected


def test_file_objects_and_string_tokens_take_the_loop(generated, tmp_path):
    calls = []
    loop = events._read_lines

    def spy(*args):
        calls.append(args[0])
        return loop(*args)

    with mock.patch.object(events, "_read_lines", spy):
        with open(generated, encoding="utf-8") as handle:
            read_events(handle)
        path = tmp_path / "words.tsv"
        path.write_text("swim\tsurf\t+1\t3\nsurf\tswim\t+1\t4\n")
        tel = read_events(str(path))
    assert len(calls) == 2
    assert tel.node_ids == ["swim", "surf"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_path_that_cannot_seek_takes_the_loop(tmp_path):
    # A named pipe cannot be read twice, so the block parser, whose refusal
    # sends the file back to the start, does not read it even when it is
    # canonical; the loop gives the stream the text gives.
    text = "1\t2\t+1\t3\n2\t1\t+1\t4\n1\t2\t-1\t5\n3\t3\t+1\t6\n"
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with mock.patch.object(events, "_canonical_columns",
                           side_effect=AssertionError("the block parser ran")):
        got = _outcome(lambda: read_events(str(fifo)))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _outcome(lambda: read_events(io.StringIO(text)))
    assert got[0] == ["1", "2"] and got[2]["self_loops_skipped"] == 1


# ---- writer ----

TOKEN_CHARS = ["a", "7", "é", "中", "\U0001f600", "\udcff", "\udc80",
               "\ud800", " ", "\x00"]


@st.composite
def streams(draw):
    """Streams over arbitrary tokens: non-ASCII, lone surrogates and
    characters a parsed file cannot hold, in tokens of one 8-byte word or
    of several."""
    letters = st.sampled_from(TOKEN_CHARS)
    tokens = draw(st.lists(st.one_of(st.text(letters, max_size=4),
                                     st.text(letters, min_size=5, max_size=24)),
                           min_size=2, max_size=8, unique=True))
    n = len(tokens)
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([1, -1]),
                  st.one_of(st.integers(0, 99), st.integers(0, 2**63 - 1)))
        .filter(lambda r: r[0] != r[1]), max_size=30))
    return TemporalEdgeList.from_records(records, node_ids=tokens)


def _written(write, tel, target):
    try:
        write(tel, target)
    except UnicodeEncodeError as exc:
        return type(exc)
    return None


@SETTINGS
@given(streams(), st.integers(1, 9))
def test_writer_matches_reference(tmp_path_factory, tel, rows):
    # The byte kernel is compared on every token; the refusal of tokens a
    # reader would not give back is tested in test_events.py.  The text
    # budget of a chunk is ``rows`` rows of the stream's mean size, so
    # chunks hold about 1-9 rows.
    want = io.StringIO()
    write_events(tel, want)
    row_bytes = len(want.getvalue().encode("utf-8", "surrogatepass")) // max(len(tel), 1)
    with mock.patch.object(events, "_WRITE_BYTES", 4 * rows * max(row_bytes, 1)), \
            mock.patch.object(events, "_check_tokens", lambda *args: None):
        got = io.StringIO()
        tel.write(got)
        assert got.getvalue() == want.getvalue()

        folder = tmp_path_factory.mktemp("write")
        for errors in ("strict", "surrogateescape"):
            outcomes = []
            for name, write in (("got", TemporalEdgeList.write),
                                ("want", write_events)):
                path = folder / f"{name}-{errors}.tsv"
                with open(path, "w", encoding="utf-8", errors=errors) as handle:
                    failed = _written(write, tel, handle)
                outcomes.append((failed, None if failed else path.read_bytes()))
            assert outcomes[0] == outcomes[1]
        outcomes = [_written(write, tel, str(folder / f"{name}-path.tsv"))
                    for name, write in (("got", TemporalEdgeList.write),
                                        ("want", write_events))]
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is None:
            assert ((folder / "got-path.tsv").read_bytes()
                    == (folder / "want-path.tsv").read_bytes())


def test_writer_empty_stream(tmp_path):
    tel = TemporalEdgeList.from_records([], n=3)
    buffer = io.StringIO()
    tel.write(buffer)
    assert buffer.getvalue() == ""
    path = tmp_path / "empty.tsv"
    tel.write(str(path))
    assert path.read_bytes() == b""


def test_writer_matches_reference_on_a_generated_stream(generated, tmp_path):
    tel = read_events(str(generated))
    tel.write(str(tmp_path / "got.tsv"))
    write_events(tel, str(tmp_path / "want.tsv"))
    assert ((tmp_path / "got.tsv").read_bytes()
            == (tmp_path / "want.tsv").read_bytes() == generated.read_bytes())


def test_times_of_every_width_are_written_as_str():
    # A time field is the sign, a tab, str(time) and a newline, for every
    # digit width from 1 to 19, 10**k - 1, 10**k and 10**k + 1, and
    # int64's maximum; each time is written twice, in one chunk or across
    # two.  Negative int64 values never reach the writer: a stream refuses
    # them.
    info = np.iinfo(np.int64)
    for value in (-1, -10, info.min, info.min + 1):
        with pytest.raises(events.EventFormatError, match="^negative timestamp$"):
            TemporalEdgeList.from_records([(0, 1, 1, value)], n=2)
    times = sorted({0, 1, 9, info.max} | {10**k + d for k in range(1, 19)
                                          for d in (-1, 0, 1)})
    assert {len(str(t)) for t in times} == set(range(1, 20))
    records = [(k % 2, 1 - k % 2, sign, t) for k, t in enumerate(times)
               for sign in (1, -1)]
    tel = TemporalEdgeList.from_records(records, n=2)
    want = io.StringIO()
    write_events(tel, want)
    # A chunk per row, or one chunk.
    for budget in (4, events._WRITE_BYTES):
        got = _Chunks()
        with mock.patch.object(events, "_WRITE_BYTES", budget):
            tel.write(got)
        assert got.getvalue() == want.getvalue()
        assert len(got.lines) == (len(tel) if budget == 4 else 1)


class _Chunks(io.StringIO):
    """A text target that records the lines and UTF-8 bytes of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []
        self.sizes = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        self.sizes.append(len(text.encode("utf-8", "surrogatepass")))
        return super().write(text)


def test_long_token_matches_reference_within_the_chunk_budget(tmp_path):
    # Rows with a 300-character token are cut into more chunks, by their
    # real bytes: each chunk holds about _WRITE_BYTES // 4 bytes of text,
    # at most one row more, and the whole write allocates a few times
    # _WRITE_BYTES at most.
    long = "ab中\U0001f600\udc80" * 60
    rng = np.random.default_rng(3)
    src = rng.integers(0, 3, 4000)
    records = np.column_stack((src, (src + rng.integers(1, 3, 4000)) % 3,
                               rng.choice([1, -1], 4000), rng.integers(0, 2**62, 4000)))
    tel = TemporalEdgeList.from_records(records, node_ids=[long, "b", "中"])

    chunks, want = _Chunks(), io.StringIO()
    tel.write(chunks)
    write_events(tel, want)
    assert chunks.getvalue() == want.getvalue()
    assert sum(chunks.lines) == 4000 and len(chunks.lines) > 1
    row = max(len(line.encode("utf-8", "surrogatepass"))
              for line in want.getvalue().splitlines(keepends=True))
    assert max(chunks.sizes) <= events._WRITE_BYTES // 4 + row

    got = tmp_path / "got.tsv"
    with open(got, "w", encoding="utf-8", errors="surrogateescape") as handle:
        tracemalloc.start()
        try:
            tel.write(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got.read_bytes() == want.getvalue().encode("utf-8", "surrogateescape")
    assert peak <= 8 * events._WRITE_BYTES


def _traced_write_peak(tel, path):
    tracemalloc.start()
    try:
        tel.write(str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_long_token_does_not_widen_every_row(tmp_path):
    # One 300-character token among 20k nodes costs the rows that hold it,
    # not a row as wide as itself for every node: the write's traced peak
    # stays within 1.5 times that of the same stream with short tokens.
    tel = generate(GenConfig(seed=0, n_nodes=20_000, n_add_events=40_000))
    tokens = list(tel.node_ids)
    tokens[0] = "L" * 300
    long = TemporalEdgeList(tel.src, tel.dst, tel.sign, tel.time, tokens)
    short_peak = _traced_write_peak(tel, tmp_path / "short.tsv")
    long_peak = _traced_write_peak(long, tmp_path / "long.tsv")
    assert long_peak <= 1.5 * short_peak
    want = tmp_path / "want.tsv"
    write_events(long, str(want))
    assert (tmp_path / "long.tsv").read_bytes() == want.read_bytes()


#: Letters of title-like tokens, non-ASCII ones of 2, 3 and 4 UTF-8 bytes
#: included.
TITLE_LETTERS = (list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_(),.'-")
                 + ["é", "ß", "ж", "ā", "中", "\U0001f600"])


def _title_tokens(rng, n):
    """``n`` distinct title-like tokens of log-normal length (median about
    14 characters), at most 255 characters long."""
    lengths = np.clip(np.rint(rng.lognormal(np.log(14), 0.9, n)), 1, 255).astype(int)
    letters = rng.choice(TITLE_LETTERS, size=int(lengths.sum())).tolist()
    starts = (np.cumsum(lengths) - lengths).tolist()
    return [f"{i}:{''.join(letters[a:a + k])}"[:255]
            for i, (a, k) in enumerate(zip(starts, lengths.tolist()))]


@pytest.mark.parametrize("relabel", ["title tokens", "distinct 18-digit times"])
def test_writer_matches_reference_on_a_relabelled_stream(tmp_path, relabel):
    # A generated stream whose nodes become seeded page-title-like tokens,
    # or whose times become distinct 18-digit numbers.
    tel = generate(GenConfig(seed=2, n_nodes=3000, n_add_events=12_000))
    rng = np.random.default_rng(12)
    tokens, time = tel.node_ids, tel.time
    if relabel == "title tokens":
        tokens = _title_tokens(rng, tel.node_count)
        assert max(map(len, tokens)) == 255
        assert any(not token.isascii() for token in tokens)
    else:
        time = 10**17 + np.cumsum(rng.integers(1, 10**12, len(tel)))
        assert len(str(int(time[-1]))) == 18
    tel = TemporalEdgeList(tel.src, tel.dst, tel.sign, time, tokens)
    got, want = _Chunks(), io.StringIO()
    tel.write(got)
    write_events(tel, want)
    assert got.getvalue() == want.getvalue()
    assert len(got.lines) > 1
    tel.write(str(tmp_path / "got.tsv"))
    write_events(tel, str(tmp_path / "want.tsv"))
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


@st.composite
def node_values(draw):
    """Node values as ``(k, 2)`` pairs, as the block parser hands them
    over, or flat; small values repeat, and ``10**18 - 1`` is the largest
    a canonical token holds."""
    values = draw(st.lists(st.one_of(st.integers(0, 5), st.just(10**18 - 1),
                                     st.integers(0, 10**18 - 1)),
                           max_size=40))
    if draw(st.booleans()):
        return np.array(values[:len(values) // 2 * 2],
                        dtype=np.int64).reshape(-1, 2)
    return np.array(values, dtype=np.int64)


@SETTINGS
@given(node_values())
@example(np.empty((0, 2), dtype=np.int64))
@example(np.empty(0, dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([[3, 3], [3, 3]], dtype=np.int64))
@example(np.array([[10**18 - 1, 0], [0, 10**18 - 1]], dtype=np.int64))
def test_first_seen_ids_match_the_stable_unique(values):
    # The construction the numbering replaced: a stable np.unique with
    # return_index, then the distinct values ranked by first position.
    unique, first, inverse = np.unique(values, return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(unique), dtype=np.int64)
    rank[order] = np.arange(len(unique))
    want = rank[inverse].reshape(values.shape)
    ids, tokens = events._first_seen_ids(values)
    assert ids.shape == values.shape
    assert ids.dtype == want.dtype
    assert np.array_equal(ids, want)
    assert tokens == [str(value) for value in unique[order].tolist()]


# ---- the packed-key stable order ----

INT64 = np.iinfo(np.int64)


def _packed_span(m: int) -> int:
    """The first value range whose packed keys overflow for ``m`` values."""
    return 1 << (63 - (m - 1).bit_length())


@st.composite
def sort_inputs(draw):
    """int64 arrays with heavy ties around zero, over the whole int64
    range, of the two extremes, or spanning the widest range the packed
    keys hold or one more."""
    kind = draw(st.sampled_from(["ties", "any", "extremes", "edge"]))
    if kind == "edge":
        m = draw(st.integers(2, 60))
        span = _packed_span(m) - draw(st.integers(0, 1))
        low = draw(st.one_of(st.just(INT64.min), st.just(INT64.max - span),
                             st.integers(INT64.min, INT64.max - span)))
        inner = st.one_of(st.sampled_from([low, low + span]),
                          st.integers(low, low + span))
        values = [low, low + span] + draw(st.lists(inner, min_size=m - 2,
                                                   max_size=m - 2))
        return np.array(draw(st.permutations(values)), dtype=np.int64)
    element = {"ties": st.integers(-3, 3),
               "any": st.integers(INT64.min, INT64.max),
               "extremes": st.sampled_from([INT64.min, INT64.max, -1, 0])}[kind]
    return np.array(draw(st.lists(element, max_size=60)), dtype=np.int64)


@SETTINGS
@given(sort_inputs())
@example(np.empty(0, dtype=np.int64))
@example(np.array([-7], dtype=np.int64))
@example(np.full(40, 3, dtype=np.int64))
@example(np.array([INT64.max, INT64.min, INT64.max, INT64.min], dtype=np.int64))
def test_stable_order_is_the_stable_argsort(values):
    want = np.argsort(values, kind="stable")
    got = events._stable_order(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [2, 3, 9, 1000, 1025])
@pytest.mark.parametrize("low", ["min", "negative", "max"])
@pytest.mark.parametrize("beyond", [0, 1])
def test_stable_order_falls_back_only_when_keys_overflow(m, low, beyond):
    # A range of 2**(63 - bits) - 1 still packs; one more takes the stable
    # argsort.
    span = _packed_span(m) - 1 + beyond
    low = {"min": INT64.min, "negative": -5, "max": INT64.max - span}[low]
    rng = np.random.default_rng(m)
    values = rng.choice([low, low + span, low + span // 2], size=m)
    values[:2] = low + span, low
    want = np.argsort(values, kind="stable")
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        got = events._stable_order(values)
    assert argsort.call_count == beyond
    assert np.array_equal(got, want)


def test_widest_canonical_times_match_the_loop_and_the_reference(tmp_path):
    # Times 0 and 10**18 - 1 are the widest a canonical line holds.  Over
    # nine or more events they span more than the packed keys do, so the
    # time order takes the stable argsort; the edge keys still pack.
    top = 10**18 - 1
    records = [("1", "2", "+1", top), ("2", "1", "+1", 0), ("1", "2", "-1", 0),
               ("1", "2", "+1", top), ("30", "1", "+1", 5), ("1", "2", "-1", top),
               ("2", "1", "-1", top), ("30", "1", "+1", 0), ("1", "30", "+1", 7),
               ("2", "30", "-1", top), ("2", "1", "+1", top)]
    path = tmp_path / "events.tsv"
    path.write_text("".join("\t".join(map(str, r)) + "\n" for r in records))
    with mock.patch.object(events, "_read_lines",
                           side_effect=AssertionError("the line loop ran")), \
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        tel = read_events(str(path))
    assert [call.kwargs for call in argsort.call_args_list].count(
        {"kind": "stable"}) == 1
    assert _outcome(lambda: tel) == _outcome(
        lambda: read_events(io.StringIO(path.read_text())))

    ranked = sorted(records, key=lambda r: r[3])
    assert [(tel.node_ids[u], tel.node_ids[v], s, t) for u, v, s, t in
            zip(tel.src.tolist(), tel.dst.tolist(), tel.sign.tolist(),
                tel.time.tolist())] == \
        [(u, v, 1 if s == "+1" else -1, t) for u, v, s, t in ranked]
    assert tel.stats == reference_replay.replay_scan(tel.src, tel.dst,
                                                     tel.sign, False)
    got, want = edge_lifetimes(tel), reference_replay.edge_lifetimes(tel)
    assert got.durations.tolist() == want.durations.tolist()
    assert got.censored.tolist() == want.censored.tolist()
    for t in (-1, 0, 5, 7, top - 1, top, top + 1):
        assert edge_ages(tel, t) == reference_replay.edge_ages(tel, t)
        assert snapshot_at(tel, t) == reference_replay.snapshot_at(tel, t)


# ---- times beyond int64 ----

@pytest.mark.parametrize("time, accepted", [(INT64.max, True),
                                            (INT64.max + 1, False),
                                            (10**20 - 1, False)])
def test_time_beyond_int64_names_its_line(tmp_path, time, accepted):
    # More than 18 digits is not canonical, so a path read takes the loop.
    data = f"1\t2\t+1\t3\n2\t1\t+1\t{time}\n".encode()
    got = _check_equivalent(tmp_path / "events.tsv", data)
    if accepted:
        assert got[1][3] == ("<i8", [3, time])
    else:
        assert got == (events.EventFormatError,
                       f"line 2: time must be at most {INT64.max}, got {time}")


def test_ingest_time_beyond_int64_is_data_error(tmp_path, capsys):
    path = tmp_path / "events.tsv"
    path.write_text("1\t2\t+1\t99999999999999999999\n2\t1\t+1\t3\n")
    assert main(["ingest", "--input", str(path), "--output", "-"]) == 2
    assert "line 1: time must be at most 9223372036854775807" in \
        capsys.readouterr().err


# ---- standard input ----

def test_ingest_from_stdin_takes_the_loop(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("x\ty\t1\t2\n\ny\tx\t+1\t1\n"))
    out = tmp_path / "out.tsv"
    assert main(["ingest", "--input", "-", "--output", str(out)]) == 0
    assert out.read_text() == "y\tx\t+1\t1\nx\ty\t+1\t2\n"
