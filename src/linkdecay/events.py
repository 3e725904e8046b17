"""Timestamped edge-event streams for evolving directed graphs.

An event file is UTF-8 text with one event per line::

    src<TAB>dst<TAB>sign<TAB>time

where ``sign`` is ``+1`` (edge appears) or ``-1`` (edge disappears) and
``time`` is a non-negative integer tick.  Lines starting with ``#`` and
blank lines are ignored, and so is one byte order mark (BOM, U+FEFF)
opening the file.  This is the usual temporal edge-list layout of
public network datasets, so dumps in that format load directly.

Node identifiers are arbitrary tokens; they are compacted to integer
indices ``0..n-1`` in first-seen order, and the token -> index mapping can
be persisted as a two-column ``node<TAB>index`` file.

A file read by path is first parsed in blocks of bytes with numpy when it
is canonical, as ``write``, ``gen`` and ``ingest`` emit it: every line is
four fields split by single tabs; nodes are ASCII decimals of 1-18 digits
with no leading zero except ``0`` itself; the sign is ``+1``, ``1`` or
``-1``; the time is 1-18 ASCII digits.  Anything else (blank lines,
comments, spaces, ``\\r\\n``, a BOM, non-ASCII or other tokens, longer
numbers, malformed lines) and a self-loop under ``self_loops='error'``
send the whole file to the line loop, which gives the same stream and
every error with its line number.  File objects always take the line
loop, and so does a path that cannot seek.  The block parser reads each
number 8 digits at a time from one unaligned 8-byte word
(:func:`_digit_values`).  Both readers (:func:`_read_blocks`,
:func:`_read_lines`) return the same indexed columns, node tokens and
self-loop count; :func:`read_events` alone builds the stream from them.

``write`` copies each row by span from one byte buffer of pieces
(:func:`_pieces`): every node token with its tab, the two signs with
theirs, and each distinct time's digits with a newline.  A row is four
piece ids, and each chunk of rows, cut by the rows' byte counts, is one
ragged gather (:func:`_gather_rows`), so a long token costs only the rows
that hold it.

Every stream, read from a file, built from records or generated, comes from
the one :class:`TemporalEdgeList` constructor.  It validates the indexed
columns, sorts them by time and replays them once, in one vectorized pass,
into a presence-interval table (:class:`PresenceIntervals`): one row
``(key, start, end)`` per interval in which an edge is present, with
``key = src * n + dst``, ``start`` the event index of the opening add and
``end`` that of the closing delete, or censored when the edge is still
present after the last event; the table keeps the times of both events
too.  The ingest counts of duplicate adds and no-op deletes come from the
same pass.  Snapshots (``start <= t < end`` in event time), lifetimes
(``end - start``) and ages (``t - start``) are all read off this one
table.

Each stable order a load needs (events by time, events by edge key, node
values for first-seen ids) comes from one default numpy sort of distinct
packed int64 keys ``(value - min) << bits | position``
(:func:`_stable_order`).  Only values spanning too wide a range for such a
key, as times up to ``10**18`` over more than eight events can, fall back to
numpy's stable argsort.  Membership in sorted distinct int64 keys, such
as the live edge keys at a time, is one search (:func:`_in_sorted`).
"""

from __future__ import annotations

import io
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO,
                    Union)

import numpy as np

__all__ = [
    "EdgeEvent",
    "EventFormatError",
    "IngestStats",
    "PresenceIntervals",
    "TemporalEdgeList",
    "read_events",
    "read_id_map",
]


class EventFormatError(ValueError):
    """Raised for malformed event lines or invalid event streams."""


class EdgeEvent(NamedTuple):
    """One timestamped edge operation: ``sign`` +1 adds, -1 deletes."""

    src: int
    dst: int
    sign: int
    time: int

    @property
    def is_add(self) -> bool:
        return self.sign > 0


@dataclass
class IngestStats:
    """Diagnostics collected while validating an event stream."""

    self_loops_skipped: int = 0
    noop_deletes: int = 0
    duplicate_adds: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


_SIGNS = {"+1": 1, "1": 1, "-1": -1}
#: The largest time an int64 column holds.
_MAX_TIME = int(np.iinfo(np.int64).max)

PathOrFile = Union[str, Path, TextIO]


def _int64(values, error: type[Exception], what: str, shape_message: str,
           width: int | None = None) -> np.ndarray:
    """Caller values as int64 ``(k, width)`` rows of any iterable (no rows
    as zero rows), or a 1-d column when ``width`` is None.  An int64 array
    is returned as it is; integer dtypes and integral floats are converted.
    A fraction, NaN, an infinity, ``2**63`` or more, a string or another
    object raises ``error`` naming ``what`` and the value, without a
    ``RuntimeWarning``; another shape, ragged rows included, raises
    ``error(shape_message.format(shape))``."""
    arr = values
    if not isinstance(values, np.ndarray):
        values = values if width is None else list(values)
        try:
            arr = np.asarray(values)
        except ValueError:  # ragged rows: a 1-d array of objects
            arr = np.array(values, dtype=object)
    if width is not None and arr.shape[:1] == (0,):
        return np.empty((0, width), dtype=np.int64)
    if arr.ndim != (1 if width is None else 2) or arr.shape[1:] not in ((), (width,)):
        raise error(shape_message.format(arr.shape))
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    if arr is values and arr.dtype.kind == "f":
        top = np.float64(2 ** 63)
        bad = arr[(np.trunc(arr) != arr) | (arr < -top) | (arr >= top)][:1].tolist()
    else:
        # Python values, one by one: a list numpy reads as floats may hold
        # ints above 2**53 that float64 rounds.
        arr = np.array(values, dtype=object)
        bad = [x for x in arr.flat if not (isinstance(x, numbers.Real)
                                           and -2 ** 63 <= x < 2 ** 63 and int(x) == x)][:1]
    if bad:
        raise error(f"{what}: expected integers that int64 holds, got {bad[0]!r}")
    return arr.astype(np.int64)


def _node_count(n, error: type[Exception]) -> int:
    """A caller's node count as an int by :func:`_int64`; a negative one
    raises ``error`` too."""
    n = int(_int64([n], error, "node count", "node count must be one integer")[0])
    if n < 0:
        raise error(f"node count must be >= 0, got {n}")
    return n


def _check_tokens(tokens: list[str], joined: str) -> None:
    """Raise ``ValueError`` at the first node token a reader would not give
    back: a repeated or empty one, one holding whitespace, or one that
    starts with ``#`` (its line would be a comment) or U+FEFF (a BOM).
    ``joined`` is ``"\\t".join(tokens)``, which the writer encodes too."""
    # The usual all-readable case in a few C passes: the joined tokens split
    # back into themselves only if none is empty or holds whitespace, and
    # then a tab followed by '#' or U+FEFF starts a token.
    if (joined.split() == tokens and not joined.startswith(("#", "\ufeff"))
            and "\t#" not in joined and "\t\ufeff" not in joined
            and len(set(tokens)) == len(tokens)):
        return
    seen: set[str] = set()
    for token in tokens:
        problem = ("is repeated" if token in seen else "is empty" if not token
                   else "holds whitespace" if token.split() != [token]
                   else f"starts with {token[0]!r}" if token.startswith(("#", "\ufeff"))
                   else None)
        if problem:
            raise ValueError(f"node token {token!r} {problem}: it cannot be read back")
        seen.add(token)


def _joined_tokens(node_ids: Sequence[str]) -> tuple[list[str], str]:
    """The node tokens as ``str`` and their tab join, checked by
    :func:`_check_tokens`."""
    tokens = list(map(str, node_ids))
    joined = "\t".join(tokens)
    _check_tokens(tokens, joined)
    return tokens, joined


@contextmanager
def _opened(target: PathOrFile, mode: str) -> Iterator[TextIO]:
    """``target`` if it is a file object, else the UTF-8 file at that path."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8") as handle:
            yield handle
    else:
        yield target


def _data_lines(handle: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of each data line of ``handle``,
    numbered from 1; blank lines and ``#`` comments are not data.  One byte
    order mark (U+FEFF) opening line 1 is not part of the text."""
    for lineno, line in enumerate(handle, start=1):
        text = (line.removeprefix("\ufeff") if lineno == 1 else line).strip()
        if text and not text.startswith("#"):
            yield lineno, text


#: Bytes the canonical-file kernel reads per block; each block is cut at its
#: last newline.
_BLOCK = 1 << 18
#: The longest canonical line: two 18-digit nodes, a sign, an 18-digit time
#: and four separators.  A longer run of bytes without a newline is not
#: canonical.
_MAX_LINE = 60
#: ``write`` cuts its rows into chunks of about ``_WRITE_BYTES // 4`` bytes
#: of text (a longer row gets a chunk of its own); the int64 index that
#: gathers a chunk, with its temporary, then takes about 4 * _WRITE_BYTES.
_WRITE_BYTES = 1 << 18
#: The block parser reads bytes as little-endian 8-byte words, whose byte
#: ``s`` is bits ``8s`` to ``8s + 7``: ``_DIGITS_FROM[s]`` keeps the low
#: nibble (a digit's value) of bytes ``s`` to 7 (``s`` in 0..8).
_DIGITS_FROM = np.array([0x0F0F0F0F0F0F0F0F << 8 * s & ((1 << 64) - 1) for s in range(9)],
                        dtype=np.uint64)
#: ``word = (word * m + (word >> s)) & c``, three times, turns 8 digit values
#: (the first in the low byte) into their number: two digits per 16 bits,
#: then four per 32, then eight.
_JOIN_STEPS = [(np.uint64(m), np.uint64(s), np.uint64(c)) for m, s, c in
               ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
                (10_000, 32, 0xFFFFFFFF))]


def _digit_word(word: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The number of the last ``min(width, 8)`` bytes of each 8-byte
    ``word``, all ASCII digits; the bytes before them count as ``'0'``."""
    word = word.astype(np.uint64, copy=False)
    word &= _DIGITS_FROM[np.maximum(8 - width, 0)]
    for m, s, c in _JOIN_STEPS:
        high = word >> s
        word *= m
        word += high
        word &= c
    return word


def _digit_values(data: bytes, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """int64 numbers of the ASCII digit fields of ``data`` that are
    ``widths`` (1-18) bytes wide and end just before byte ``ends``.

    ``before[i]`` is the unaligned word of the 8 bytes before byte ``i``
    (8 zero bytes pad the front), so one gather gives a field's last 8
    digits; fields of more than 8 and more than 16 digits take one and two
    more words, 8 bytes further back each.
    """
    before = np.ndarray((len(data) + 1,), dtype="<u8", buffer=bytes(8) + data,
                        strides=(1,))
    values = _digit_word(before[ends], widths)
    for skip in (8, 16):
        more = np.flatnonzero(widths > skip)
        if not len(more):
            break
        values.flat[more] += _digit_word(before[ends.flat[more] - skip],
                                         widths.flat[more] - skip) * np.uint64(10 ** skip)
    return values.view(np.int64)


def _parse_block(data: bytes) -> tuple[np.ndarray, ...] | None:
    """``(pairs, sign, time)`` of a block of canonical lines, with the node
    values as ``(src, dst)`` rows of ``pairs``; None if any line is not
    canonical.

    A canonical line is ``src<TAB>dst<TAB>sign<TAB>time<NEWLINE>``: the
    nodes are ASCII decimals of 1-18 digits with no leading zero (so each
    token is ``str`` of its value), the sign is ``+1``, ``1`` or ``-1`` and
    the time is 1-18 ASCII digits.  The separators and the byte classes are
    checked for the whole block first; then each number is read 8 digits
    at a time (:func:`_digit_values`).
    """
    b = np.frombuffer(data, dtype=np.uint8)
    plus_minus = (b == 43) | (b == 45)
    seps = np.flatnonzero((b == 9) | (b == 10))
    if (len(seps) % 4
            or np.count_nonzero(b - np.uint8(48) < 10) + len(seps)
            + np.count_nonzero(plus_minus) != len(b)):
        return None
    if not (b[seps].reshape(-1, 4) == (9, 9, 9, 10)).all():
        return None
    ends = seps.reshape(-1, 4)
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    starts = starts.reshape(-1, 4)
    lengths = ends - starts
    signed = lengths[:, 2] == 2
    # The node and time fields, C-ordered as the values read from them.
    widths = np.take(lengths, [0, 1, 3], axis=1)
    # Every other byte is a digit, a separator or a '+'/'-'; the '+'/'-'
    # bytes must be exactly the first bytes of the two-byte signs.
    if not (lengths.min() >= 1 and lengths[:, 2].max() <= 2
            and widths.max() <= 18
            and (b[ends[:, 2] - 1] == 49).all()
            and (plus_minus[starts[:, 2]] == signed).all()
            and np.count_nonzero(signed) == np.count_nonzero(plus_minus)
            and ((b[starts[:, :2]] != 48) | (lengths[:, :2] == 1)).all()):
        return None
    values = _digit_values(data, np.take(ends, [0, 1, 3], axis=1), widths)
    sign = np.where(b[starts[:, 2]] == 45, -1, 1).astype(np.int64)
    return values[:, :2], sign, values[:, 2]


def _canonical_columns(handle: BinaryIO) -> list[np.ndarray] | None:
    """``(pairs, sign, time)`` of every line of a canonical event file in
    file order (see :func:`_parse_block`), or None at the first block that
    is not canonical.  A missing final newline is allowed."""
    blocks = []
    carry = b""
    while True:
        chunk = handle.read(_BLOCK)
        data = carry + chunk
        # Cut after the last newline; at the end of the file, after all,
        # with the last line's newline added if the file lacks it.
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        if chunk and not cut and len(data) > _MAX_LINE:
            return None
        data, carry = data[:cut], data[cut:]
        if data:
            block = _parse_block(data if chunk else data + b"\n")
            if block is None:
                return None
            blocks.append(block)
        if not chunk:
            break
    if not blocks:
        empty = np.empty(0, dtype=np.int64)
        return [empty.reshape(0, 2), empty, empty]
    return [np.concatenate(column) for column in zip(*blocks)]


def _packed_order(high: np.ndarray, position: np.ndarray, bits: int) -> np.ndarray:
    """``position`` sorted by ``(high, position)``: one default (SIMD) sort
    of the distinct keys ``high << bits | position``, each within int64,
    built in place of ``high`` and read off their low bits.
    :func:`_stable_order` and ``evaluation._descending`` order here."""
    high <<= np.int64(bits)
    high |= position
    high.sort()
    high &= np.int64((1 << bits) - 1)
    return high


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of int64 ``values``, from one
    default sort of packed keys.

    Each value is packed with its position as ``(value - min) << bits |
    position``, with ``bits`` enough for every position.  The keys are
    distinct, so numpy's default (SIMD) sort of them gives the stable
    order (:func:`_packed_order`).  Only values spanning ``2 ** (63 -
    bits)`` or more, whose keys would overflow int64, take the stable
    argsort itself.
    """
    if not len(values):
        return np.empty(0, dtype=np.intp)
    bits = (len(values) - 1).bit_length()
    low = int(values.min())
    if int(values.max()) - low >= 1 << (63 - bits):
        return np.argsort(values, kind="stable")
    return _packed_order(values - np.int64(low), np.arange(len(values), dtype=np.int64), bits)


def _in_sorted(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Whether each of ``wanted`` is among the sorted distinct int64
    ``keys`` (edge keys ``src * n + dst``), by one ``np.searchsorted``."""
    at = np.searchsorted(keys, wanted)
    found = at < len(keys)
    found[found] = keys[at[found]] == wanted[found]
    return found


def _first_seen_ids(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Indices of node ``values`` numbered in first-seen (C) order, and the
    token ``str(value)`` of each index.

    One :func:`_stable_order` of the flat values puts equal values in runs
    in position order, so the head of each run is a distinct value at its
    first position, and the running count of heads numbers each value's
    run.  The runs are then ranked by first position.
    """
    flat = values.reshape(-1)
    order = _stable_order(flat)
    ordered = flat[order]
    head = np.ones(len(flat), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    by_first = np.argsort(order[head])
    rank = np.empty(len(by_first), dtype=np.int64)
    rank[by_first] = np.arange(len(by_first))
    ids = np.empty(len(flat), dtype=np.int64)
    ids[order] = rank[np.cumsum(head) - 1]
    return (ids.reshape(values.shape),
            [str(value) for value in ordered[head][by_first].tolist()])


def _gather_rows(indptr: np.ndarray, indices: np.ndarray,
                 nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``indices[indptr[v]:indptr[v + 1]]`` of ``nodes``,
    concatenated in order, and their lengths: a graph's CSR rows, or the
    byte pieces of ``write``'s rows (:func:`_pieces`)."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    entry = np.arange(int(lengths.sum()), dtype=np.int64)
    entry += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return indices[entry], lengths


def _spans(ends: np.ndarray, budget: int) -> list[slice]:
    """Consecutive runs of the items whose running sizes are ``ends``
    (non-empty), each about ``budget`` in size (a single larger item gets a
    run of its own)."""
    if ends[-1] <= budget:
        return [slice(0, len(ends))]
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1], budget), side="right")
    bounds = [0, *cuts.tolist(), len(ends)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _pieces(tokens: list[str], joined: str, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte pieces ``write`` copies its rows from, as ``(indptr, bytes)``
    rows: each node token's UTF-8 bytes (lone surrogates pass) and a tab;
    ``+1\\t`` and ``-1\\t`` (pieces ``n`` and ``n + 1``); then ``str(t)``
    and a newline for each of the ascending distinct ``times`` (>= 0).

    ``joined`` is ``"\\t".join(tokens)``, encoded once with the signs.  A
    token's bytes run from the byte of its first code point to that of the
    next token's: in UTF-8 a code point starts at every byte but
    ``0b10xxxxxx``.  The times' digits are written last first, one digit of
    every time long enough per pass; those times are a suffix, since the
    times ascend.
    """
    text = np.frombuffer(f"{joined}\t+1\t-1\t".encode("utf-8", "surrogatepass"),
                         dtype=np.uint8)
    # The code points, then the bytes, through each token's or sign's tab.
    ends = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    ends = np.cumsum(np.append(ends, (2, 2)) + 1)
    if ends[-1] < len(text):
        ends = np.append(np.flatnonzero((text & 0xC0) != 0x80), len(text))[ends]
    digits = np.searchsorted(10 ** np.arange(1, 19), times, side="right") + 1
    time_ends = np.cumsum(digits + 1)
    out = np.full(time_ends[-1:].sum(), ord("\n"), dtype=np.uint8)
    times = times.copy()
    for k in range(digits.max(initial=0)):
        more = np.searchsorted(digits, k, side="right")
        out[time_ends[more:] - 2 - k] = times[more:] % 10 + ord("0")
        times[more:] //= 10
    return (np.concatenate(([0], ends, len(text) + time_ends)),
            np.concatenate((text, out)))


#: ``PresenceIntervals.end`` of an interval still open after the last event.
CENSORED = -1


@dataclass(frozen=True, eq=False)
class PresenceIntervals:
    """Every presence interval of a replayed stream, one row per interval.

    ``key`` is the edge key ``src * n + dst``; ``start`` is the event index
    of the add that opened the interval and ``end`` that of the delete that
    closed it, or :data:`CENSORED` when the edge is still present after the
    last event.  ``start_time`` and ``end_time`` are the times of those
    events; a censored interval's ``end_time`` is the last event's time, so
    ``end_time - start_time`` is every interval's lifetime.  Rows are
    sorted by key, then by start, so a key's intervals are adjacent and in
    time order.  The arrays are read-only.
    """

    key: np.ndarray
    start: np.ndarray
    end: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray

    @property
    def censored(self) -> np.ndarray:
        return self.end == CENSORED


def _replay(src: np.ndarray, dst: np.ndarray, sign: np.ndarray, time: np.ndarray,
            n: int) -> tuple[PresenceIntervals, IngestStats, int]:
    """Replay a time-sorted stream in one vectorized pass.

    A stable sort by edge key (:func:`_stable_order`, which packs the keys
    with their positions unless they span too wide a range) groups each
    edge's events in time order.  An edge is present before an event iff
    the previous event of its key is an add, which makes every event one
    of four kinds: an add of an absent edge opens an interval, an add of a
    present edge is a duplicate, a delete of a present edge closes an
    interval and a delete of an absent edge is a no-op.  Opens and closes
    alternate within a key, starting with an open, so each close pairs
    with the last open before it; an open no close pairs with is censored.

    Returns the interval table, with the ``time`` of each interval's two
    events, the duplicate/no-op counts and the event index of the first
    no-op delete in time order (-1 if there is none).
    """
    keys = src * np.int64(n) + dst
    order = _stable_order(keys)
    keys = keys[order]
    add = sign[order] > 0
    present = np.zeros(len(keys), dtype=bool)
    present[1:] = add[:-1] & (keys[1:] == keys[:-1])
    opens = np.flatnonzero(add & ~present)
    closes = np.flatnonzero(~add & present)
    noops = order[~add & ~present]
    start = order[opens]
    end = np.full(len(opens), CENSORED, dtype=np.int64)
    end[np.searchsorted(opens, closes) - 1] = order[closes]
    # CENSORED is -1, so a censored interval's end time is the last time.
    intervals = PresenceIntervals(keys[opens], start, end, time[start], time[end])
    for arr in (intervals.key, intervals.start, intervals.end,
                intervals.start_time, intervals.end_time):
        arr.flags.writeable = False
    stats = IngestStats(noop_deletes=len(noops),
                        duplicate_adds=int(np.count_nonzero(add & present)))
    return intervals, stats, int(noops.min()) if len(noops) else -1


class TemporalEdgeList:
    """A validated, time-sorted stream of edge events over ``n`` nodes.

    Events are stored columnar (``src``, ``dst``, ``sign``, ``time`` arrays)
    for cheap slicing; ``events`` iterates them as :class:`EdgeEvent`.
    ``node_ids`` maps compact index -> original token.  The constructor is
    the one way to build a stream; :func:`read_events`, ``from_records`` and
    :func:`~linkdecay.generate.generate` call it.  Equal timestamps keep
    their input order, so replaying a prefix is well defined.  The stream
    is replayed once, on construction, into ``intervals`` and ``stats``;
    snapshots, lifetimes and ages are all read off that table.  The event
    columns are read-only, so the table cannot go stale.  ``==`` is identity.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, sign: np.ndarray,
                 time: np.ndarray, node_ids: Sequence[str], *,
                 strict_deletes: bool = False):
        """Check the indexed columns as int64, sort them by time with equal
        times in input order (:func:`_stable_order`), replay them and freeze
        them.  The caller's arrays are not changed.  Columns not 1-d and of
        equal length, or not exact int64 values (:func:`_int64`), raise
        :class:`EventFormatError`."""
        message = "src, dst, sign and time must be 1-d arrays of equal length"
        src, dst, sign, time = (_int64(column, EventFormatError, "event columns", message)
                                for column in (src, dst, sign, time))
        if not src.shape == dst.shape == sign.shape == time.shape:
            raise EventFormatError(message)
        node_ids = list(node_ids)
        n = len(node_ids)
        if len(src) and (src.min() < 0 or dst.min() < 0
                         or src.max() >= n or dst.max() >= n):
            raise EventFormatError("event node index out of range")
        if np.any(time < 0):
            raise EventFormatError("negative timestamp")
        if np.any(np.abs(sign) != 1):
            raise EventFormatError("event sign must be +1 or -1")
        if np.any(src == dst):
            raise EventFormatError("self-loop in indexed event records")
        order = _stable_order(time)
        src, dst, sign, time = src[order], dst[order], sign[order], time[order]
        intervals, stats, first_noop = _replay(src, dst, sign, time, n)
        if strict_deletes and first_noop >= 0:
            pair = (int(src[first_noop]), int(dst[first_noop]))
            raise EventFormatError(
                f"delete of absent edge {pair} at event index {first_noop}")
        for arr in (src, dst, sign, time):
            arr.flags.writeable = False
        self.src, self.dst, self.sign, self.time = src, dst, sign, time
        self.node_ids, self.stats, self.intervals = node_ids, stats, intervals

    def __repr__(self) -> str:
        return f"TemporalEdgeList(n={self.node_count}, events={len(self)})"

    # ---- constructors ----

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, int, int, int]],
                     node_ids: Sequence[str] | None = None,
                     n: int | None = None,
                     strict_deletes: bool = False) -> "TemporalEdgeList":
        """Build from already-indexed ``(src, dst, sign, time)`` tuples.

        ``node_ids`` (or ``n``, producing string tokens ``"0".."n-1"``) fixes
        the node universe; otherwise it is ``max index + 1``.  Records of
        other than four fields (ragged ones too), values int64 does not hold
        exactly, a sign other than +1 or -1, an ``n`` that is not a
        non-negative integer (:func:`_node_count`), or both ``node_ids`` and
        ``n`` raise :class:`EventFormatError`.
        """
        table = _int64(records, EventFormatError, "records",
                       "records must be (src, dst, sign, time) tuples, got an "
                       "array of shape {}", width=4)
        if node_ids is None:
            if n is None:
                n = int(table[:, :2].max()) + 1 if len(table) else 0
            node_ids = [str(i) for i in range(_node_count(n, EventFormatError))]
        elif n is not None:
            raise EventFormatError("pass node_ids or n, not both")
        return cls(*table.T, node_ids, strict_deletes=strict_deletes)

    # ---- queries ----

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    def __len__(self) -> int:
        return len(self.src)

    @property
    def events(self) -> Iterator[EdgeEvent]:
        for k in range(len(self.src)):
            yield EdgeEvent(int(self.src[k]), int(self.dst[k]),
                            int(self.sign[k]), int(self.time[k]))

    @property
    def time_first(self) -> int:
        if not len(self):
            raise ValueError("empty event stream has no time span")
        return int(self.time[0])

    @property
    def time_last(self) -> int:
        if not len(self):
            raise ValueError("empty event stream has no time span")
        return int(self.time[-1])

    def alive(self, t: float) -> np.ndarray:
        """Mask over ``intervals``: the intervals present at time ``t``.

        An interval is present iff it opened at or before ``t`` and is
        censored or closed after ``t``; a key has at most one such interval.
        The interval times are compared as stored; a censored interval
        stays present however late ``t`` is, even past the last time or at
        a float ``t`` that an int64 time rounds up to.
        """
        if t != t:
            raise ValueError("time must be a number, got NaN")
        iv = self.intervals
        return (iv.start_time <= t) & (iv.censored | (iv.end_time > t))

    def live_keys(self, t: float) -> np.ndarray:
        """Ascending keys ``src * n + dst`` of the edges present at ``t``."""
        return self.intervals.key[self.alive(t)]

    # ---- persistence ----

    def write(self, target: PathOrFile) -> None:
        """Write the canonical event file (tab-separated, original tokens).
        A token that cannot be read back raises ``ValueError`` before
        ``target`` is opened (:func:`_check_tokens`).

        Each row is four byte pieces (:func:`_pieces`): its two tokens, its
        sign and its time, counted by the heads of the runs of equal times.
        Each chunk of rows, about ``_WRITE_BYTES // 4`` bytes of text by the
        rows' byte counts (:func:`_spans`), is one :func:`_gather_rows`,
        decoded with lone surrogates passed through and written as text, so
        ``target``'s encoding and error policy decide as for any text."""
        head = np.ones(len(self), dtype=bool)
        np.not_equal(self.time[1:], self.time[:-1], out=head[1:])
        indptr, data = _pieces(*_joined_tokens(self.node_ids), self.time[head])
        with _opened(target, "w") as handle:
            if not len(self):
                return
            n = self.node_count
            size = np.diff(indptr)
            ends = size[self.src]
            ends += size[self.dst]
            ends += np.repeat(size[n + 2:], np.diff(np.flatnonzero(head), append=len(self)))
            ends += 3  # the sign's piece
            time_id = n + 1
            for rows in _spans(np.cumsum(ends, out=ends), _WRITE_BYTES // 4):
                ids = np.empty((rows.stop - rows.start, 4), dtype=np.int64)
                ids[:, 0], ids[:, 1] = self.src[rows], self.dst[rows]
                np.less(self.sign[rows], 0, out=ids[:, 2])
                ids[:, 2] += n
                np.cumsum(head[rows], out=ids[:, 3])
                ids[:, 3] += time_id
                time_id = ids[-1, 3]
                text, _ = _gather_rows(indptr, data, ids.reshape(-1))
                handle.write(str(text, "utf-8", "surrogatepass"))

    def write_id_map(self, target: PathOrFile) -> None:
        """Persist the token -> index map as ``node<TAB>index`` lines; a
        token that cannot be read back raises as in :meth:`write`."""
        tokens, _ = _joined_tokens(self.node_ids)
        with _opened(target, "w") as handle:
            handle.writelines(f"{token}\t{i}\n" for i, token in enumerate(tokens))


def _read_blocks(raw: BinaryIO, self_loops: str) -> tuple | None:
    """What :func:`_read_lines` returns for a canonical event file, parsed
    in blocks; None if the file is not canonical or holds a self-loop under
    ``'error'``, so that the line loop reads it and reports what it finds."""
    columns = _canonical_columns(raw)
    if columns is None:
        return None
    pairs, sign, time = columns
    del columns
    loops = pairs[:, 0] == pairs[:, 1]
    skipped = int(np.count_nonzero(loops))
    if skipped:
        if self_loops == "error":
            return None
        pairs, sign, time = pairs[~loops], sign[~loops], time[~loops]
    ids, node_ids = _first_seen_ids(pairs)
    return ids[:, 0], ids[:, 1], sign, time, node_ids, skipped


def _read_lines(handle: TextIO, self_loops: str) -> tuple:
    """``(src, dst, sign, time, node_ids, self_loops_skipped)`` of any event
    file, read line by line: the indexed int64 columns in file order, the
    tokens by index and the self-loops dropped.  The first bad line raises
    :class:`EventFormatError` with its number."""
    # Token -> index in first-seen order, which is the dict's order.
    index: dict[str, int] = {}
    srcs, dsts, signs, times = [], [], [], []
    skipped = 0
    for lineno, text in _data_lines(handle):
        fields = text.split()
        if len(fields) != 4:
            raise EventFormatError(f"line {lineno}: expected 4 fields "
                                   f"(src, dst, sign, time), got {len(fields)}")
        u, v, sign_text, time_text = fields
        sign = _SIGNS.get(sign_text)
        if sign is None:
            raise EventFormatError(f"line {lineno}: sign must be +1 or -1, "
                                   f"got {sign_text!r}")
        try:
            t = int(time_text)
        except ValueError:
            raise EventFormatError(f"line {lineno}: time must be an integer, "
                                   f"got {time_text!r}") from None
        if t < 0:
            raise EventFormatError(f"line {lineno}: time must be >= 0, got {t}")
        if t > _MAX_TIME:
            raise EventFormatError(f"line {lineno}: time must be at most {_MAX_TIME}, "
                                   f"got {t}")
        if u == v:
            if self_loops == "error":
                raise EventFormatError(f"line {lineno}: self-loop {u!r} -> {v!r}")
            skipped += 1
            continue
        srcs.append(index.setdefault(u, len(index)))
        dsts.append(index.setdefault(v, len(index)))
        signs.append(sign)
        times.append(t)
    return (*(np.array(column, dtype=np.int64) for column in (srcs, dsts, signs, times)),
            list(index), skipped)


def read_events(source: PathOrFile, *, self_loops: str = "skip",
                strict_deletes: bool = False) -> TemporalEdgeList:
    """Read a temporal edge-event file.

    Parameters
    ----------
    source : path or file object
        Event file in ``src<TAB>dst<TAB>sign<TAB>time`` format.  Any
        whitespace separates fields on input; the writer emits tabs.  A
        path to a canonical file (single tabs, decimal node ids without
        leading zeros, ``+1``/``1``/``-1`` signs, digit times, at most 18
        digits per number) is parsed in blocks with numpy; any other file,
        and any file object, is read line by line.  Both readers give the
        same columns, from which this function alone builds the stream,
        and the same errors.
    self_loops : {'skip', 'error'}
        Policy for events with ``src == dst``.  ``'skip'`` drops the record
        and counts it in ``stats.self_loops_skipped``; ``'error'`` raises.
        Skipped records do not register node ids.  The policy is checked
        before the file is opened.
    strict_deletes : bool
        When True, a delete for an edge that is not currently present is an
        error; otherwise it is ignored and counted in ``stats.noop_deletes``.

    Returns
    -------
    TemporalEdgeList
        Events sorted by time (stable for equal timestamps), node ids
        compacted in first-seen order, diagnostics attached.

    Raises
    ------
    EventFormatError
        On malformed lines (with the line number), bad signs, negative or
        non-integer times, or policy violations.
    ValueError
        On a ``self_loops`` policy other than ``'skip'`` or ``'error'``,
        even for a path that does not exist.
    """
    if self_loops not in ("skip", "error"):
        raise ValueError(f"self_loops must be 'skip' or 'error', got {self_loops!r}")
    if not isinstance(source, (str, Path)):
        columns = _read_lines(source, self_loops)
    else:
        with open(source, "rb") as raw:
            columns = None
            if raw.seekable():
                columns = _read_blocks(raw, self_loops)
                # The line loop, if it runs, reads from the start again.
                raw.seek(0)
            if columns is None:
                with io.TextIOWrapper(raw, encoding="utf-8") as handle:
                    columns = _read_lines(handle, self_loops)
    *columns, skipped = columns
    tel = TemporalEdgeList(*columns, strict_deletes=strict_deletes)
    tel.stats.self_loops_skipped = skipped
    return tel


def read_id_map(source: PathOrFile) -> dict[str, int]:
    """Read a ``node<TAB>index`` map written by :meth:`write_id_map`."""
    mapping: dict[str, int] = {}
    with _opened(source, "r") as handle:
        for lineno, text in _data_lines(handle):
            fields = text.split()
            if len(fields) != 2:
                raise EventFormatError(f"line {lineno}: expected 'node<TAB>index'")
            try:
                mapping[fields[0]] = int(fields[1])
            except ValueError:
                raise EventFormatError(
                    f"line {lineno}: index must be an integer, got {fields[1]!r}"
                ) from None
    return mapping
