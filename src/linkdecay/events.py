"""Timestamped edge-event streams for evolving directed graphs.

An event file is UTF-8 text with one event per line::

    src<TAB>dst<TAB>sign<TAB>time

where ``sign`` is ``+1`` (edge appears) or ``-1`` (edge disappears) and
``time`` is a non-negative integer tick.  Lines starting with ``#`` and
blank lines are ignored.  This is the usual temporal edge-list layout of
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
loop, and so does a path that cannot seek.  ``write`` formats rows in
byte chunks for every target.

Every stream, read from a file, built from records or generated, comes from
the one :class:`TemporalEdgeList` constructor.  It validates the indexed
columns, sorts them by time and replays them once, in one vectorized pass,
into a presence-interval table (:class:`PresenceIntervals`): one row
``(key, start, end)`` per interval in which an edge is present, with
``key = src * n + dst``, ``start`` the event index of the opening add and
``end`` that of the closing delete, or censored when the edge is still
present after the last event.  The ingest counts of duplicate adds and
no-op deletes come from the same pass.  Snapshots (``start <= t < end`` in
event time), lifetimes (``end - start``) and ages (``t - start``) are all
read off this one table.

Each stable order a load needs (events by time, events by edge key, node
values for first-seen ids) comes from one default numpy sort of distinct
packed int64 keys ``(value - min) << bits | position``
(:func:`_stable_order`).  Only values spanning too wide a range for such a
key, as times up to ``10**18`` over more than eight events can, fall back to
numpy's stable argsort.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
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
        return {
            "self_loops_skipped": self.self_loops_skipped,
            "noop_deletes": self.noop_deletes,
            "duplicate_adds": self.duplicate_adds,
        }


_SIGNS = {"+1": 1, "1": 1, "-1": -1}
#: The largest time an int64 column holds.
_MAX_TIME = int(np.iinfo(np.int64).max)

PathOrFile = Union[str, Path, TextIO]


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
    numbered from 1; blank lines and ``#`` comments are not data."""
    for lineno, line in enumerate(handle, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


#: Bytes the canonical-file kernel reads per block; each block is cut at its
#: last newline.
_BLOCK = 1 << 18
#: The longest canonical line: two 18-digit nodes, a sign, an 18-digit time
#: and four separators.  A longer run of bytes without a newline is not
#: canonical.
_MAX_LINE = 60
#: Rows ``write`` formats per chunk.
_WRITE_ROWS = 1 << 13
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _parse_block(data: bytes) -> tuple[np.ndarray, ...] | None:
    """``(pairs, sign, time)`` of a block of canonical lines, with the node
    values as ``(src, dst)`` rows of ``pairs``; None if any line is not
    canonical.

    A canonical line is ``src<TAB>dst<TAB>sign<TAB>time<NEWLINE>``: the
    nodes are ASCII decimals of 1-18 digits with no leading zero (so each
    token is ``str`` of its value), the sign is ``+1``, ``1`` or ``-1`` and
    the time is 1-18 ASCII digits.  Numbers are read by digit position, so
    the work arrays are per field, not per byte.
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
    fields = starts[:, [0, 1, 3]]
    widths = lengths[:, [0, 1, 3]]
    # Every other byte is a digit, a separator or a '+'/'-'; the '+'/'-'
    # bytes must be exactly the first bytes of the two-byte signs.
    if not (lengths.min() >= 1 and lengths[:, 2].max() <= 2
            and widths.max() <= 18
            and (b[ends[:, 2] - 1] == 49).all()
            and (plus_minus[starts[:, 2]] == signed).all()
            and np.count_nonzero(signed) == np.count_nonzero(plus_minus)
            and ((b[starts[:, :2]] != 48) | (lengths[:, :2] == 1)).all()):
        return None
    values = np.zeros(fields.shape, dtype=np.int64)
    for k in range(int(widths.max())):
        digit = np.take(b, fields + k, mode="clip") - np.uint8(48)
        values = np.where(widths > k, values * 10 + digit, values)
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


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of int64 ``values``, from one
    default sort of packed keys.

    Each value is packed with its position as ``(value - min) << bits |
    position``, with ``bits`` enough for every position.  The keys are
    distinct, so numpy's default (SIMD) sort of them gives the stable
    order, read off their low bits.  Only values spanning ``2 ** (63 -
    bits)`` or more, whose keys would overflow int64, take the stable
    argsort itself.
    """
    if not len(values):
        return np.empty(0, dtype=np.intp)
    bits = (len(values) - 1).bit_length()
    low = int(values.min())
    if int(values.max()) - low >= 1 << (63 - bits):
        return np.argsort(values, kind="stable")
    keys = (values - np.int64(low)) << np.int64(bits)
    keys |= np.arange(len(values), dtype=np.int64)
    keys.sort()
    keys &= np.int64((1 << bits) - 1)
    return keys


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


def _decimals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``str`` of each int64 value as ASCII: ``(table, start, length)``
    with value ``i`` at ``table[start[i]:start[i] + length[i]]``."""
    negative = values < 0
    magnitude = np.abs(values).astype(np.uint64)
    length = 1 + np.searchsorted(_POW10, magnitude, side="right") + negative
    width = int(length.max())
    digits = np.empty((len(values), width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        digits[:, k] = magnitude % 10 + 48
        magnitude //= 10
    start = np.arange(len(values)) * width + width - length
    digits.ravel()[start[negative]] = 45
    return digits.ravel(), start, length


def _copy_spans(out: np.ndarray, at: np.ndarray, table: np.ndarray,
                start: np.ndarray, length: np.ndarray) -> None:
    """``out[at[i]:at[i] + length[i]] = table[start[i]:start[i] + length[i]]``
    for every ``i``."""
    first = np.cumsum(length) - length
    offset = np.arange(int(length.sum())) - np.repeat(first, length)
    out[np.repeat(at, length) + offset] = table[np.repeat(start, length) + offset]


def _format_rows(tokens: np.ndarray, token_start: np.ndarray,
                 token_length: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 sign: np.ndarray, time: np.ndarray) -> bytes:
    """Canonical lines of a non-empty run of events, as UTF-8 bytes."""
    times, time_start, time_length = _decimals(time)
    src_length, dst_length = token_length[src], token_length[dst]
    row = src_length + dst_length + time_length + 6
    end = np.cumsum(row)
    out = np.empty(int(end[-1]), dtype=np.uint8)
    at = end - row
    _copy_spans(out, at, tokens, token_start[src], src_length)
    at += src_length
    out[at] = 9
    _copy_spans(out, at + 1, tokens, token_start[dst], dst_length)
    at += dst_length + 1
    out[at] = 9
    out[at + 1] = np.where(sign > 0, 43, 45)
    out[at + 2] = 49
    out[at + 3] = 9
    _copy_spans(out, at + 4, times, time_start, time_length)
    out[end - 1] = 10
    return out.tobytes()


#: ``PresenceIntervals.end`` of an interval still open after the last event.
CENSORED = -1


@dataclass(frozen=True, eq=False)
class PresenceIntervals:
    """Every presence interval of a replayed stream, one row per interval.

    ``key`` is the edge key ``src * n + dst``; ``start`` is the event index
    of the add that opened the interval and ``end`` that of the delete that
    closed it, or :data:`CENSORED` when the edge is still present after the
    last event.  Rows are sorted by key, then by start, so a key's
    intervals are adjacent and in time order.  The arrays are read-only.
    """

    key: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def censored(self) -> np.ndarray:
        return self.end == CENSORED


def _replay(src: np.ndarray, dst: np.ndarray, sign: np.ndarray,
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

    Returns the interval table, the duplicate/no-op counts and the event
    index of the first no-op delete in time order (-1 if there is none).
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
    end = np.full(len(opens), CENSORED, dtype=np.int64)
    end[np.searchsorted(opens, closes) - 1] = order[closes]
    intervals = PresenceIntervals(keys[opens], order[opens], end)
    for arr in (intervals.key, intervals.start, intervals.end):
        arr.flags.writeable = False
    stats = IngestStats(noop_deletes=len(noops),
                        duplicate_adds=int(np.count_nonzero(add & present)))
    return intervals, stats, int(noops.min()) if len(noops) else -1


class TemporalEdgeList:
    """A validated, time-sorted stream of edge events over ``n`` nodes.

    Events are stored columnar (``src``, ``dst``, ``sign``, ``time`` arrays)
    for cheap slicing; ``events`` iterates them as :class:`EdgeEvent`.
    ``node_ids`` maps compact index -> original token.  The constructor is
    the one way to build a stream; ``read``, ``from_records`` and
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
        them.  The caller's arrays are not changed."""
        src, dst, sign, time = (np.asarray(column, dtype=np.int64)
                                for column in (src, dst, sign, time))
        if src.ndim != 1 or not src.shape == dst.shape == sign.shape == time.shape:
            raise EventFormatError(
                "src, dst, sign and time must be 1-d arrays of equal length")
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
        intervals, stats, first_noop = _replay(src, dst, sign, n)
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
        the node universe; otherwise it is ``max index + 1``.  A record of
        other than four fields, or a sign other than +1 or -1, raises
        :class:`EventFormatError`.
        """
        rows = list(records)
        table = (np.array(rows, dtype=np.int64) if rows
                 else np.empty((0, 4), dtype=np.int64))
        if table.ndim != 2 or table.shape[1] != 4:
            raise EventFormatError(
                "records must be (src, dst, sign, time) tuples, got an array "
                f"of shape {table.shape}")
        if node_ids is None:
            count = n
            if count is None:
                count = int(table[:, :2].max()) + 1 if rows else 0
            node_ids = [str(i) for i in range(count)]
        return cls(*table.T, node_ids, strict_deletes=strict_deletes)

    @classmethod
    def read(cls, source: PathOrFile, *, self_loops: str = "skip",
             strict_deletes: bool = False) -> "TemporalEdgeList":
        """Parse an event file; see :func:`read_events`."""
        if self_loops not in ("skip", "error"):
            raise ValueError(f"self_loops must be 'skip' or 'error', got {self_loops!r}")
        if not isinstance(source, (str, Path)):
            return cls._parse(source, self_loops, strict_deletes)
        with open(source, "rb") as raw:
            # A fallback to the loop must read again from the start.
            if raw.seekable():
                tel = cls._read_canonical(raw, self_loops, strict_deletes)
                if tel is not None:
                    return tel
                raw.seek(0)
            with io.TextIOWrapper(raw, encoding="utf-8") as handle:
                return cls._parse(handle, self_loops, strict_deletes)

    @classmethod
    def _read_canonical(cls, raw: BinaryIO, self_loops: str,
                        strict_deletes: bool) -> "TemporalEdgeList | None":
        """The stream of a canonical event file, parsed in blocks; None if
        the file is not canonical or holds a self-loop under ``'error'``,
        so that the line loop reads it and reports what it finds."""
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
        # Rebinding ``pairs`` frees the node values before the replay.
        pairs, node_ids = _first_seen_ids(pairs)
        tel = cls(pairs[:, 0], pairs[:, 1], sign, time, node_ids,
                  strict_deletes=strict_deletes)
        tel.stats.self_loops_skipped = skipped
        return tel

    @classmethod
    def _parse(cls, handle: TextIO, self_loops: str,
               strict_deletes: bool) -> "TemporalEdgeList":
        # Token -> index in first-seen order, which is the dict's order.
        index: dict[str, int] = {}
        srcs: list[int] = []
        dsts: list[int] = []
        signs: list[int] = []
        times: list[int] = []
        skipped = 0
        for lineno, text in _data_lines(handle):
            fields = text.split()
            if len(fields) != 4:
                raise EventFormatError(
                    f"line {lineno}: expected 4 fields "
                    f"(src, dst, sign, time), got {len(fields)}"
                )
            u, v, sign_text, time_text = fields
            sign = _SIGNS.get(sign_text)
            if sign is None:
                raise EventFormatError(
                    f"line {lineno}: sign must be +1 or -1, got {sign_text!r}"
                )
            try:
                t = int(time_text)
            except ValueError:
                raise EventFormatError(
                    f"line {lineno}: time must be an integer, got {time_text!r}"
                ) from None
            if t < 0:
                raise EventFormatError(f"line {lineno}: time must be >= 0, got {t}")
            if t > _MAX_TIME:
                raise EventFormatError(
                    f"line {lineno}: time must be at most {_MAX_TIME}, got {t}"
                )
            if u == v:
                if self_loops == "error":
                    raise EventFormatError(f"line {lineno}: self-loop {u!r} -> {v!r}")
                skipped += 1
                continue
            srcs.append(index.setdefault(u, len(index)))
            dsts.append(index.setdefault(v, len(index)))
            signs.append(sign)
            times.append(t)
        src = np.array(srcs, dtype=np.int64)
        dst = np.array(dsts, dtype=np.int64)
        sign = np.array(signs, dtype=np.int64)
        time = np.array(times, dtype=np.int64)
        del srcs, dsts, signs, times
        tel = cls(src, dst, sign, time, list(index),
                  strict_deletes=strict_deletes)
        tel.stats.self_loops_skipped = skipped
        return tel

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
        """
        if np.isnan(t):
            raise ValueError("time must be a number, got NaN")
        iv = self.intervals
        return ((self.time[iv.start] <= t)
                & (iv.censored | (self.time[iv.end] > t)))

    def live_keys(self, t: float) -> np.ndarray:
        """Ascending keys ``src * n + dst`` of the edges present at ``t``."""
        return self.intervals.key[self.alive(t)]

    # ---- persistence ----

    def write(self, target: PathOrFile) -> None:
        """Write the canonical event file (tab-separated, original tokens)."""
        encoded = [f"{token}".encode("utf-8", "surrogatepass")
                   for token in self.node_ids]
        token_length = np.fromiter(map(len, encoded), dtype=np.int64,
                                   count=len(encoded))
        token_start = np.cumsum(token_length) - token_length
        tokens = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        with _opened(target, "w") as handle:
            for lo in range(0, len(self.src), _WRITE_ROWS):
                rows = slice(lo, lo + _WRITE_ROWS)
                data = _format_rows(tokens, token_start, token_length,
                                    self.src[rows], self.dst[rows],
                                    self.sign[rows], self.time[rows])
                handle.write(data.decode("utf-8", "surrogatepass"))

    def write_id_map(self, target: PathOrFile) -> None:
        """Persist the token -> index map as ``node<TAB>index`` lines."""
        with _opened(target, "w") as handle:
            handle.writelines(f"{token}\t{i}\n"
                              for i, token in enumerate(self.node_ids))


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
        and any file object, is read line by line.  Both give the same
        stream and the same errors.
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
    return TemporalEdgeList.read(source, self_loops=self_loops,
                                 strict_deletes=strict_deletes)


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
