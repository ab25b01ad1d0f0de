"""CDR log and bank-file ingestion: typed records, validation, duration filter.

Call logs arrive as delimited text with five columns (start date, start time,
duration in seconds, caller identity, callee identity). Dates use the DDMONYYYY
form, identities are opaque strings and never interpreted as numbers. Rows in
canonical form are converted a column at a time and every other row is
validated on its own; rejects are counted and logged, never silently dropped.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date, time
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterator, NoReturn, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .tables import _decimal_text, _text_table, _write_rows, write_csv

logger = logging.getLogger(__name__)

_MONTHS = {
    "JAN": 1, "FEB": 2, "MAR": 3, "APR": 4, "MAY": 5, "JUN": 6,
    "JUL": 7, "AUG": 8, "SEP": 9, "OCT": 10, "NOV": 11, "DEC": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

CDR_FIELD_COUNT = 5
CDR_HEADER = "start_date,start_time,duration,from_id,to_id"
_DAY_SECONDS = 24 * 3600
_READ_BLOCK = 1 << 18  # CDR bytes per parse step; bounds the memory a parse takes
# ASCII bytes str.strip removes, by byte
_STRIPPED = np.isin(np.arange(256), [9, 10, 11, 12, 13, 28, 29, 30, 31, 32])
_MAX_DURATION = int(np.iinfo(np.int32).max)  # durations are stored as int32
# bank rows per block: csv rows are lists the garbage collector tracks, and
# a smaller block frees them before they fill its younger generations
_BANK_CHUNK = 1 << 9


class CdrParseError(DataError):
    """One CDR row could not be parsed; the message carries the reason."""


@dataclass(frozen=True, slots=True)
class CdrRecord:
    """One phone call: when it started, how long it lasted, who called whom."""

    start_date: date
    start_time: time
    duration: int
    from_id: str
    to_id: str


def parse_cdr_date(text: str) -> date:
    """Parse a DDMONYYYY date such as '01MAY2017'."""
    text = text.strip()
    if len(text) != 9:
        raise CdrParseError(f"invalid date {text!r}")
    try:
        day = int(text[0:2])
        month = _MONTHS[text[2:5].upper()]
        year = int(text[5:9])
        return date(year, month, day)
    except (KeyError, ValueError):
        raise CdrParseError(f"invalid date {text!r}") from None


def format_cdr_date(d: date) -> str:
    return f"{d.day:02d}{_MONTH_NAMES[d.month]}{d.year:04d}"


def _date_ordinal(text: str) -> int:
    """The proleptic ordinal of a DDMONYYYY date; 0 when `text` is not one."""
    try:
        return parse_cdr_date(text).toordinal()
    except CdrParseError:
        return 0


def _parse_fields(fields: list[str], ordinals: dict[str, int]) -> tuple[int, int, int, str, str]:
    """Validate one split CDR row: (date ordinal, seconds of day, duration, from_id, to_id).

    Raises CdrParseError on a wrong field count, malformed date or time,
    non-numeric, negative or over-int32 duration, empty identities, or a
    self-call. `ordinals` caches `_date_ordinal` of each date text.
    """
    if len(fields) != CDR_FIELD_COUNT:
        raise CdrParseError(f"expected {CDR_FIELD_COUNT} fields, got {len(fields)}")
    dtext = fields[0].strip()
    ordinal = ordinals.get(dtext)
    if ordinal is None:
        ordinal = ordinals[dtext] = _date_ordinal(dtext)
    if not ordinal:
        raise CdrParseError(f"invalid date {dtext!r}")
    t = fields[1].strip()
    tparts = t.split(":")
    if len(tparts) != 3:
        raise CdrParseError(f"invalid time {t!r}")
    try:
        hh, mm, ss = int(tparts[0]), int(tparts[1]), int(tparts[2])
    except ValueError:
        raise CdrParseError(f"invalid time {t!r}") from None
    if not (0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise CdrParseError(f"invalid time {t!r}")
    try:
        dur = int(fields[2])
    except ValueError:
        raise CdrParseError(f"non-numeric duration {fields[2].strip()!r}") from None
    if dur < 0:
        raise CdrParseError(f"negative duration {dur}")
    if dur > _MAX_DURATION:
        raise CdrParseError(f"duration {dur} exceeds {_MAX_DURATION}")
    fid = fields[3].strip()
    tid = fields[4].strip()
    if not fid or not tid:
        raise CdrParseError("empty phone identity")
    if fid == tid:
        raise CdrParseError(f"self-call for identity {fid!r}")
    return ordinal, hh * 3600 + mm * 60 + ss, dur, fid, tid


def parse_cdr_line(line: str, delimiter: str) -> CdrRecord:
    """Parse one CDR row into a typed record; CdrParseError gives the reason.

    Duration filtering is not applied here; zero is a valid parsed duration.
    """
    ordinal, sec, dur, fid, tid = _parse_fields(line.rstrip("\r\n").split(delimiter), {})
    return CdrRecord(date.fromordinal(ordinal), time(sec // 3600, sec % 3600 // 60, sec % 60), dur, fid, tid)


@dataclass
class IngestStats:
    """Row accounting for one ingest pass: every input row lands in a bucket."""

    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    rows_filtered_short: int = 0
    distinct_ids: int = 0

    @property
    def conserved(self) -> bool:
        return self.rows_read == self.rows_accepted + self.rows_rejected + self.rows_filtered_short


class CdrBatch:
    """Columnar batch of accepted call records.

    Stores typed arrays, so a million rows cost a few dozen megabytes instead
    of a million Python objects. Identities are dictionary-encoded;
    `ids[code]` recovers the opaque string.
    """

    __slots__ = ("date_ord", "time_sec", "duration", "from_code", "to_code", "ids")

    def __init__(self, date_ord, time_sec, duration, from_code, to_code, ids):
        self.date_ord = np.asarray(date_ord, dtype=np.int32)
        self.time_sec = np.asarray(time_sec, dtype=np.int32)
        self.duration = np.asarray(duration, dtype=np.int32)
        self.from_code = np.asarray(from_code, dtype=np.int32)
        self.to_code = np.asarray(to_code, dtype=np.int32)
        self.ids: list[str] = list(ids)

    def __len__(self) -> int:
        return len(self.duration)

    def weekday(self) -> np.ndarray:
        """Per-row weekday, 0 = Monday (proleptic ordinal 1 was a Monday)."""
        return (self.date_ord - 1) % 7

    def select(self, mask: np.ndarray) -> "CdrBatch":
        """Row subset sharing this batch's identity table."""
        return CdrBatch(
            self.date_ord[mask], self.time_sec[mask], self.duration[mask],
            self.from_code[mask], self.to_code[mask], self.ids,
        )


def write_cdr(path: str | Path, batch: CdrBatch) -> None:
    """Write `batch` as a CDR log: the header, then one row per call in batch order."""
    unwritable = next((i for i in batch.ids if "," in i), None)
    if unwritable is not None:
        raise DataError(f"identity {unwritable!r} contains a comma and cannot be written as a CDR field")
    if len(batch) and not 0 <= batch.time_sec.min() <= batch.time_sec.max() < _DAY_SECONDS:
        raise DataError("a start time lies outside 00:00:00 to 23:59:59 and cannot be written")
    days, day_code = np.unique(batch.date_ord, return_inverse=True)
    dates = _text_table([format_cdr_date(date.fromordinal(o)) + "," for o in days.tolist()])
    # HH:MM:SS, for every second of the day, from the texts of its three parts
    hours, minutes, seconds = (_text_table([f"{k:02d}{end}" for k in range(n)])
                               for n, end in ((24, ":"), (60, ":"), (60, ",")))
    times = np.concatenate(np.broadcast_arrays(hours[:, None, None], minutes[None, :, None],
                                               seconds[None, None, :]), axis=-1).reshape(_DAY_SECONDS, -1)
    names = _text_table([i + "," for i in batch.ids])
    with open(path, "wb") as fh:
        fh.write(f"{CDR_HEADER}\n".encode())
        _write_rows(fh, len(batch), lambda rows: [
            dates[day_code[rows]], times[batch.time_sec[rows]], _decimal_text(batch.duration[rows]),
            names[batch.from_code[rows]], names[batch.to_code[rows]]], b"\n")


def _looks_like_header(fields: list[str]) -> bool:
    """A header has the right arity but a non-numeric duration and no date."""
    if len(fields) != CDR_FIELD_COUNT:
        return False
    try:
        int(fields[2].strip())
        return False
    except ValueError:
        return not _date_ordinal(fields[0])


def _cdr_blocks(source: BinaryIO) -> Iterator[tuple]:
    """The log's lines a block at a time, as (bytes, line starts, line ends).

    The file is read `_READ_BLOCK` bytes at a time, each block cut after its
    last line end, and split as text mode splits it: \\n, \\r and \\r\\n each
    end a line, and a BOM is left in place. Blank lines are left out.
    """
    pieces: list = []  # of a line not yet ended, joined once it ends
    while block := source.read(_READ_BLOCK):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield _file_lines(b"".join([*pieces, block[:cut]]))
            pieces = [block[cut:]]
        else:
            pieces.append(block)
    yield _file_lines(b"".join(pieces))


def _file_lines(block: bytes) -> tuple:
    points = np.frombuffer(block, np.uint8)
    breaks = np.flatnonzero((points == ord("\n")) | (points == ord("\r")))
    start, end = np.append(0, breaks + 1), np.append(breaks, len(points))
    lines = end > start
    return block, start[lines], end[lines]


def _same_spans(points: np.ndarray, a: np.ndarray, b: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Whether `points[a:a + size]` and `points[b:b + size]` hold the same bytes, pair by pair."""
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    differ = points[np.repeat(a, size) + offset] != points[np.repeat(b, size) + offset]
    return np.bincount(np.repeat(np.arange(len(size)), size), differ, len(size)) == 0


def _canonical_rows(buf: bytes, start: np.ndarray, end: np.ndarray, delimiter: str, ordinals: dict) -> tuple:
    """Which lines of `buf` are in canonical form, and their columns.

    Canonical: five fields split by a one-byte ASCII delimiter, a
    nine-character ASCII date that `parse_cdr_date` reads, an `HH:MM:SS` time
    in range, a duration of 1-9 ASCII digits, and two distinct, non-empty
    ASCII identities that `str.strip` leaves as they are. `_parse_fields`
    accepts such a row with the same values; the other rows are left to it.
    Line i is `buf[start[i]:end[i]]`, and its caller and callee are the
    bytes `buf[at[i, j]:at[i, j] + size[i, j]]` for j = 0, 1. `ordinals`
    caches `_date_ordinal` of each date text.
    """
    points = np.frombuffer(buf, np.uint8)
    byte = delimiter.encode()
    cut = np.flatnonzero(points == byte[0]) if len(byte) == 1 else np.zeros(0, np.int64)
    first = np.searchsorted(cut, start)
    # a canonical line's delimiters follow its date, its time, its duration and its caller
    cuts = np.append(cut, -1)[np.minimum(first[:, None] + np.arange(CDR_FIELD_COUNT - 1), len(cut))]
    ok = np.searchsorted(cut, end) - first == CDR_FIELD_COUNT - 1
    ok &= (cuts[:, 0] == start + 9) & (cuts[:, 1] == start + 18)
    windows = sliding_window_view(np.concatenate([np.zeros(9, np.uint8), points, np.zeros(18, np.uint8)]), 18)
    head = windows[start + 9]
    digit = (head >= ord("0")) & (head <= ord("9"))

    # one parse per distinct date: a date's nine ASCII characters packed into one key
    date = head[:, :9].astype(np.int64)
    ok &= (date < 128).all(axis=1)
    _, row, inverse = np.unique(np.where(ok, (date << 7 * np.arange(9)).sum(axis=1), -1),
                                return_index=True, return_inverse=True)
    dates = [buf[s:s + 9].decode("latin-1") for s in start[row].tolist()]
    for date_text in set(dates).difference(ordinals):
        ordinals[date_text] = _date_ordinal(date_text)
    date_ord = np.where(ok, np.array([ordinals[d] for d in dates], dtype=np.int32)[inverse], 0)
    ok &= date_ord > 0

    ok &= digit[:, [10, 11, 13, 14, 16, 17]].all(axis=1) & (head[:, 12] == ord(":")) & (head[:, 15] == ord(":"))
    hh, mm, ss = (head[:, i].astype(np.int32) * 10 + head[:, i + 1] - 11 * ord("0") for i in (10, 13, 16))
    ok &= (hh < 24) & (mm < 60) & (ss < 60)

    # the duration, right-aligned into nine places with '0' before it
    width = cuts[:, 2] - cuts[:, 1] - 1
    right = windows[np.clip(cuts[:, 2], 0, len(points))]
    digits = np.where(np.arange(9) >= 9 - width[:, None], right[:, :9], ord("0"))
    ok &= (width >= 1) & (width <= 9) & ((digits >= ord("0")) & (digits <= ord("9"))).all(axis=1)
    duration = (digits.astype(np.int64) - ord("0")) @ 10 ** np.arange(8, -1, -1)

    at = cuts[:, 2:] + 1
    size = np.stack([cuts[:, 3], end], axis=1) - at
    ok &= (size > 0).all(axis=1)
    at, size = at * ok[:, None], size * ok[:, None]
    # no edge byte that str.strip removes, and no byte outside ASCII, whose
    # whitespace str.strip also removes
    edge = points[np.stack([at, np.maximum(at + size - 1, 0)], axis=-1)]
    ok &= ~_STRIPPED[edge].any(axis=(1, 2))
    if not buf.isascii():
        high = np.append(0, np.cumsum(points >= 128))
        ok &= (high[at + size] == high[at]).all(axis=1)
    # a self-call: the same bytes twice, of which the edges are a first test
    same = np.flatnonzero(ok & (size[:, 0] == size[:, 1]) & (edge[:, 0] == edge[:, 1]).all(axis=1))
    ok[same] &= ~_same_spans(points, at[same, 0], at[same, 1], size[same, 0])
    time_sec = np.where(ok, hh * 3600 + mm * 60 + ss, 0).astype(np.int32)
    return ok, date_ord.astype(np.int32), time_sec, np.where(ok, duration, 0).astype(np.int32), at, size


class _IdentityCodes:
    """Codes for identities, numbered by first appearance over successive calls to `code`.

    An identity's key is its UTF-8 bytes (`_keys`). The keys of each length
    make one sorted table, so that every identity, of whatever length, is
    coded the same way, and the tables hold no more than the identities'
    bytes.
    """

    def __init__(self):
        self.tables: dict = {}  # length -> (sorted keys, their codes)
        self.ids: list = []     # in code order

    def code(self, points: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
        """The code of each identity `points[at:at + size]`; one first seen
        here is numbered after every identity seen before, in the order of
        its first place here."""
        codes = np.empty(len(at), np.int32)
        points = np.append(points, np.zeros(8, np.uint8))
        # per length: its places, each place's key, the keys' codes, which keys are new, the new
        # keys and their first places
        lengths = []
        for length in np.flatnonzero(np.bincount(size)).tolist():
            place = np.flatnonzero(size == length)
            keys, first, inverse = np.unique(_keys(points, at[place], length), return_index=True,
                                             return_inverse=True)
            table, table_codes = self.tables.get(length, (keys[:0], codes[:0]))
            slot = np.searchsorted(table, keys)
            new = slot == len(table)
            new[~new] = table[slot[~new]] != keys[~new]
            key_codes = np.empty(len(keys), np.int32)
            key_codes[~new] = table_codes[slot[~new]]
            lengths.append((length, place, inverse.reshape(-1), key_codes, new, keys[new], place[first[new]]))
        # the new identities, numbered in the order of their first places
        first_place = np.concatenate([np.zeros(0, np.int64), *(part[-1] for part in lengths)])
        order = np.argsort(first_place)
        numbers = np.empty(len(order), np.int32)
        numbers[order] = np.arange(len(self.ids), len(self.ids) + len(order))
        texts = []
        for length, place, inverse, key_codes, new, keys, _ in lengths:
            key_codes[new], numbers = numbers[:len(keys)], numbers[len(keys):]
            codes[place] = key_codes[inverse]
            table, table_codes = self.tables.get(length, (keys[:0], codes[:0]))
            slot = np.searchsorted(table, keys)
            self.tables[length] = np.insert(table, slot, keys), np.insert(table_codes, slot, key_codes[new])
            texts += _key_texts(keys, length)
        self.ids += [texts[k] for k in order.tolist()]
        return codes


def _keys(points: np.ndarray, at: np.ndarray, length: int) -> np.ndarray:
    """The keys of the `length` bytes from each of `at`, as values that sort
    as the bytes do: big-endian integers up to 8 bytes, which numpy compares
    fastest, fixed-width byte strings beyond. `points` runs on for 8 bytes
    after its last span."""
    width = max(length, 8)
    spans = np.ndarray((len(points) - width + 1,), ">u8" if length <= 8 else f"S{length}", points, strides=(1,))
    if length > 8:
        return spans[at]
    return spans[at].astype(np.uint64) >> np.uint64(64 - 8 * length)


def _key_texts(keys: np.ndarray, length: int) -> list:
    """The identities of `_keys`' keys of `length` bytes."""
    if length <= 8:
        keys = (keys << np.uint64(64 - 8 * length)).astype(">u8")
    data, width = keys.tobytes(), keys.itemsize
    if data.isascii():
        text = data.decode("ascii")
        return [text[k:k + length] for k in range(0, len(text), width)]
    return [data[k:k + length].decode() for k in range(0, len(data), width)]


def ingest_cdr(
    source: str | Path | BinaryIO,
    min_duration: int,
    delimiter: str,
    reject_log: TextIO | None = None,
) -> tuple[CdrBatch, IngestStats]:
    """Stream-parse a CDR log, dropping calls shorter than `min_duration` seconds.

    `source` is a path or a binary file of UTF-8 text; a byte that is not
    UTF-8 is a DataError naming the file and the row. Returns the accepted
    records (columnar) plus stats that account for every input row:
    accepted + rejected + filtered_short = read. An optional header row is
    auto-detected and not counted. Rejected rows go to the module logger
    and, when given, to `reject_log` as `row<TAB>reason<TAB>line`.

    The log is read a block at a time (`_cdr_blocks`). Rows in canonical
    form are converted column by column; every other row goes through
    `_parse_fields` in row order, which accepts it or gives the reason it is
    rejected. Identities are coded by their bytes (`_IdentityCodes`), a
    block of accepted calls at a time, caller first, which numbers them by
    first appearance.
    """
    if min_duration < 0:
        raise DataError("min_duration must be >= 0")
    ordinals: dict[str, int] = {}
    codes = _IdentityCodes()
    columns: list = [[] for _ in range(CDR_FIELD_COUNT)]
    stats = IngestStats()
    named = isinstance(source, (str, Path))
    with open(source, "rb") if named else nullcontext(source) as log:
        first = True
        for buf, start, end in _cdr_blocks(log):
            try:
                if not buf.isascii():
                    buf.decode()
            except UnicodeDecodeError as exc:
                # the row as rows are counted: a header does not count
                line = int(np.searchsorted(end, exc.start))
                header = first and line and _looks_like_header(buf[start[0]:end[0]].decode().split(delimiter))
                raise DataError(f"{source if named else getattr(source, 'name', 'CDR log')}: "
                                f"CDR row {stats.rows_read + line + 1 - header} is not UTF-8 text") from None
            if first and len(start):
                first = False
                if _looks_like_header(buf[start[0]:end[0]].decode().split(delimiter)):
                    start, end = start[1:], end[1:]
            if not len(start):
                continue
            ok, date_ord, time_sec, duration, at, size = _canonical_rows(buf, start, end, delimiter, ordinals)
            parsed = bytearray()  # the identities of the other rows accepted, placed after `buf`
            for i in np.flatnonzero(~ok).tolist():
                text = buf[start[i]:end[i]].decode()
                try:
                    fields = _parse_fields(text.split(delimiter), ordinals)
                except CdrParseError as exc:
                    stats.rows_rejected += 1
                    logger.warning("rejected CDR row %d: %s", stats.rows_read + i + 1, exc)
                    if reject_log is not None:
                        reject_log.write(f"{stats.rows_read + i + 1}\t{exc}\t{text}\n")
                    continue
                date_ord[i], time_sec[i], duration[i] = fields[:3]
                for j, identity in enumerate(fields[3:]):
                    key = identity.encode()
                    at[i, j], size[i, j] = len(buf) + len(parsed), len(key)
                    parsed += key
                ok[i] = True
            stats.rows_read += len(start)
            keep = ok & (duration >= min_duration)
            stats.rows_filtered_short += int(ok.sum() - keep.sum())
            # caller first, call by call
            code = codes.code(np.frombuffer(buf + parsed if parsed else buf, np.uint8), at[keep].ravel(),
                              size[keep].ravel())
            for column, values in zip(columns, (date_ord[keep], time_sec[keep], duration[keep],
                                                code[0::2], code[1::2])):
                column.append(values)
    batch = CdrBatch(*(np.concatenate([np.zeros(0, np.int32), *c]) for c in columns),
                     ids=codes.ids)
    stats.rows_accepted = len(batch)
    stats.distinct_ids = len(batch.ids)
    return batch, stats


# ---------------------------------------------------------------------------
# Bank data: accounts, debit transactions and credit-card activity.
# ---------------------------------------------------------------------------

CARD_MONTHS = 12
_ARREARS_TRUE = frozenset(("1", "true", "True"))

ACCOUNT_COLUMNS = ("customer_id", "age", "marital_status", "postcode")
TRANSACTION_COLUMNS = ("customer_id", "date", "amount")
_DRAWN_COLUMNS = tuple(f"drawn_{m}" for m in range(1, CARD_MONTHS + 1))
_ARREARS_COLUMNS = tuple(f"arrears_{m}" for m in range(1, CARD_MONTHS + 1))
CARD_COLUMNS = ("customer_id", "issue_date", "credit_limit") + _DRAWN_COLUMNS + _ARREARS_COLUMNS


@dataclass(slots=True)
class BankTable:
    """The card holders, sorted by customer id, with their accounts and debit transactions.

    Row i of every card and account column is customer `ids[i]`. `age` is
    NaN, and `marital_status` and `postcode` are None, where the account row
    leaves the field empty or the card holder has no account row. Debit
    transaction k belongs to row `txn_owner[k]`; transactions are sorted by
    owner row, then by (day, amount), ties in file order. Days are proleptic
    ordinals.
    """

    ids: np.ndarray             # str objects
    issue_day: np.ndarray       # int64
    credit_limit: np.ndarray    # float64
    drawn: np.ndarray           # (n, CARD_MONTHS) float64
    arrears: np.ndarray         # (n, CARD_MONTHS) bool
    age: np.ndarray             # float64
    marital_status: np.ndarray  # str or None objects
    postcode: np.ndarray        # str or None objects
    txn_owner: np.ndarray       # int64
    txn_day: np.ndarray         # int64
    txn_amount: np.ndarray      # float64

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class BankIngestStats:
    accounts_read: int = 0
    cards_read: int = 0
    transactions_read: int = 0
    customers_without_card: int = 0
    cards_without_account: int = 0
    orphan_transactions: int = 0


def write_bank(paths: dict, ids: list, accounts: tuple, transactions: tuple, cards: tuple) -> None:
    """Write the three bank files that `ingest_bank` reads from columns, one row per entry.

    The columns are arrays: accounts = (owner, age, marital_status, postcode),
    transactions = (owner, day, amount) and cards = (owner, issue_day,
    credit_limit, drawn, arrears), drawn and arrears of shape (n, CARD_MONTHS).
    Owners index `ids`, days are ordinals, ages and postcodes are integers and
    marital statuses strs. `paths` maps "accounts", "transactions" and
    "card_activity" to files.
    """
    owner, age, marital_status, postcode = accounts
    statuses, status_of = np.unique(marital_status, return_inverse=True)
    codes, code_of = np.unique(postcode, return_inverse=True)
    write_csv(paths["accounts"], ACCOUNT_COLUMNS, [
        (ids, owner), age, (statuses.tolist(), status_of), ([f"{c:04d}" for c in codes.tolist()], code_of)])
    owner, day, amount = transactions
    card_owner, issue_day, credit_limit, drawn, arrears = cards
    days, day_of = np.unique(np.append(day, issue_day), return_inverse=True)
    dates = [format_cdr_date(date.fromordinal(o)) for o in days.tolist()]
    write_csv(paths["transactions"], TRANSACTION_COLUMNS, [(ids, owner), (dates, day_of[:len(day)]), amount])
    write_csv(paths["card_activity"], CARD_COLUMNS, [
        (ids, card_owner), (dates, day_of[len(day):]), credit_limit, drawn, arrears])


def _column_chunks(path: str | Path, expected: tuple[str, ...], what: str) -> Iterator[dict]:
    """The rows of a bank file as {column: values}, up to `_BANK_CHUNK` rows at a time.

    Rows are read as the csv module's dict reader reads them: blank rows are skipped, a
    column named twice is its last one, and a row too short to hold a
    column gives None there. The file is opened with newline="", as the csv
    module asks, so a quoted field keeps its line breaks as written.
    """
    with open(path, encoding="utf-8", newline="") as lines:
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            return
        missing = [c for c in expected if c not in header]
        if missing:
            raise DataError(f"{what} file is missing columns: {', '.join(missing)}")
        index = {name: i for i, name in enumerate(header)}
        width = max(index[c] for c in expected) + 1
        while chunk := list(islice(reader, _BANK_CHUNK)):
            rows = list(filter(None, chunk))
            if rows and min(map(len, rows)) < width:
                rows = [r + [None] * (width - len(r)) for r in rows]
            if rows:
                yield {c: list(map(operator.itemgetter(index[c]), rows)) for c in expected}


def _field(row: dict, column: str, cid: str, what: str) -> str:
    """The stripped text of `column`; a row too short to hold it is a data error."""
    if row[column] is None:
        raise DataError(f"{what} file: customer {cid!r} has no {column} field")
    return row[column].strip()


def _number(row: dict, column: str, cid: str, what: str) -> float:
    text = _field(row, column, cid, what)
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise DataError(f"{what} file: customer {cid!r} has non-numeric {column} {row[column]!r}")


def _date(row: dict, column: str, cid: str, what: str) -> date:
    try:
        return parse_cdr_date(_field(row, column, cid, what))
    except CdrParseError:
        raise DataError(f"{what} file: customer {cid!r} has invalid {column} {row[column]!r}") from None


def _numbers(values: list) -> list | None:
    """The values as finite floats, or None when one is missing or is not one."""
    if None in values:
        return None
    try:
        numbers = list(map(float, map(str.strip, values)))
    except ValueError:
        return None
    return numbers if all(map(math.isfinite, numbers)) else None


def _days(values: list, cache: dict) -> list | None:
    """The values as date ordinals, each distinct text parsed once into `cache`;
    None when one is missing or does not parse."""
    if None in values:
        return None
    texts = list(map(str.strip, values))
    for text in set(texts).difference(cache):
        cache[text] = _date_ordinal(text)
    days = list(map(cache.__getitem__, texts))
    return None if 0 in days else days


def _stripped(values: list) -> list | None:
    return None if None in values else list(map(str.strip, values))


def _raise_first_fault(cols: dict, what: str, check, state) -> NoReturn:
    """Raise the error of the first faulty row, in file order, of a block the column pass refused.

    `check(row, cid, state)` raises on a row with a fault. The column pass
    refuses a block only on a condition that `check`, or the missing
    customer_id test here, raises on, so a refused block always raises.
    """
    for values in zip(*cols.values()):
        row = dict(zip(cols, values))
        if row["customer_id"] is None:
            raise DataError(f"{what} file: a row has no customer_id field")
        check(row, row["customer_id"].strip(), state)
    raise AssertionError(f"{what} file: the column pass refused a block without a fault")


def _check_account(row: dict, cid: str, seen: set) -> None:
    if cid in seen:
        raise DataError(f"duplicate customer_id {cid!r} in accounts")
    seen.add(cid)
    if _field(row, "age", cid, "accounts"):
        _number(row, "age", cid, "accounts")
    _field(row, "marital_status", cid, "accounts")
    _field(row, "postcode", cid, "accounts")


def _check_transaction(row: dict, cid: str, accounts: dict) -> None:
    if cid not in accounts:
        logger.warning("orphan transaction for unknown customer %r", cid)
        return
    _date(row, "date", cid, "transactions")
    _number(row, "amount", cid, "transactions")


def _check_card(row: dict, cid: str, seen: set) -> None:
    if cid in seen:
        raise DataError(f"duplicate customer_id {cid!r} in card activity")
    seen.add(cid)
    limit = _number(row, "credit_limit", cid, "card activity")
    if limit <= 0:
        raise DataError(f"customer {cid!r} has non-positive credit limit {limit}")
    drawn = [_number(row, c, cid, "card activity") for c in _DRAWN_COLUMNS]
    over = [d for d in drawn if d > limit * (1 + 1e-9)]
    if over:
        raise DataError(f"customer {cid!r} drawn {max(over)} exceeds credit limit {limit}")
    for c in _ARREARS_COLUMNS:
        _field(row, c, cid, "card activity")
    _date(row, "issue_date", cid, "card activity")


def ingest_bank(
    accounts: str | Path,
    transactions: str | Path,
    card_activity: str | Path,
) -> tuple[BankTable, BankIngestStats]:
    """Join the three bank files, given by their paths, on customer_id into one table of the card holders.

    Customers without card activity are excluded (counted); card rows without
    an account row keep missing sociodemographics. Duplicated customer_id in
    either keyed file is an error naming the identity. Orphan transactions
    (no account row) are counted and logged, never attached.

    Each block of rows is checked and converted a column at a time. A block
    with a value that does not convert, or that breaks a check, is checked
    again a row at a time, so that the first fault in file order raises its
    error, naming the file, the customer and the column.
    """
    stats = BankIngestStats()
    days: dict = {}

    account_of: dict[str, int] = {}
    ages, marital, postcode = [], [], []
    for cols in _column_chunks(accounts, ACCOUNT_COLUMNS, "accounts"):
        stats.accounts_read += len(cols["customer_id"])
        cids, age, status, code = (_stripped(cols[c]) for c in ACCOUNT_COLUMNS)
        numbers = _numbers([a for a in age if a]) if age is not None else None
        if (cids is None or numbers is None or status is None or code is None
                or len(set(cids)) < len(cids) or not account_of.keys().isdisjoint(cids)):
            _raise_first_fault(cols, "accounts", _check_account, set(account_of))
        account_of.update(zip(cids, range(len(account_of), len(account_of) + len(cids))))
        numbers = iter(numbers)
        ages += [next(numbers) if a else math.nan for a in age]
        marital += [s or None for s in status]
        postcode += [c or None for c in code]

    txn_account, txn_day, txn_amount = [np.zeros(0, np.int64)], [], []
    for cols in _column_chunks(transactions, TRANSACTION_COLUMNS, "transactions"):
        stats.transactions_read += len(cols["customer_id"])
        cids = _stripped(cols["customer_id"])
        if cids is not None:
            account = np.fromiter(map(account_of.get, cids, repeat(-1)), np.int64, len(cids))
            known = (account >= 0).tolist()
            on = _days(list(compress(cols["date"], known)), days)
            amounts = _numbers(list(compress(cols["amount"], known)))
        if cids is None or on is None or amounts is None:
            _raise_first_fault(cols, "transactions", _check_transaction, account_of)
        for cid in compress(cids, map(operator.not_, known)):
            stats.orphan_transactions += 1
            logger.warning("orphan transaction for unknown customer %r", cid)
        txn_account.append(account[account >= 0])
        txn_day += on
        txn_amount += amounts

    card_ids: list[str] = []
    seen_cards: set[str] = set()
    issue_day, credit_limit = [], []
    drawn, arrears = [np.zeros((0, CARD_MONTHS))], [np.zeros((0, CARD_MONTHS), bool)]
    for cols in _column_chunks(card_activity, CARD_COLUMNS, "card activity"):
        stats.cards_read += len(cols["customer_id"])
        cids = _stripped(cols["customer_id"])
        issued = _days(cols["issue_date"], days)
        limits = _numbers(cols["credit_limit"])
        amounts = [_numbers(cols[c]) for c in _DRAWN_COLUMNS]
        flags = [_stripped(cols[c]) for c in _ARREARS_COLUMNS]
        if (cids is None or issued is None or limits is None or None in amounts or None in flags
                or len(set(cids)) < len(cids) or not seen_cards.isdisjoint(cids)
                or min(limits) <= 0 or (np.array(amounts) > np.array(limits) * (1 + 1e-9)).any()):
            _raise_first_fault(cols, "card activity", _check_card, set(seen_cards))
        seen_cards.update(cids)
        card_ids += cids
        issue_day += issued
        credit_limit += limits
        drawn.append(np.array(amounts).T)
        arrears.append(np.fromiter(map(_ARREARS_TRUE.__contains__, chain.from_iterable(flags)), bool,
                                   CARD_MONTHS * len(cids)).reshape(CARD_MONTHS, -1).T)

    order = np.argsort(np.array(card_ids, dtype=object), kind="stable")
    ids = np.array(card_ids, dtype=object)[order]
    account = np.fromiter(map(account_of.get, ids.tolist(), repeat(-1)), np.int64, len(ids))
    has_account = account >= 0
    stats.cards_without_account = int(len(ids) - has_account.sum())
    stats.customers_without_card = len(account_of) - int(has_account.sum())
    if stats.customers_without_card:
        logger.info("excluded %d customers without card activity", stats.customers_without_card)

    # a transaction's owner is the card holder with its account row, if any
    card_of = np.full(len(account_of), -1)
    card_of[account[has_account]] = np.flatnonzero(has_account)
    owner = card_of[np.concatenate(txn_account)]
    kept = owner >= 0
    owner, day, amount = owner[kept], np.array(txn_day, np.int64)[kept], np.array(txn_amount)[kept]
    by_owner = np.lexsort((amount, day, owner))
    # account -1, a card holder without an account row, reads the missing value appended last
    return BankTable(
        ids=ids,
        issue_day=np.array(issue_day, np.int64)[order],
        credit_limit=np.array(credit_limit, np.float64)[order],
        drawn=np.concatenate(drawn)[order],
        arrears=np.concatenate(arrears)[order],
        age=np.array(ages + [math.nan], np.float64)[account],
        marital_status=np.array(marital + [None], dtype=object)[account],
        postcode=np.array(postcode + [None], dtype=object)[account],
        txn_owner=owner[by_owner],
        txn_day=day[by_owner],
        txn_amount=amount[by_owner],
    ), stats
