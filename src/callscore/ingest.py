"""CDR log and bank-file ingestion: typed records, validation, duration filter.

Call logs arrive as delimited text with five columns (start date, start time,
duration in seconds, caller identity, callee identity). Dates use the DDMONYYYY
form, identities are opaque strings and never interpreted as numbers. Rows are
validated one at a time; rejects are counted and logged, never silently dropped.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from datetime import date, time
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

_MONTHS = {
    "JAN": 1, "FEB": 2, "MAR": 3, "APR": 4, "MAY": 5, "JUN": 6,
    "JUL": 7, "AUG": 8, "SEP": 9, "OCT": 10, "NOV": 11, "DEC": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

CDR_FIELD_COUNT = 5
CDR_HEADER = "start_date,start_time,duration,from_id,to_id"
_WRITE_CHUNK = 1 << 16


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


def _parse_fields(fields: list[str], date_cache: dict[str, int]) -> tuple[int, int, int, str, str]:
    """Validate one split CDR row: (date ordinal, seconds of day, duration, from_id, to_id).

    Raises CdrParseError on a wrong field count, malformed date or time,
    non-numeric or negative duration, empty identities, or a self-call.
    `date_cache` maps date text already parsed to its ordinal.
    """
    if len(fields) != CDR_FIELD_COUNT:
        raise CdrParseError(f"expected {CDR_FIELD_COUNT} fields, got {len(fields)}")
    dtext = fields[0].strip()
    ordinal = date_cache.get(dtext)
    if ordinal is None:
        ordinal = date_cache[dtext] = parse_cdr_date(dtext).toordinal()
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

    @classmethod
    def from_records(cls, records: Iterable[CdrRecord]) -> "CdrBatch":
        codes: dict[str, int] = {}
        cols = [array("i") for _ in range(5)]
        for r in records:
            cols[0].append(r.start_date.toordinal())
            cols[1].append(r.start_time.hour * 3600 + r.start_time.minute * 60 + r.start_time.second)
            cols[2].append(r.duration)
            cols[3].append(codes.setdefault(r.from_id, len(codes)))
            cols[4].append(codes.setdefault(r.to_id, len(codes)))
        return cls(*cols, ids=list(codes))


def write_cdr(path: str | Path, batch: CdrBatch) -> None:
    """Write `batch` as a CDR log: the header, then one row per call in batch order."""
    unwritable = next((i for i in batch.ids if "," in i), None)
    if unwritable is not None:
        raise DataError(f"identity {unwritable!r} contains a comma and cannot be written as a CDR field")
    dates = {o: format_cdr_date(date.fromordinal(o)) for o in np.unique(batch.date_ord).tolist()}
    ids = batch.ids
    columns = (batch.date_ord, batch.time_sec, batch.duration, batch.from_code, batch.to_code)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CDR_HEADER + "\n")
        # a chunk at a time: .tolist() costs about 36 bytes per value
        for lo in range(0, len(batch), _WRITE_CHUNK):
            fh.writelines(
                f"{dates[o]},{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d},{d},{ids[a]},{ids[b]}\n"
                for o, s, d, a, b in zip(*(c[lo:lo + _WRITE_CHUNK].tolist() for c in columns))
            )


def _looks_like_header(fields: list[str]) -> bool:
    """A header has the right arity but a non-numeric duration and no date."""
    if len(fields) != CDR_FIELD_COUNT:
        return False
    try:
        int(fields[2].strip())
        return False
    except ValueError:
        pass
    try:
        parse_cdr_date(fields[0])
        return False
    except CdrParseError:
        return True


def _open_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    return source


def ingest_cdr(
    source: str | Path | Iterable[str],
    min_duration: int,
    delimiter: str,
    reject_log: TextIO | None = None,
) -> tuple[CdrBatch, IngestStats]:
    """Stream-parse a CDR log, dropping calls shorter than `min_duration` seconds.

    Returns the accepted records (columnar) plus stats that account for every
    input row: accepted + rejected + filtered_short = read. An optional header
    row is auto-detected and not counted. Rejected rows go to the module logger
    and, when given, to `reject_log` as `row<TAB>reason<TAB>line`.
    """
    if min_duration < 0:
        raise DataError("min_duration must be >= 0")
    codes: dict[str, int] = {}
    date_cache: dict[str, int] = {}
    date_ord = array("i")
    time_sec = array("i")
    duration_col = array("i")
    from_code = array("i")
    to_code = array("i")
    stats = IngestStats()
    lines = _open_lines(source)
    try:
        row_number = 0
        first = True
        for raw in lines:
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(delimiter)
            if first:
                first = False
                if _looks_like_header(fields):
                    continue
            row_number += 1
            try:
                ordinal, sec, dur, fid, tid = _parse_fields(fields, date_cache)
            except CdrParseError as exc:
                stats.rows_rejected += 1
                logger.warning("rejected CDR row %d: %s", row_number, exc)
                if reject_log is not None:
                    reject_log.write(f"{row_number}\t{exc}\t{line}\n")
                continue
            if dur < min_duration:
                stats.rows_filtered_short += 1
                continue
            date_ord.append(ordinal)
            time_sec.append(sec)
            duration_col.append(dur)
            from_code.append(codes.setdefault(fid, len(codes)))
            to_code.append(codes.setdefault(tid, len(codes)))
    finally:
        if hasattr(lines, "close"):
            lines.close()
    stats.rows_read = row_number
    stats.rows_accepted = len(duration_col)
    stats.distinct_ids = len(codes)
    batch = CdrBatch(date_ord, time_sec, duration_col, from_code, to_code, list(codes))
    return batch, stats


# ---------------------------------------------------------------------------
# Bank data: accounts, debit transactions and credit-card activity.
# ---------------------------------------------------------------------------

CARD_MONTHS = 12

ACCOUNT_COLUMNS = ("customer_id", "age", "marital_status", "postcode")
TRANSACTION_COLUMNS = ("customer_id", "date", "amount")
CARD_COLUMNS = (
    ("customer_id", "issue_date", "credit_limit")
    + tuple(f"drawn_{m}" for m in range(1, CARD_MONTHS + 1))
    + tuple(f"arrears_{m}" for m in range(1, CARD_MONTHS + 1))
)


@dataclass(slots=True)
class BankRecord:
    """One card-holding bank customer with 12 months of post-issue history."""

    customer_id: str
    sociodemographics: dict
    debit_transactions: list  # (date, amount) pairs
    card_issue_date: date
    credit_limit: float
    monthly_drawn: tuple
    monthly_arrears: tuple


@dataclass
class BankIngestStats:
    accounts_read: int = 0
    cards_read: int = 0
    transactions_read: int = 0
    customers_without_card: int = 0
    cards_without_account: int = 0
    orphan_transactions: int = 0


def _reader(source, expected: tuple[str, ...], what: str) -> Iterator[dict]:
    lines = _open_lines(source)
    try:
        rows = csv.DictReader(lines)
        if rows.fieldnames is None:
            return
        missing = [c for c in expected if c not in rows.fieldnames]
        if missing:
            raise DataError(f"{what} file is missing columns: {', '.join(missing)}")
        yield from rows
    finally:
        if hasattr(lines, "close"):
            lines.close()


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


def ingest_bank(
    accounts: str | Path | Iterable[str],
    transactions: str | Path | Iterable[str],
    card_activity: str | Path | Iterable[str],
) -> tuple[list[BankRecord], BankIngestStats]:
    """Join the three bank files on customer_id into one record per card holder.

    Customers without card activity are excluded (counted); card rows without
    an account row keep missing sociodemographics. Duplicated customer_id in
    either keyed file is an error naming the identity. Orphan transactions
    (no account row) are counted and logged, never attached.
    """
    stats = BankIngestStats()

    sociodemo: dict[str, dict] = {}
    for row in _reader(accounts, ACCOUNT_COLUMNS, "accounts"):
        stats.accounts_read += 1
        cid = row["customer_id"].strip()
        if cid in sociodemo:
            raise DataError(f"duplicate customer_id {cid!r} in accounts")
        sociodemo[cid] = {
            "age": _number(row, "age", cid, "accounts") if _field(row, "age", cid, "accounts") else None,
            "marital_status": _field(row, "marital_status", cid, "accounts") or None,
            "postcode": _field(row, "postcode", cid, "accounts") or None,
        }

    debits: dict[str, list] = {}
    for row in _reader(transactions, TRANSACTION_COLUMNS, "transactions"):
        stats.transactions_read += 1
        cid = row["customer_id"].strip()
        if cid not in sociodemo:
            stats.orphan_transactions += 1
            logger.warning("orphan transaction for unknown customer %r", cid)
            continue
        debits.setdefault(cid, []).append(
            (_date(row, "date", cid, "transactions"), _number(row, "amount", cid, "transactions"))
        )

    records: list[BankRecord] = []
    seen_cards: set[str] = set()
    for row in _reader(card_activity, CARD_COLUMNS, "card activity"):
        stats.cards_read += 1
        cid = row["customer_id"].strip()
        if cid in seen_cards:
            raise DataError(f"duplicate customer_id {cid!r} in card activity")
        seen_cards.add(cid)
        limit = _number(row, "credit_limit", cid, "card activity")
        if limit <= 0:
            raise DataError(f"customer {cid!r} has non-positive credit limit {limit}")
        drawn = tuple(_number(row, f"drawn_{m}", cid, "card activity") for m in range(1, CARD_MONTHS + 1))
        over = [d for d in drawn if d > limit * (1 + 1e-9)]
        if over:
            raise DataError(f"customer {cid!r} drawn {max(over)} exceeds credit limit {limit}")
        arrears = tuple(_field(row, f"arrears_{m}", cid, "card activity") in ("1", "true", "True")
                        for m in range(1, CARD_MONTHS + 1))
        if cid not in sociodemo:
            stats.cards_without_account += 1
        records.append(
            BankRecord(
                customer_id=cid,
                sociodemographics=sociodemo.get(cid, {"age": None, "marital_status": None, "postcode": None}),
                debit_transactions=sorted(debits.get(cid, [])),
                card_issue_date=_date(row, "issue_date", cid, "card activity"),
                credit_limit=limit,
                monthly_drawn=drawn,
                monthly_arrears=arrears,
            )
        )

    stats.customers_without_card = sum(1 for cid in sociodemo if cid not in seen_cards)
    if stats.customers_without_card:
        logger.info("excluded %d customers without card activity", stats.customers_without_card)
    records.sort(key=lambda r: r.customer_id)
    return records, stats
