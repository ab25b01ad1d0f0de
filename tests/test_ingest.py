import csv
import dataclasses
import io
import json
import logging
import math
import time as time_module
from datetime import date, time

import numpy as np
import pytest

from callscore import ingest, tables
from callscore.cli import main as cli_main
from callscore.errors import DataError
from callscore.ingest import (
    CARD_MONTHS,
    CDR_HEADER,
    CdrParseError,
    CdrRecord,
    ingest_bank,
    ingest_cdr,
    parse_cdr_line,
    write_bank,
    write_cdr,
)
from callscore.tables import write_csv
from conftest import records_batch, records_table, reference_ingest_bank, reference_ingest_cdr

TABLE_ROW = "01MAY2017,14:51:14,715,(202) 555-0116,(701) 555-0191"


def cdr_log(lines) -> io.BytesIO:
    """A CDR log file of `lines`, in UTF-8, each ended by \\n unless it ends in \\n already."""
    return io.BytesIO("".join(line if line.endswith("\n") else line + "\n" for line in lines).encode())


def test_parse_published_log_row():
    record = parse_cdr_line(TABLE_ROW, ",")
    assert record == CdrRecord(
        date(2017, 5, 1), time(14, 51, 14), 715, "(202) 555-0116", "(701) 555-0191"
    )


def test_zero_duration_is_parsed_not_filtered():
    record = parse_cdr_line("01MAY2017,14:51:14,0,X,Y", ",")
    assert record.duration == 0


MALFORMED = pytest.mark.parametrize("line,reason", [
    ("01MAY2017,25:61:00,10,X,Y", "time"),
    ("41MAY2017,14:51:14,10,X,Y", "date"),
    ("01MAZ2017,14:51:14,10,X,Y", "date"),
    ("01MAY2017,14:51:14,abc,X,Y", "duration"),
    ("01MAY2017,14:51:14,-3,X,Y", "duration"),
    ("01MAY2017,14:51:14,10,X", "fields"),
    ("01MAY2017,14:51:14,10,X,Y,Z", "fields"),
    ("01MAY2017,14:51:14,10,X,X", "self-call"),
    ("01MAY2017,14:51:14,10,,Y", "identity"),
    ("01MAY2017,14:51:14,3000000000,X,Y", "overflow"),
], ids=lambda v: v if "," not in str(v) else "row")


@MALFORMED
def test_parse_rejects_malformed(line, reason):
    with pytest.raises(CdrParseError):
        parse_cdr_line(line, ",")


@MALFORMED
def test_reject_log_reason_is_the_parse_error(line, reason):
    with pytest.raises(CdrParseError) as error:
        parse_cdr_line(line, ",")
    log = io.StringIO()
    ingest_cdr(cdr_log([TABLE_ROW, line]), min_duration=5, delimiter=",", reject_log=log)
    assert log.getvalue() == f"2\t{error.value}\t{line}\n"


def test_duration_beyond_int32_is_rejected_and_counted(tmp_path):
    rows = ["01MAY2017,10:00:00,2147483647,A,B", "01MAY2017,10:00:01,2147483648,A,B",
            "01MAY2017,10:00:02,3000000000,A,B"]
    (tmp_path / "cdr.csv").write_text("".join(f"{row}\n" for row in rows))
    out = tmp_path / "out"
    assert cli_main(["ingest", "--cdr", str(tmp_path / "cdr.csv"), "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert (stats["rows_accepted"], stats["rows_rejected"]) == (1, 2)
    assert (out / "rejects.log").read_text().splitlines() == [
        f"2\tduration 2147483648 exceeds 2147483647\t{rows[1]}",
        f"3\tduration 3000000000 exceeds 2147483647\t{rows[2]}",
    ]


def columns(batch):
    return (batch.date_ord.tolist(), batch.time_sec.tolist(), batch.duration.tolist(),
            [batch.ids[c] for c in batch.from_code], [batch.ids[c] for c in batch.to_code])


def ingest_outcome(parse, source, delimiter, caplog, min_duration=5):
    """Everything a CDR parse of `source`, a path, a binary file or a list of
    lines for `cdr_log`, gives: its columns and their dtypes, the identity
    table, the stats, the reject log and the logged warnings."""
    caplog.clear()
    rejects = io.StringIO()
    with caplog.at_level(logging.WARNING, logger="callscore.ingest"):
        source = cdr_log(source) if isinstance(source, list) else source
        batch, stats = parse(source, min_duration, delimiter, rejects)
    arrays = (batch.date_ord, batch.time_sec, batch.duration, batch.from_code, batch.to_code)
    return ([a.tolist() for a in arrays], [a.dtype for a in arrays], batch.ids,
            dataclasses.asdict(stats), rejects.getvalue(), [r.getMessage() for r in caplog.records])


@MALFORMED
def test_columnar_ingest_matches_per_row_reference_on_malformed_rows(line, reason, caplog):
    rows = [TABLE_ROW, line, "01MAY2017,14:51:20,30,X,Y"]
    assert ingest_outcome(ingest_cdr, rows, ",", caplog) == ingest_outcome(reference_ingest_cdr, rows, ",", caplog)


def fuzzed_cdr_lines(rng, n, delimiter):
    """CDR lines in canonical form mixed with every variant the row parser
    accepts or rejects: padding, signed and underscored durations, lowercase
    months, long digit runs, bad times, field counts, empty and equal
    identities, non-ASCII identities, CRLF endings and blank lines."""
    dates = ["01MAY2017", "15JUN2017", "31jul2017", " 02MAY2017", "30FEB2017", "01XYZ2017", "1MAY2017", ""]
    times = ["12:00:00", "23:59:59", "00:00:00", " 08:15:00", "8:5:0", "24:00:00", "12:60:00",
             "12:00", "12:00:00:00", "ab:cd:ef", "+1:00:00"]
    durations = ["30", "5", "4", "0", "007", "+12", "1_0", " 9", "-3", "abc", "1234567890", "999999999", ""]
    people = ["A", "B", "C", "(202) 555-0116", " D ", "É", "名前", "", "A"]
    lines = []
    for i in range(n):
        common = rng.random() < 0.6
        fields = [
            "01MAY2017" if common else dates[rng.integers(len(dates))],
            f"{rng.integers(24):02d}:{rng.integers(60):02d}:{rng.integers(60):02d}" if common
            else times[rng.integers(len(times))],
            str(rng.integers(0, 40)) if common else durations[rng.integers(len(durations))],
            f"P{rng.integers(40)}" if common else people[rng.integers(len(people))],
            f"P{rng.integers(40)}" if common else people[rng.integers(len(people))],
        ]
        if rng.random() < 0.03:
            fields = fields[:int(rng.integers(1, 5))] if rng.random() < 0.5 else fields + ["extra"]
        line = delimiter.join(fields)
        ending = ["\n", "\r\n", ""][rng.integers(3)]
        lines.append(line + ending)
        if rng.random() < 0.03:
            lines.append(["\n", "   \n", "\r\n", "\t"][rng.integers(4)])
    return lines


@pytest.mark.parametrize("delimiter", [",", ";", "||"])
@pytest.mark.parametrize("block", [3, 1 << 12])
def test_columnar_ingest_matches_per_row_reference_on_fuzzed_logs(delimiter, block, monkeypatch, caplog):
    # each log is about 9 KB, so even 4,096-byte blocks split it
    monkeypatch.setattr(ingest, "_READ_BLOCK", block)
    rng = np.random.default_rng(len(delimiter) * 100 + block)
    for trial in range(4):
        lines = fuzzed_cdr_lines(rng, 300, delimiter)
        if trial % 2:
            lines.insert(0, delimiter.join(CDR_HEADER.split(",")) + "\n")
        if trial == 3:
            lines = ["\n", "  \n"] + lines
        for min_duration in (0, 5):
            assert (ingest_outcome(ingest_cdr, lines, delimiter, caplog, min_duration)
                    == ingest_outcome(reference_ingest_cdr, lines, delimiter, caplog, min_duration))


def test_identity_first_seen_on_a_short_call_gets_its_code_when_accepted(caplog):
    rows = ["01MAY2017,10:00:00,2,NEW,A", "01MAY2017,10:00:01,30,B,A", "01MAY2017,10:00:02,30,A,NEW"]
    batch, _ = ingest_cdr(cdr_log(rows), min_duration=5, delimiter=",")
    assert batch.ids == ["B", "A", "NEW"]
    assert ingest_outcome(ingest_cdr, rows, ",", caplog) == ingest_outcome(reference_ingest_cdr, rows, ",", caplog)


def test_columnar_ingest_matches_reference_across_many_chunks(monkeypatch, caplog):
    monkeypatch.setattr(ingest, "_READ_BLOCK", 64)
    rng = np.random.default_rng(7)
    lines = fuzzed_cdr_lines(rng, 5000, ",")
    assert ingest_outcome(ingest_cdr, lines, ",", caplog) == ingest_outcome(reference_ingest_cdr, lines, ",", caplog)


# identities the byte reader reads itself (ASCII, no edge whitespace; 8, 9,
# 16 and 17 bytes, NUL inside or at either end) and ones it leaves to the row
# validator: empty, padding that str.strip removes, non-ASCII
READER_IDS = ["", "P0000001", "P0000002", "ab", "a b", "\x00N", "A\x00B", "P00000012", "P000000000000001",
              "P0000000000000012", "P00000001 ", "\x0bA", "A\x0c", "\x1cB", "B\x1d", "\x1eC\x1f", " D", "É",
              "名前", "N\x00", "\x85E", "E\u2028", "P0000001\x0b", "\x00\x00", "0123456789\x00", "N\x00\x00"]


def crafted_log(rng, n, delimiter, endings=("\n", "\r\n", "\r")):
    """A call log of canonical and other rows, with mixed line ends and blank lines."""
    lines = []
    for _ in range(n):
        fields = ["01MAY2017" if rng.random() < 0.9 else ["1MAY2017", "31APR2017", "02may2017"][rng.integers(3)],
                  f"{rng.integers(24):02d}:{rng.integers(60):02d}:{rng.integers(60):02d}",
                  str(rng.integers(0, 40)), *(READER_IDS[k] for k in rng.integers(len(READER_IDS), size=2))]
        lines.append(delimiter.join(fields) + endings[rng.integers(len(endings))])
        if rng.random() < 0.05:
            lines.append(["\n", "\r\n", "\r", "\r\r\n", "\n\n"][rng.integers(5)])
    return "".join(lines)


def byte_reader_outcomes(path, delimiter, caplog):
    """ingest_cdr's outcome from the path and from the file opened as binary."""
    outcomes = [ingest_outcome(ingest_cdr, path, delimiter, caplog)]
    with open(path, "rb") as fh:
        outcomes.append(ingest_outcome(ingest_cdr, fh, delimiter, caplog))
    return outcomes


@pytest.mark.parametrize("block", [1, 64, 1 << 18])
@pytest.mark.parametrize("delimiter", [",", ";", "||", "§"])
@pytest.mark.parametrize("variant", ["plain", "header", "bom header", "bom", "leading blanks", "no final newline",
                                     "empty last field"])
def test_byte_reader_matches_the_line_reader(variant, delimiter, block, monkeypatch, caplog, tmp_path):
    monkeypatch.setattr(ingest, "_READ_BLOCK", block)
    rng = np.random.default_rng([block, len(delimiter), len(variant)])
    text = crafted_log(rng, 200, delimiter)
    if "header" in variant:
        text = delimiter.join(CDR_HEADER.split(",")) + "\r\n" + text
    if "bom" in variant:
        text = "\ufeff" + text
    if variant == "leading blanks":
        text = "\n\r\n\r" + text
    if variant == "no final newline":
        text = text.rstrip("\r\n")
    if variant == "empty last field":
        text += delimiter.join(["01MAY2017", "10:00:00", "30", "A", ""])
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = ingest_outcome(reference_ingest_cdr, path, delimiter, caplog)
    assert byte_reader_outcomes(path, delimiter, caplog) == [expected] * 2
    assert expected[3]["rows_accepted"] and expected[3]["rows_rejected"]


def test_readers_take_files_not_lines(tmp_path):
    with pytest.raises(AttributeError):
        ingest_cdr(["01MAY2017,10:00:00,30,A,B"], min_duration=5, delimiter=",")
    paths = bank_paths(tmp_path, [ACCOUNT_HEADER], [TRANSACTION_HEADER], [CARD_HEADER])
    for k in range(3):
        with pytest.raises(TypeError):
            ingest_bank(*paths[:k], [CARD_HEADER], *paths[k + 1:])


def test_byte_reader_codes_identities_of_any_length_by_first_appearance(tmp_path, caplog):
    # " P0000001" strips to the "P0000001" of a canonical row; "Zoë" is read by the row validator
    rows = ["01MAY2017,10:00:00,30,P00000012,P0000001", "01MAY2017,10:00:01,30, P0000001 ,Zoë",
            "01MAY2017,10:00:02,30,A,P00000012", "01MAY2017,10:00:03,3,NEW,A", "01MAY2017,10:00:04,30,Zoë,NEW"]
    path = tmp_path / "log.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    batch, stats = ingest_cdr(path, min_duration=5, delimiter=",")
    assert batch.ids == ["P00000012", "P0000001", "Zoë", "A", "NEW"]
    assert columns(batch)[3:] == (["P00000012", "P0000001", "A", "Zoë"], ["P0000001", "Zoë", "P00000012", "NEW"])
    assert stats.distinct_ids == 5 and stats.rows_filtered_short == 1
    assert byte_reader_outcomes(path, ",", caplog) == [ingest_outcome(reference_ingest_cdr, path, ",", caplog)] * 2


def test_byte_reader_joins_a_line_of_many_blocks_in_linear_time(monkeypatch, tmp_path):
    # 2**16 blocks of 64 bytes: joining each block onto the line read so far
    # would copy about 137 GB
    monkeypatch.setattr(ingest, "_READ_BLOCK", 64)
    caller = "C" * (1 << 22)
    path = tmp_path / "log.csv"
    path.write_text(f"01MAY2017,10:00:00,30,{caller},B\r\n01MAY2017,10:00:01,30,B,{caller}", newline="")
    began = time_module.perf_counter()
    batch, stats = ingest_cdr(path, min_duration=5, delimiter=",")
    assert time_module.perf_counter() - began < 5
    assert batch.ids == [caller, "B"] and columns(batch)[3:] == ([caller, "B"], ["B", caller])
    assert stats.rows_accepted == 2


def test_byte_reader_cuts_blocks_at_either_line_end(monkeypatch, tmp_path):
    monkeypatch.setattr(ingest, "_READ_BLOCK", 64)
    for ending in ("\n", "\r"):
        path = tmp_path / "log.csv"
        path.write_text("".join(f"01MAY2017,10:00:00,30,P{k},P{k + 1}{ending}" for k in range(40)), newline="")
        with open(path, "rb") as fh:
            blocks = [block for block, *_ in ingest._cdr_blocks(fh)]
        assert b"".join(blocks) == path.read_bytes()
        assert max(map(len, blocks)) < 64 + 40


@pytest.mark.parametrize("text,row", [(b"01MAY2017,10:00:00,30,A,B\n01MAY2017,10:00:01,30,\xff,B\n", 2),
                                      (b"01MAY2017,10:00:00,30,A,B\n01MAY2017,10:00:01,30,A,\xc3", 2),
                                      (b"\xef\xbb01MAY2017,10:00:00,30,A,B\n", 1),
                                      (b"01MAY2017,10:00:00,30,A,B\n01MAY2017,10:00:01,30,A,\xed\xa0\x80\n", 2)],
                         ids=["bad byte", "cut at end", "half BOM", "encoded surrogate"])
@pytest.mark.parametrize("block", [4, 1 << 18])
def test_byte_reader_refuses_what_is_not_utf8(text, row, block, monkeypatch, tmp_path):
    # text mode raises UnicodeDecodeError; the byte reader's error names the file and the row
    monkeypatch.setattr(ingest, "_READ_BLOCK", block)
    path = tmp_path / "log.csv"
    path.write_bytes(text)
    with pytest.raises(UnicodeDecodeError):
        reference_ingest_cdr(path, 5, ",")
    with pytest.raises(DataError, match=f"^{path}: CDR row {row} is not UTF-8 text$"):
        ingest_cdr(path, min_duration=5, delimiter=",")


def test_round_trip_serialization(rng, tmp_path):
    records = [parse_cdr_line(TABLE_ROW, ","),
               parse_cdr_line("02MAY2017,20:03:38,89,(701) 555-0148,(803) 555-0129", ",")]
    for i in range(50):
        d = date(2017, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
        t = time(int(rng.integers(0, 24)), int(rng.integers(0, 60)), int(rng.integers(0, 60)))
        records.append(CdrRecord(d, t, int(rng.integers(0, 10_000)), f"A {i % 7}", f"B {i % 5}"))
    batch = records_batch(records)
    write_cdr(tmp_path / "a.csv", batch)
    read, stats = ingest_cdr(tmp_path / "a.csv", min_duration=0, delimiter=",")
    assert stats.rows_accepted == len(records)
    assert columns(read) == columns(batch)
    write_cdr(tmp_path / "b.csv", read)
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_ingest_duration_filter_keeps_at_threshold():
    rows = [
        "01MAY2017,10:00:00,4,A,B",
        "01MAY2017,10:00:01,5,A,B",
        "01MAY2017,10:00:02,715,B,C",
    ]
    batch, stats = ingest_cdr(cdr_log(rows), min_duration=5, delimiter=",")
    assert len(batch) == 2
    assert stats.rows_filtered_short == 1
    assert stats.rows_accepted == 2
    assert stats.conserved


def test_ingest_empty_stream():
    batch, stats = ingest_cdr(cdr_log([]), min_duration=5, delimiter=",")
    assert len(batch) == 0
    assert (stats.rows_read, stats.rows_rejected, stats.rows_filtered_short,
            stats.distinct_ids) == (0, 0, 0, 0)


def test_ingest_partial_failure_counts_and_logs():
    rows = [
        "01MAY2017,10:00:00,30,A,B",
        "garbage line",
        "01MAY2017,10:00:02,30,B,C",
    ]
    log = io.StringIO()
    batch, stats = ingest_cdr(cdr_log(rows), min_duration=5, delimiter=",", reject_log=log)
    assert len(batch) == 2
    assert stats.rows_rejected == 1
    logged = log.getvalue()
    assert "2\t" in logged and "garbage" in logged


def test_ingest_header_autodetected():
    rows = [
        "Call Start Date,Call Start Time,Call Duration (sec),From Number,To Number",
        TABLE_ROW,
    ]
    batch, stats = ingest_cdr(cdr_log(rows), min_duration=5, delimiter=",")
    assert stats.rows_read == 1
    assert len(batch) == 1


def test_ingest_conservation_property(rng):
    rows = []
    for i in range(300):
        kind = rng.integers(0, 4)
        if kind == 0:
            rows.append(f"01MAY2017,10:00:00,{rng.integers(0, 20)},A{i},B{i}")
        elif kind == 1:
            rows.append("broken")
        elif kind == 2:
            rows.append(f"01MAY2017,99:00:00,10,A{i},B{i}")
        else:
            rows.append(f"02MAY2017,11:30:00,{rng.integers(5, 100)},A{i},B{i}")
    _, stats = ingest_cdr(cdr_log(rows), min_duration=5, delimiter=",")
    assert stats.conserved
    assert stats.rows_read == 300


def test_filter_monotone_in_min_duration(rng):
    rows = [f"01MAY2017,10:00:00,{rng.integers(0, 30)},A{i},B{i}" for i in range(100)]
    accepted = [ingest_cdr(cdr_log(rows), min_duration=d, delimiter=",")[1].rows_accepted for d in range(0, 12)]
    assert all(a >= b for a, b in zip(accepted, accepted[1:]))


def test_batch_round_trips_records(tmp_path):
    batch, _ = ingest_cdr(cdr_log([TABLE_ROW]), min_duration=0, delimiter=",")
    assert columns(records_batch([parse_cdr_line(TABLE_ROW, ",")])) == columns(batch)
    write_cdr(tmp_path / "cdr.csv", batch)
    assert (tmp_path / "cdr.csv").read_text() == f"{CDR_HEADER}\n{TABLE_ROW}\n"


def test_write_cdr_text_is_pinned(tmp_path):
    ids = ["A", "P0000001", "(701) 555-0148", "Zoë", "unused identity"]
    days = [date(2016, 12, 31), date(2017, 1, 1), date(2017, 2, 28), date(2017, 5, 1)]
    batch = ingest.CdrBatch([d.toordinal() for d in days], [0, 86399, 9 * 3600 + 5 * 60 + 7, 12 * 3600],
                            [0, 7200, 5, 2147483647], [0, 1, 2, 3], [1, 2, 3, 0], ids)
    write_cdr(tmp_path / "cdr.csv", batch)
    assert (tmp_path / "cdr.csv").read_bytes() == (
        f"{CDR_HEADER}\n"
        "31DEC2016,00:00:00,0,A,P0000001\n"
        "01JAN2017,23:59:59,7200,P0000001,(701) 555-0148\n"
        "28FEB2017,09:05:07,5,(701) 555-0148,Zoë\n"
        "01MAY2017,12:00:00,2147483647,Zoë,A\n"
    ).encode()


def test_write_cdr_of_an_empty_batch_writes_the_header_only(tmp_path):
    write_cdr(tmp_path / "cdr.csv", ingest.CdrBatch([], [], [], [], [], ["A", "B"]))
    assert (tmp_path / "cdr.csv").read_bytes() == f"{CDR_HEADER}\n".encode()


def per_row_cdr_text(batch) -> str:
    """A CDR log as a per-row formatter writes it."""
    ids = batch.ids
    return CDR_HEADER + "\n" + "".join(
        f"{ingest.format_cdr_date(date.fromordinal(o))},{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d},"
        f"{d},{ids[a]},{ids[b]}\n"
        for o, s, d, a, b in zip(batch.date_ord.tolist(), batch.time_sec.tolist(), batch.duration.tolist(),
                                 batch.from_code.tolist(), batch.to_code.tolist()))


def test_write_cdr_text_is_the_per_row_formatters(rng, tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_WRITE_CHUNK", 1000)  # rows span several chunks
    n = 4321
    ids = [f"id{k}" * (k % 4) + "€" * (k % 3) + str(k) for k in range(60)]
    duration = rng.integers(-(2 ** 31), 2 ** 31, size=n)
    duration[:6] = [0, 9, 10, -1, 2 ** 31 - 1, -(2 ** 31)]
    batch = ingest.CdrBatch(rng.integers(1, 800_000, size=n), rng.integers(0, 86400, size=n), duration,
                            rng.integers(0, 60, size=n), rng.integers(0, 60, size=n), ids)
    write_cdr(tmp_path / "cdr.csv", batch)
    assert (tmp_path / "cdr.csv").read_text(encoding="utf-8") == per_row_cdr_text(batch)


@pytest.mark.parametrize("second", [-1, 86400])
def test_write_cdr_refuses_a_time_outside_the_day(tmp_path, second):
    batch = ingest.CdrBatch([736450, 736450], [0, second], [30, 30], [0, 1], [1, 0], ["A", "B"])
    with pytest.raises(DataError, match="start time"):
        write_cdr(tmp_path / "cdr.csv", batch)
    assert not (tmp_path / "cdr.csv").exists()


def test_write_cdr_refuses_identity_with_comma(tmp_path):
    log = tmp_path / "semicolon.csv"
    log.write_text("01MAY2017;10:00:00;30;A,1;B\n01MAY2017;10:00:05;40;B;C\n")
    batch, _ = ingest_cdr(log, min_duration=5, delimiter=";")
    with pytest.raises(DataError, match="'A,1'"):
        write_cdr(tmp_path / "filtered.csv", batch)
    assert not (tmp_path / "filtered.csv").exists()
    out = tmp_path / "out"
    assert cli_main(["ingest", "--cdr", str(log), "--delimiter", ";", "--out", str(out)]) == 2
    assert not (out / "filtered.csv").exists()


# ---------------------------------------------------------------------------
# Bank ingestion.
# ---------------------------------------------------------------------------

CARD_HEADER = (
    "customer_id,issue_date,credit_limit,"
    + ",".join(f"drawn_{m}" for m in range(1, 13)) + ","
    + ",".join(f"arrears_{m}" for m in range(1, 13))
)


ACCOUNT_HEADER = "customer_id,age,marital_status,postcode"
TRANSACTION_HEADER = "customer_id,date,amount"


def card_row(cid, issue="01APR2017", limit="1000", drawn=None, arrears=None):
    drawn = drawn or ["100"] * 12
    arrears = arrears or ["0"] * 12
    return f"{cid},{issue},{limit}," + ",".join(drawn) + "," + ",".join(arrears)


def bank_paths(tmp_path, accounts, transactions, cards) -> tuple:
    """The paths of the three bank files of these lines, written under `tmp_path` in UTF-8."""
    paths = tuple(tmp_path / f"{name}.csv" for name in ("accounts", "transactions", "cards"))
    for path, lines in zip(paths, (accounts, transactions, cards)):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def test_bank_join(tmp_path):
    accounts = ["customer_id,age,marital_status,postcode", "C1,34,married,1234"]
    transactions = [
        "customer_id,date,amount",
        "C1,10MAR2017,25.50",
        "C1,12MAR2017,80.00",
    ]
    cards = [CARD_HEADER, card_row("C1")]
    bank, stats = ingest_bank(*bank_paths(tmp_path, accounts, transactions, cards))
    assert len(bank) == 1
    assert bank.ids.tolist() == ["C1"]
    assert bank.txn_owner.tolist() == [0, 0]
    assert bank.age.tolist() == [34]
    assert bank.issue_day.tolist() == [date(2017, 4, 1).toordinal()]
    assert stats.orphan_transactions == 0


def test_write_bank_round_trips_through_ingest_bank(tmp_path):
    # "A, Jr." needs csv quoting; U9 has an account and transactions but no card
    ids = ["C3", "A, Jr.", "B1", "U9"]
    day = date(2017, 3, 10).toordinal()
    accounts = (np.array([0, 1, 2, 3]), np.array([40, 18, 85, 33]),
                np.array(["single", "married", "divorced", "widowed"]), np.array([123, 9999, 45, 7001]))
    transactions = (np.array([1, 0, 3, 1]), np.array([day, day + 1, day + 40, day]),
                    np.array([12.5, 0.01, 99.99, 3.0]))
    rng = np.random.default_rng(0)
    drawn = np.round(rng.random((3, CARD_MONTHS)) * 1000, 2)
    arrears = rng.random((3, CARD_MONTHS)) < 0.3
    cards = (np.array([0, 1, 2]), np.array([day - 30, day - 29, day - 30]),
             np.array([1500.0, 1000.0, 2500.0]), drawn, arrears)
    paths = {name: tmp_path / f"{name}.csv" for name in ("accounts", "transactions", "card_activity")}
    write_bank(paths, ids, accounts, transactions, cards)
    bank, stats = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    holders = [1, 2, 0]  # card holders sorted by customer id
    assert bank.ids.tolist() == ["A, Jr.", "B1", "C3"]
    assert bank.issue_day.tolist() == cards[1][holders].tolist()
    assert bank.credit_limit.tolist() == cards[2][holders].tolist()
    assert np.array_equal(bank.drawn, drawn[holders])
    assert np.array_equal(bank.arrears, arrears[holders])
    assert bank.age.tolist() == [18, 85, 40]
    assert bank.marital_status.tolist() == ["married", "divorced", "single"]
    assert bank.postcode.tolist() == ["9999", "0045", "0123"]
    assert bank.txn_owner.tolist() == [0, 0, 2]
    assert bank.txn_day.tolist() == [day, day, day + 1]
    assert bank.txn_amount.tolist() == [3.0, 12.5, 0.01]
    assert (stats.customers_without_card, stats.orphan_transactions, stats.transactions_read) == (1, 0, 4)


def reference_bank_table(*paths):
    records, stats = reference_ingest_bank(*paths)
    return records_table(records), stats


@pytest.mark.parametrize("reader", [ingest_bank, reference_bank_table], ids=["columnar", "reference"])
def test_quoted_line_breaks_in_bank_fields_round_trip(reader, tmp_path):
    # csv quotes a field holding \r or \n; a reader opened without newline=""
    # would turn the quoted \r\n and \r into \n
    ids = ["cr\r", "x\r\ny", "plain", "a\rb", "lf\nz"]
    day = date(2017, 3, 10).toordinal()
    n = len(ids)
    accounts = (np.arange(n), np.full(n, 30), np.array(["single\r\n2"] * n), np.full(n, 123))
    transactions = (np.arange(n), np.full(n, day), np.full(n, 1.5))
    cards = (np.arange(n), np.full(n, day - 30), np.full(n, 1000.0), np.zeros((n, CARD_MONTHS)),
             np.zeros((n, CARD_MONTHS), dtype=bool))
    paths = {name: tmp_path / f"{name}.csv" for name in ("accounts", "transactions", "card_activity")}
    write_bank(paths, ids, accounts, transactions, cards)
    bank, _ = reader(paths["accounts"], paths["transactions"], paths["card_activity"])
    assert list(bank.ids) == sorted(i.strip() for i in ids)
    assert list(bank.marital_status) == ["single\r\n2"] * n


def csv_writer_bank(paths, ids, accounts, transactions, cards):
    """The three bank files as csv.writer writes them, one formatted row at a time."""
    money = "{:.2f}".format
    owner, age, marital_status, postcode = accounts
    account_rows = zip(map(ids.__getitem__, owner.tolist()), age.tolist(), marital_status.tolist(),
                       map("{:04d}".format, postcode.tolist()))
    owner, day, amount = transactions
    dates = {o: ingest.format_cdr_date(date.fromordinal(o)) for o in np.unique(np.append(day, cards[1])).tolist()}
    transaction_rows = zip(map(ids.__getitem__, owner.tolist()), map(dates.__getitem__, day.tolist()),
                           map(money, amount.tolist()))
    owner, issue_day, credit_limit, drawn, arrears = cards
    card_rows = ((ids[o], dates[d], money(limit), *map(money, spent), *flags)
                 for o, d, limit, spent, flags in zip(owner.tolist(), issue_day.tolist(), credit_limit.tolist(),
                                                      drawn.tolist(), arrears.astype(np.int64).tolist()))
    for name, header, rows in (("accounts", ingest.ACCOUNT_COLUMNS, account_rows),
                               ("transactions", ingest.TRANSACTION_COLUMNS, transaction_rows),
                               ("card_activity", ingest.CARD_COLUMNS, card_rows)):
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


# format(x, ".2f") rounds half to even on the double's exact value; nan and
# the infinities are off the cent grid, and so are values of 2**46 or more
MONEY_EDGES = [0.125, 2.675, 0.005, 1e16, -0.0, -0.004, math.nan, math.inf, -math.inf, 0.0, 0.01, -0.01,
               0.1 + 0.2, 1e-300, 2.0 ** 46 - 0.25, 2.0 ** 46, 2.0 ** 46 + 0.5, 70368744177663.99, -1234.5,
               1e16 + 2, 2.0 ** 50 + 1]
# csv quotes a field for a comma, a quote or a line break, and nothing else
ODD_IDS = ["C3", "A, Jr.", 'say "hi"', '"', " padded ", "\tTab", "Zoë", "名前", "€,€", "line\nbreak", "cr\r",
           "", "P0000001"]


def bank_columns(rng, ids, n_accounts, n_transactions, n_cards):
    day = date(2017, 3, 10).toordinal()
    accounts = (rng.integers(0, len(ids), n_accounts), rng.integers(-5, 120, n_accounts),
                rng.choice(["single", "married", "divorced, twice", 'widowed "W"', "É"], n_accounts),
                rng.integers(-20, 10_000, n_accounts))
    amount = np.round(rng.random(n_transactions) * 500, 2)
    amount[:len(MONEY_EDGES)] = MONEY_EDGES[:n_transactions]
    transactions = (rng.integers(0, len(ids), n_transactions), day - rng.integers(0, 400, n_transactions), amount)
    limit = np.round(rng.random(n_cards) * 9000, 0)
    limit[-len(MONEY_EDGES):] = MONEY_EDGES[-n_cards:] if n_cards else []
    drawn = np.round(rng.random((n_cards, CARD_MONTHS)) * 1000 - 100, 2)
    drawn.ravel()[::7][:len(MONEY_EDGES)] = MONEY_EDGES[:len(drawn.ravel()[::7])]
    cards = (rng.integers(0, len(ids), n_cards), day - rng.integers(0, 400, n_cards), limit, drawn,
             rng.random((n_cards, CARD_MONTHS)) < 0.3)
    return accounts, transactions, cards


@pytest.mark.parametrize("sizes", [(0, 0, 0), (1, 1, 1), (60, 250, 40)])
def test_write_bank_text_is_the_csv_writer(sizes, tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_WRITE_CHUNK", 16)  # rows span several chunks
    columns = bank_columns(np.random.default_rng(sum(sizes)), ODD_IDS, *sizes)
    written, reference = ({name: tmp_path / f"{side}_{name}.csv" for name in ("accounts", "transactions", "card_activity")}
                          for side in ("written", "reference"))
    write_bank(written, ODD_IDS, *columns)
    csv_writer_bank(reference, ODD_IDS, *columns)
    for name in written:
        assert written[name].read_bytes() == reference[name].read_bytes(), name


@pytest.mark.parametrize("values", [MONEY_EDGES, [-3, 0, 7, -(2 ** 40), 2 ** 62, -(2 ** 62)], []],
                         ids=["money", "integers", "no rows"])
def test_write_csv_numbers_are_formatted_as_the_csv_writer_writes_them(values, tmp_path):
    values = np.array(values)
    ids = [f"id{k}" for k in range(len(values))]
    write_csv(tmp_path / "written.csv", ("id", "value"), [(ids, np.arange(len(ids))), values])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("id", "value"))
    fmt = "{:.2f}".format if values.dtype.kind == "f" else str
    writer.writerows(zip(ids, map(fmt, values.tolist())))
    assert (tmp_path / "written.csv").read_bytes() == text.getvalue().encode()


def test_write_csv_refuses_a_column_of_text(tmp_path):
    with pytest.raises(TypeError, match="neither integers nor floats"):
        write_csv(tmp_path / "x.csv", ("a",), [np.array(["x"])])


def test_bank_customer_without_card_excluded(tmp_path):
    accounts = [ACCOUNT_HEADER, "C1,34,married,1234", "C2,40,single,9999"]
    cards = [CARD_HEADER, card_row("C1")]
    bank, stats = ingest_bank(*bank_paths(tmp_path, accounts, [TRANSACTION_HEADER], cards))
    assert bank.ids.tolist() == ["C1"]
    assert stats.customers_without_card == 1


def test_bank_duplicate_card_is_error(tmp_path):
    cards = [CARD_HEADER, card_row("C1"), card_row("C1")]
    with pytest.raises(DataError, match="C1"):
        ingest_bank(*bank_paths(tmp_path, [ACCOUNT_HEADER], [TRANSACTION_HEADER], cards))


def test_bank_orphan_transaction_counted(tmp_path):
    accounts = [ACCOUNT_HEADER, "C1,34,married,1234"]
    transactions = [TRANSACTION_HEADER, "GHOST,10MAR2017,5.00"]
    cards = [CARD_HEADER, card_row("C1")]
    _, stats = ingest_bank(*bank_paths(tmp_path, accounts, transactions, cards))
    assert stats.orphan_transactions == 1


def test_bank_drawn_over_limit_rejected(tmp_path):
    cards = [CARD_HEADER, card_row("C1", limit="100", drawn=["150"] + ["0"] * 11)]
    with pytest.raises(DataError, match="exceeds"):
        ingest_bank(*bank_paths(tmp_path, [ACCOUNT_HEADER], [TRANSACTION_HEADER], cards))


def test_bank_nonpositive_limit_rejected(tmp_path):
    cards = [CARD_HEADER, card_row("C1", limit="0")]
    with pytest.raises(DataError, match="credit limit"):
        ingest_bank(*bank_paths(tmp_path, [ACCOUNT_HEADER], [TRANSACTION_HEADER], cards))


@pytest.mark.parametrize("file,column", [
    ("accounts", "age"), ("transactions", "amount"),
    ("card activity", "credit_limit"), ("card activity", "drawn_3"),
])
def test_bank_non_numeric_field_names_file_customer_and_column(file, column, tmp_path):
    accounts = [ACCOUNT_HEADER, "C1,34,married,1234"]
    transactions = [TRANSACTION_HEADER, "C1,10MAR2017,25.50"]
    drawn = ["100"] * 12
    limit = "1000"
    if column == "age":
        accounts[1] = "C1,thirty,married,1234"
    elif column == "amount":
        transactions[1] = "C1,10MAR2017,twelve"
    elif column == "credit_limit":
        limit = "n/a"
    else:
        drawn[2] = "x"
    cards = [CARD_HEADER, card_row("C1", limit=limit, drawn=drawn)]
    with pytest.raises(DataError, match=f"^{file} file: customer 'C1' has non-numeric {column} "):
        ingest_bank(*bank_paths(tmp_path, accounts, transactions, cards))


@pytest.mark.parametrize("case,message", [
    ("short card row", "card activity file: customer 'C1' has no arrears_12 field"),
    ("short transaction row", "transactions file: customer 'C1' has no date field"),
    ("invalid transaction date", "transactions file: customer 'C1' has invalid date '32MAR2017'"),
], ids=["short-card-row", "short-transaction-row", "invalid-date"])
def test_bank_field_error_names_file_customer_and_column(case, message, tmp_path):
    accounts = [ACCOUNT_HEADER, "C1,34,married,1234"]
    transactions = [TRANSACTION_HEADER, "C1,10MAR2017,25.50"]
    cards = [CARD_HEADER, card_row("C1")]
    if case == "short card row":
        cards[1] = cards[1].rsplit(",", 1)[0]
    elif case == "short transaction row":
        transactions[1] = "C1"
    else:
        transactions[1] = "C1,32MAR2017,5.00"
    with pytest.raises(DataError) as excinfo:
        ingest_bank(*bank_paths(tmp_path, accounts, transactions, cards))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("file", ["accounts", "transactions", "card activity"])
def test_bank_row_too_short_for_customer_id_is_a_data_error(file, tmp_path):
    # customer_id last, so that a one-field row lacks it
    files = {
        "accounts": ["age,marital_status,postcode,customer_id", "34,married,1234,C1", "34"],
        "transactions": ["date,amount,customer_id", "10MAR2017,25.50,C1", "10MAR2017"],
        "card activity": [CARD_HEADER.removeprefix("customer_id,") + ",customer_id",
                          card_row("C1").removeprefix("C1,") + ",C1", "01APR2017"],
    }
    for other in files.keys() - {file}:
        del files[other][2]
    with pytest.raises(DataError, match=f"^{file} file: a row has no customer_id field$"):
        ingest_bank(*bank_paths(tmp_path, files["accounts"], files["transactions"], files["card activity"]))


def test_bank_card_without_account_keeps_missing_sociodemographics(tmp_path):
    cards = [CARD_HEADER, card_row("C9")]
    bank, stats = ingest_bank(*bank_paths(tmp_path, [ACCOUNT_HEADER], [TRANSACTION_HEADER], cards))
    assert np.isnan(bank.age[0])
    assert bank.marital_status[0] is None and bank.postcode[0] is None
    assert stats.cards_without_account == 1


def reference_table(accounts, transactions, cards):
    records, stats = reference_ingest_bank(accounts, transactions, cards)
    return records_table(records), stats


def bank_outcome(parse, accounts, transactions, cards, caplog):
    """Each column of the table a bank parse gives, with its dtype and shape,
    and the stats; or its error; and its warnings."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="callscore.ingest"):
        try:
            bank, stats = parse(accounts, transactions, cards)
            columns = (getattr(bank, f.name) for f in dataclasses.fields(bank))
            result = ([(c.dtype, c.shape, c.tolist() if c.dtype == object else c.tobytes()) for c in columns],
                      dataclasses.asdict(stats))
        except DataError as exc:
            result = str(exc)
    return result, [r.getMessage() for r in caplog.records]


def bank_files(rng, n):
    """Accounts, transactions and card rows for n customers, with orphan
    transactions, customers without a card, cards without an account, blank
    lines, padded values and a column named twice."""
    accounts = ["customer_id,age,marital_status,postcode,age"]
    transactions = ["customer_id,date,amount"]
    cards = [CARD_HEADER]
    for i in range(n):
        cid = f"C{i:03d}"
        if i % 7:
            age = ["", "34", " 41 ", "29.5"][i % 4]
            accounts.append(f"{cid},x,{['married', '', 'single'][i % 3]},{1000 + i},{age}")
        for k in range(int(rng.integers(0, 4))):
            day = ["10MAR2017", "02apr2017", " 11MAY2017"][(i + k) % 3]
            transactions.append(f"{cid if (i + k) % 11 else 'GHOST' + str(i)},{day},{rng.integers(1, 900) / 4}")
        if i % 5:
            limit = 1000 + i
            drawn = [str(rng.integers(0, limit)) for _ in range(12)]
            arrears = [["0", "1", "true", "True", " 1"][rng.integers(5)] for _ in range(12)]
            cards.append(card_row(cid, issue=["01APR2017", "01may2017"][i % 2], limit=str(limit),
                                  drawn=drawn, arrears=arrears))
        if i % 13 == 0:
            cards.append("")
    return accounts, transactions, cards


BANK_FAULTS = {
    "short account row": ("accounts", 2, lambda row: row.split(",")[0] + ",x"),
    "short transaction row": ("transactions", 3, lambda row: row.split(",")[0]),
    "short card row": ("cards", 2, lambda row: row.rsplit(",", 1)[0]),
    "non-numeric age": ("accounts", 3, lambda row: row.rsplit(",", 1)[0] + ",old"),
    "infinite amount": ("transactions", 2, lambda row: row.rsplit(",", 1)[0] + ",inf"),
    "non-numeric limit": ("cards", 3, lambda row: card_row(row.split(",")[0], limit="n/a")),
    "nan drawn": ("cards", 2, lambda row: card_row(row.split(",")[0], drawn=["1"] * 4 + ["nan"] + ["1"] * 7)),
    "invalid transaction date": ("transactions", 2, lambda row: row.split(",")[0] + ",32MAR2017,5.00"),
    "invalid issue date": ("cards", 4, lambda row: card_row(row.split(",")[0], issue="01ABC2017")),
    "zero limit": ("cards", 2, lambda row: card_row(row.split(",")[0], limit="0")),
    "zero limit, nothing drawn": ("cards", 2, lambda row: card_row(row.split(",")[0], limit="0", drawn=["0"] * 12)),
    "drawn over limit": ("cards", 3, lambda row: card_row(row.split(",")[0], limit="10", drawn=["11"] * 12)),
    "duplicate account": ("accounts", 3, lambda row: "C001" + row[4:]),
    "duplicate card": ("cards", 3, lambda row: "C001" + row[4:]),
}


@pytest.mark.parametrize("fault", [None, *BANK_FAULTS])
@pytest.mark.parametrize("chunk", [2, 1 << 12])
def test_columnar_bank_ingest_matches_per_field_reference(fault, chunk, monkeypatch, caplog, tmp_path):
    monkeypatch.setattr(ingest, "_BANK_CHUNK", chunk)
    files = dict(zip(("accounts", "transactions", "cards"), bank_files(np.random.default_rng(3), 40)))
    if fault is not None:
        name, row, change = BANK_FAULTS[fault]
        files[name][row] = change(files[name][row])
        # a second fault further down: the first in file order is the one reported
        files["cards"].append(card_row("C999", issue="99XYZ2017"))
    paths = bank_paths(tmp_path, files["accounts"], files["transactions"], files["cards"])
    got = bank_outcome(ingest_bank, *paths, caplog)
    assert got == bank_outcome(reference_table, *paths, caplog)
    assert isinstance(got[0], str) == (fault is not None)


def test_bank_ingest_of_empty_files_matches_reference(caplog, tmp_path):
    paths = bank_paths(tmp_path, [], [], [])
    assert bank_outcome(ingest_bank, *paths, caplog) == bank_outcome(reference_table, *paths, caplog)


@pytest.mark.parametrize("block", [4, 1 << 18])
def test_cli_ingest_of_a_log_that_is_not_utf8_is_a_data_error(block, monkeypatch, tmp_path, capsys):
    # rows are counted as rejects.log counts them: no header, no blank line
    monkeypatch.setattr(ingest, "_READ_BLOCK", block)
    log = tmp_path / "bad.csv"
    log.write_bytes(f"{CDR_HEADER}\n01MAY2017,10:00:00,30,A,B\n\ngarbage\n".encode()
                    + b"01MAY2017,10:00:01,30,\xff,B\n01MAY2017,10:00:02,30,A,B\n")
    out = tmp_path / "out"
    assert cli_main(["ingest", "--cdr", str(log), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {log}: CDR row 3 is not UTF-8 text\n"
    assert not (out / "rejects.log").exists()
