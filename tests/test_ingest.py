import io
from datetime import date, time

import pytest

from callscore.errors import DataError
from callscore.ingest import (
    CDR_HEADER,
    CdrBatch,
    CdrParseError,
    CdrRecord,
    ingest_bank,
    ingest_cdr,
    parse_cdr_line,
    write_cdr,
)

TABLE_ROW = "01MAY2017,14:51:14,715,(202) 555-0116,(701) 555-0191"


def test_parse_published_log_row():
    record = parse_cdr_line(TABLE_ROW)
    assert record == CdrRecord(
        date(2017, 5, 1), time(14, 51, 14), 715, "(202) 555-0116", "(701) 555-0191"
    )


def test_zero_duration_is_parsed_not_filtered():
    record = parse_cdr_line("01MAY2017,14:51:14,0,X,Y")
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
], ids=lambda v: v if "," not in str(v) else "row")


@MALFORMED
def test_parse_rejects_malformed(line, reason):
    with pytest.raises(CdrParseError):
        parse_cdr_line(line)


@MALFORMED
def test_reject_log_reason_is_the_parse_error(line, reason):
    with pytest.raises(CdrParseError) as error:
        parse_cdr_line(line)
    log = io.StringIO()
    ingest_cdr([TABLE_ROW, line], reject_log=log)
    assert log.getvalue() == f"2\t{error.value}\t{line}\n"


def columns(batch):
    return (batch.date_ord.tolist(), batch.time_sec.tolist(), batch.duration.tolist(),
            [batch.ids[c] for c in batch.from_code], [batch.ids[c] for c in batch.to_code])


def test_round_trip_serialization(rng, tmp_path):
    records = [parse_cdr_line(TABLE_ROW),
               parse_cdr_line("02MAY2017,20:03:38,89,(701) 555-0148,(803) 555-0129")]
    for i in range(50):
        d = date(2017, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
        t = time(int(rng.integers(0, 24)), int(rng.integers(0, 60)), int(rng.integers(0, 60)))
        records.append(CdrRecord(d, t, int(rng.integers(0, 10_000)), f"A {i % 7}", f"B {i % 5}"))
    batch = CdrBatch.from_records(records)
    write_cdr(tmp_path / "a.csv", batch)
    read, stats = ingest_cdr(tmp_path / "a.csv", min_duration=0)
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
    batch, stats = ingest_cdr(rows, min_duration=5)
    assert len(batch) == 2
    assert stats.rows_filtered_short == 1
    assert stats.rows_accepted == 2
    assert stats.conserved


def test_ingest_empty_stream():
    batch, stats = ingest_cdr([])
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
    batch, stats = ingest_cdr(rows, reject_log=log)
    assert len(batch) == 2
    assert stats.rows_rejected == 1
    logged = log.getvalue()
    assert "2\t" in logged and "garbage" in logged


def test_ingest_header_autodetected():
    rows = [
        "Call Start Date,Call Start Time,Call Duration (sec),From Number,To Number",
        TABLE_ROW,
    ]
    batch, stats = ingest_cdr(rows)
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
    _, stats = ingest_cdr(rows, min_duration=5)
    assert stats.conserved
    assert stats.rows_read == 300


def test_filter_monotone_in_min_duration(rng):
    rows = [f"01MAY2017,10:00:00,{rng.integers(0, 30)},A{i},B{i}" for i in range(100)]
    accepted = [ingest_cdr(rows, min_duration=d)[1].rows_accepted for d in range(0, 12)]
    assert all(a >= b for a, b in zip(accepted, accepted[1:]))


def test_batch_round_trips_records(tmp_path):
    batch, _ = ingest_cdr([TABLE_ROW], min_duration=0)
    assert columns(CdrBatch.from_records([parse_cdr_line(TABLE_ROW)])) == columns(batch)
    write_cdr(tmp_path / "cdr.csv", batch)
    assert (tmp_path / "cdr.csv").read_text() == f"{CDR_HEADER}\n{TABLE_ROW}\n"


# ---------------------------------------------------------------------------
# Bank ingestion.
# ---------------------------------------------------------------------------

CARD_HEADER = (
    "customer_id,issue_date,credit_limit,"
    + ",".join(f"drawn_{m}" for m in range(1, 13)) + ","
    + ",".join(f"arrears_{m}" for m in range(1, 13))
)


def card_row(cid, issue="01APR2017", limit="1000", drawn=None, arrears=None):
    drawn = drawn or ["100"] * 12
    arrears = arrears or ["0"] * 12
    return f"{cid},{issue},{limit}," + ",".join(drawn) + "," + ",".join(arrears)


def test_bank_join():
    accounts = ["customer_id,age,marital_status,postcode", "C1,34,married,1234"]
    transactions = [
        "customer_id,date,amount",
        "C1,10MAR2017,25.50",
        "C1,12MAR2017,80.00",
    ]
    cards = [CARD_HEADER, card_row("C1")]
    records, stats = ingest_bank(accounts, transactions, cards)
    assert len(records) == 1
    rec = records[0]
    assert rec.customer_id == "C1"
    assert len(rec.debit_transactions) == 2
    assert rec.sociodemographics["age"] == 34
    assert rec.card_issue_date == date(2017, 4, 1)
    assert stats.orphan_transactions == 0


def test_bank_customer_without_card_excluded():
    accounts = ["customer_id,age,marital_status,postcode", "C1,34,married,1234", "C2,40,single,9999"]
    cards = [CARD_HEADER, card_row("C1")]
    records, stats = ingest_bank(accounts, ["customer_id,date,amount"], cards)
    assert [r.customer_id for r in records] == ["C1"]
    assert stats.customers_without_card == 1


def test_bank_duplicate_card_is_error():
    cards = [CARD_HEADER, card_row("C1"), card_row("C1")]
    with pytest.raises(DataError, match="C1"):
        ingest_bank(["customer_id,age,marital_status,postcode"],
                    ["customer_id,date,amount"], cards)


def test_bank_orphan_transaction_counted():
    accounts = ["customer_id,age,marital_status,postcode", "C1,34,married,1234"]
    transactions = ["customer_id,date,amount", "GHOST,10MAR2017,5.00"]
    cards = [CARD_HEADER, card_row("C1")]
    _, stats = ingest_bank(accounts, transactions, cards)
    assert stats.orphan_transactions == 1


def test_bank_drawn_over_limit_rejected():
    cards = [CARD_HEADER, card_row("C1", limit="100", drawn=["150"] + ["0"] * 11)]
    with pytest.raises(DataError, match="exceeds"):
        ingest_bank(["customer_id,age,marital_status,postcode"],
                    ["customer_id,date,amount"], cards)


def test_bank_nonpositive_limit_rejected():
    cards = [CARD_HEADER, card_row("C1", limit="0")]
    with pytest.raises(DataError, match="credit limit"):
        ingest_bank(["customer_id,age,marital_status,postcode"],
                    ["customer_id,date,amount"], cards)


@pytest.mark.parametrize("file,column", [
    ("accounts", "age"), ("transactions", "amount"),
    ("card activity", "credit_limit"), ("card activity", "drawn_3"),
])
def test_bank_non_numeric_field_names_file_customer_and_column(file, column):
    accounts = ["customer_id,age,marital_status,postcode", "C1,34,married,1234"]
    transactions = ["customer_id,date,amount", "C1,10MAR2017,25.50"]
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
        ingest_bank(accounts, transactions, cards)


def test_bank_card_without_account_keeps_missing_sociodemographics():
    cards = [CARD_HEADER, card_row("C9")]
    records, stats = ingest_bank(["customer_id,age,marital_status,postcode"],
                                 ["customer_id,date,amount"], cards)
    assert records[0].sociodemographics["age"] is None
    assert stats.cards_without_account == 1
