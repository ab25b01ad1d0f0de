"""Workload inputs: synthetic bank and CDR files, the injected malformed rows,
and the facts about them that the output checks need.

Generation goes through the program's own synthetic generator, because the
inputs are the program's published kind of data. Everything the checks later
compare against (line counts, reject reasons, calls per window) is counted
here from the written CSV text by code that shares nothing with the
program's parser.
"""

from __future__ import annotations

import datetime as dt
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN",
          "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")

# Reject reasons of the program's CDR row parser, each as the words its
# message starts with. Every injected row carries exactly one fault.
REASONS = (
    "expected 5 fields",
    "invalid date",
    "invalid time",
    "non-numeric duration",
    "negative duration",
    "empty phone identity",
    "self-call",
)


def malformed_rows(copies: int) -> list:
    """(line, reason) pairs: `copies` variants of each reject reason.

    The rows do not depend on the workload seed, so every run rejects the
    same rows for the same reasons.
    """
    rows = []
    for k in range(copies):
        a, b = f"P{k:07d}", f"P{k + 1:07d}"
        day = f"{k % 28 + 1:02d}"
        good_date, good_time = f"{day}FEB2017", f"{k % 24:02d}:{k % 60:02d}:{(7 * k) % 60:02d}"
        rows += [
            (f"{good_date},{good_time},30,{a}", REASONS[0]),
            (f"{good_date},{good_time},30,{a},{b},extra", REASONS[0]),
            (f"{30 + k % 2}FEB2017,{good_time},30,{a},{b}", REASONS[1]),
            (f"{day}XYZ2017,{good_time},30,{a},{b}", REASONS[1]),
            (f"{good_date},{24 + k % 6:02d}:00:00,30,{a},{b}", REASONS[2]),
            (f"{good_date},{k % 24:02d}:{k % 60:02d},30,{a},{b}", REASONS[2]),
            (f"{good_date},{good_time},{k}s,{a},{b}", REASONS[3]),
            (f"{good_date},{good_time},-{k + 1},{a},{b}", REASONS[4]),
            (f"{good_date},{good_time},30,,{b}", REASONS[5]),
            (f"{good_date},{good_time},30,{a},{a}", REASONS[6]),
        ]
    return rows


def _parse_date(text: str) -> dt.date | None:
    if len(text) != 9 or text[2:5] not in MONTHS:
        return None
    try:
        return dt.date(int(text[5:9]), MONTHS.index(text[2:5]) + 1, int(text[0:2]))
    except ValueError:
        return None


def row_fault(line: str) -> str | None:
    """The reject reason a well-behaved CDR parser gives `line`, or None."""
    fields = line.split(",")
    if len(fields) != 5:
        return REASONS[0]
    if _parse_date(fields[0]) is None:
        return REASONS[1]
    parts = fields[1].split(":")
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        return REASONS[2]
    hh, mm, ss = (int(p) for p in parts)
    if not (hh < 24 and mm < 60 and ss < 60):
        return REASONS[2]
    dur = fields[2]
    if not dur.lstrip("-").isdigit():
        return REASONS[3]
    if int(dur) < 0:
        return REASONS[4]
    if not fields[3] or not fields[4]:
        return REASONS[5]
    if fields[3] == fields[4]:
        return REASONS[6]
    return None


@dataclass
class InputFacts:
    """What the benchmark knows about the inputs it wrote."""

    data_rows: int                        # CDR lines after the header
    rejects: list                         # (row number, line, reason), 1-based rows
    calls_by_date: Counter                # date -> calls of at least min_duration


def count_cdr(path: Path, min_duration: int) -> tuple[int, list, Counter]:
    """Data rows, faulty rows and kept calls per date, read from the CSV text."""
    rows = 0
    rejects = []
    by_date_text: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            rows += 1
            fault = row_fault(line)
            if fault is not None:
                rejects.append((rows, line, fault))
                continue
            fields = line.split(",")
            if int(fields[2]) >= min_duration:
                by_date_text[fields[0]] += 1
    by_date = Counter()
    for text, n in by_date_text.items():
        by_date[_parse_date(text)] += n
    return rows, rejects, by_date


def make_inputs(directory: Path, population: dict, seed: int, inject_copies: int,
                spans: list | None = None) -> None:
    """Generate and write one workload's inputs.

    `population` holds SynthConfig fields. When `spans` is given, the
    generator and writer calls are recorded there as (name, seconds, count).
    """
    from callscore.synth import SynthConfig, generate

    t0 = time.perf_counter()
    data = generate(SynthConfig(**population), seed)
    t1 = time.perf_counter()
    data.write(directory)
    if inject_copies:
        with open(directory / "cdr.csv", "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line, _ in malformed_rows(inject_copies))
    t2 = time.perf_counter()
    if spans is not None:
        spans.append(("synth.generate", t1 - t0, 0))
        spans.append(("synth.write", t2 - t1, len(data.calls["caller"])))


def input_paths(directory: Path) -> dict:
    return {name: directory / f"{name}.csv"
            for name in ("cdr", "accounts", "transactions", "card_activity")}


def input_facts(directory: Path, min_duration: int) -> InputFacts:
    rows, rejects, by_date = count_cdr(directory / "cdr.csv", min_duration)
    return InputFacts(data_rows=rows, rejects=rejects, calls_by_date=by_date)
