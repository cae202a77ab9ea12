"""The two file formats of every record artifact.

JSON lines: one object per line in `json.dumps`'s default form (", " and
": " separators, keys in insertion order, floats as their repr), each
line ending in "\\n"; readers skip blank lines. CSV: a header row, then
one row per record, by the csv module with `newline=""`, so rows end in
"\\r\\n"; no fields give an empty file. CSV rows read back as dicts of
strings.

Checkpoints and the JSON reports are single objects, written where they
are built.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator


def save_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def load_jsonl(path: str | Path) -> Iterator[dict]:
    """The records one at a time, so a caller that converts each keeps
    only one parsed line alive."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def save_csv(rows: Iterable[dict], path: str | Path, fields: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        if fields:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)


def load_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
