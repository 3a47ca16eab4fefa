"""CSV export of experiment data.

The ASCII panels are for the terminal; anyone who wants to re-plot the
figures with real tooling (gnuplot, matplotlib, a spreadsheet) gets the
underlying series here: ``--csv`` writes each experiment's data as CSV
files (:func:`dump_experiment_data`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, Union


def write_rows_csv(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    path: Union[str, Path],
) -> int:
    """Write a plain headers+rows table as CSV; returns rows written.

    Raises:
        ValueError: when a row's width does not match the header.
    """
    path = Path(path)
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, header has {len(headers)}"
            )
    with path.open("w", newline="", encoding="ascii") as stream:
        writer = csv.writer(stream)
        writer.writerow(headers)
        writer.writerows(rows)
    return len(rows)


def dump_experiment_data(
    data: dict,
    directory: Union[str, Path],
    experiment_id: str,
) -> list[Path]:
    """Write an experiment's ``data`` dict as CSV files.

    Three value shapes are handled:

    * a dict of equal-length lists (a figure's series) becomes one CSV
      with one column per key;
    * a list of row tuples (a table) becomes one CSV with positional
      ``c0..cN`` headers;
    * scalars are collected into ``<id>_summary.csv``.

    Returns:
        The paths written, in creation order.

    Raises:
        ValueError: when a series dict has ragged lengths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    scalars: list[tuple[str, object]] = []
    for key, value in data.items():
        safe_key = key.replace("/", "_")
        if isinstance(value, dict) and value and all(
            isinstance(v, (list, tuple)) for v in value.values()
        ):
            lengths = {len(v) for v in value.values()}
            if len(lengths) != 1:
                raise ValueError(
                    f"ragged series under {key!r}: lengths {sorted(lengths)}"
                )
            headers = list(value)
            rows = list(zip(*(value[h] for h in headers)))
            path = directory / f"{experiment_id}_{safe_key}.csv"
            write_rows_csv(headers, rows, path)
            written.append(path)
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(row, (list, tuple)) for row in value
        ):
            width = max(len(row) for row in value)
            headers = [f"c{i}" for i in range(width)]
            rows = [list(row) + [""] * (width - len(row)) for row in value]
            path = directory / f"{experiment_id}_{safe_key}.csv"
            write_rows_csv(headers, rows, path)
            written.append(path)
        elif isinstance(value, (int, float, str)) or value is None:
            scalars.append((key, value))
        elif isinstance(value, (list, tuple)):
            scalars.append((key, ";".join(str(v) for v in value)))
        # Nested non-series dicts (e.g. figure1's scenario map) are
        # flattened one level into scalars.
        elif isinstance(value, dict):
            for inner_key, inner in value.items():
                scalars.append((f"{key}.{inner_key}", str(inner)))
    if scalars:
        path = directory / f"{experiment_id}_summary.csv"
        write_rows_csv(("key", "value"), scalars, path)
        written.append(path)
    return written


def read_csv_rows(path: Union[str, Path]) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by this module: (headers, string rows)."""
    path = Path(path)
    with path.open("r", newline="", encoding="ascii") as stream:
        reader = csv.reader(stream)
        headers = next(reader)
        return headers, [row for row in reader]
