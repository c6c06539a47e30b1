"""Plain-data encoding and CSV export of experiment results."""

from __future__ import annotations

import csv
import dataclasses
import io
import typing


def to_plain(value: typing.Any) -> typing.Any:
    """``value`` as plain data, for a JSON payload or export.

    A dataclass becomes a dict of its fields in field order, a list or
    tuple a list, and a dict a new dict with the same keys, each walked
    recursively; every other value is returned as it is.  The one
    encoder of the result and analysis dataclasses: with string keys and
    JSON leaves, what it returns equals its own JSON round trip, so a
    fresh sweep payload equals its cache hit.
    """
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return value


def rows_to_csv(
    headers: typing.Sequence[str],
    rows: typing.Iterable[typing.Sequence[object]],
) -> str:
    """Serialize rows as CSV text (RFC 4180 quoting via csv module)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but header has {len(headers)}"
            )
        writer.writerow(list(row))
    return buffer.getvalue()
