"""Report rows and their CSV/JSON writers.

Rows are ordered by ``m`` then family name.  The ``value`` field is the
rendered string (exact ``p/q`` text in rational mode, scientific notation in
the float modes).  An invalid cell's value is empty in CSV and ``null`` in
JSON.
"""

from __future__ import annotations

import io
from typing import NamedTuple

__all__ = ["ReportRow", "rows_to_csv", "rows_to_json"]


class ReportRow(NamedTuple):
    m: int
    family: str
    k: int
    n: int
    value: str
    valid: bool


def rows_to_csv(rows) -> str:
    import csv  # imported by the writer, so start-up does not pay for it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ReportRow._fields)
    for r in rows:
        writer.writerow(r._replace(valid="true" if r.valid else "false"))
    return out.getvalue()


def rows_to_json(rows) -> str:
    import json  # imported by the writer, so start-up does not pay for it

    payload = [{**r._asdict(), "value": r.value if r.valid else None} for r in rows]
    return json.dumps(payload, indent=2)

