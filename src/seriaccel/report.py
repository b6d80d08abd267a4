"""Term-table rows and their CSV/JSON writers.

Rows are ordered by ``m`` then family name.  The ``value`` field is the
rendered string (exact ``p/q`` text in rational mode, scientific notation in
the float modes).  An invalid cell's value is empty in CSV and ``null`` in
JSON.
"""

from __future__ import annotations

import io

__all__ = ["COLUMNS", "term_rows", "rows_to_csv", "rows_to_json"]

COLUMNS = ("m", "family", "k", "n", "value", "valid")


def term_rows(cells, render):
    """Rows ``(m, family, k, n, value, valid)`` of the term cells ``cells``
    (family name -> cells by ``m``), each valid value rendered by ``render``
    and each invalid one ``""``."""
    for row in zip(*(cells[family] for family in sorted(cells))):
        for c in row:
            yield c.m, c.family, c.level, c.n, render(c.value) if c.valid else "", c.valid


def rows_to_csv(rows) -> str:
    import csv  # imported by the writer, so start-up does not pay for it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for *head, valid in rows:
        writer.writerow((*head, "true" if valid else "false"))
    return out.getvalue()


def rows_to_json(rows) -> str:
    import json  # imported by the writer, so start-up does not pay for it

    payload = [dict(zip(COLUMNS, (*head, value if valid else None, valid)))
               for *head, value, valid in rows]
    return json.dumps(payload, indent=2)
