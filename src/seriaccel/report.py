"""Term-table rows and their CSV/JSON writers.

Rows are read from the term tables of :mod:`seriaccel.remainders`, one
``TransformTable`` per family with one cell per ``m``, and ordered by ``m``
then family name.  The ``value`` field is the rendered string (exact ``p/q``
text in rational mode, scientific notation in the float modes).  An invalid
cell's value is empty in CSV and ``null`` in JSON; its reason stays in the
table's ``notes``.
"""

from __future__ import annotations

import io

__all__ = ["COLUMNS", "term_rows", "rows_to_csv", "rows_to_json"]

COLUMNS = ("m", "family", "k", "n", "value", "valid")


def term_rows(tables, render):
    """Rows ``(m, family, k, n, value, valid)`` of the term tables ``tables``
    (family name -> table), row ``m`` read at ``(k, n) = divmod(m, step)``,
    each valid value rendered by ``render`` and each invalid one ``""``."""
    families = sorted(tables)
    for m in range(min(tables[family].size for family in families)):
        for family in families:
            table = tables[family]
            k, n = divmod(m, table.step)
            valid = (k, n) in table.entries
            yield m, family, k, n, render(table.entries[k, n]) if valid else "", valid


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
