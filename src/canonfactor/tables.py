"""Text tables, the one file format behind every reader and writer.

A table is a header line, a magic string such as ``#weight v1`` followed
by a fixed number of integer fields, then one row of whitespace-separated
floats per line; blank lines are skipped.  Floats are written with
``repr``, so a table reads back bit for bit.
"""

import numpy as np

from .errors import ValidationError


def write_table(path, header, rows):
    """Write the header and the 2-d rows; a non-finite value raises
    ValidationError before the file is opened."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise ValidationError(f"{path}: table has non-finite entries")
    lines = [header] + [" ".join(map(repr, row)) for row in rows.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path, magic, n_header_fields, ncols):
    """(header integers after magic, rows as a (rows, ncols) float array).

    With ncols None every row must be as long as the first.  A file that
    is not UTF-8, lacks the header, has no rows, a row of the wrong length
    or a non-numeric or non-finite field raises ValidationError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})")
    words = magic.split()
    head = lines[0] if lines else []
    fields = head[len(words):]
    try:
        if (head[:len(words)] != words or len(fields) != n_header_fields
                or not all(f.isdecimal() for f in fields)):
            raise ValueError
        sizes = tuple(int(f) for f in fields)    # may pass int's digit limit
    except ValueError:
        spec = " ".join([magic] + ["<int>"] * n_header_fields)
        raise ValidationError(f"{path}: missing '{spec}' header") from None
    body = lines[1:]
    if not body:
        raise ValidationError(f"{path}: no data rows")
    ncols = len(body[0]) if ncols is None else ncols
    for row in body:
        if len(row) != ncols:
            raise ValidationError(
                f"{path}: expected {ncols} columns, got {' '.join(row)!r}")
    try:
        rows = np.array(body, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}")
    if not np.all(np.isfinite(rows)):
        raise ValidationError(f"{path}: a non-finite field")
    return sizes, rows
