"""The one CSV writer behind every table the library and the CLI emit."""

import csv
import io
from decimal import Decimal


def csv_table(header: str, rows, lineterminator="\r\n") -> str:
    """CSV text of a comma-separated header and the rows.  Report tables keep
    the csv module's CRLF line ends; the CLI's own tables end lines with LF.
    Ints over 2000 bits go through Decimal, exact past the interpreter's
    str() digit limit (at least 640 digits); other cells are left as they are."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator=lineterminator)
    w.writerow(header.split(","))
    w.writerows([str(Decimal(x)) if type(x) is int and x.bit_length() > 2000 else x
                 for x in row] for row in rows)
    return buf.getvalue()
