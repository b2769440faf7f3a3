"""The one CSV writer behind every table the library and the CLI emit."""

import csv
import io


def csv_table(header: str, rows, lineterminator="\r\n") -> str:
    """CSV text of a comma-separated header and the rows.  Report tables keep
    the csv module's CRLF line ends; the CLI's own tables end lines with LF."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator=lineterminator)
    w.writerow(header.split(","))
    w.writerows(rows)
    return buf.getvalue()
