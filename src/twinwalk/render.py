"""Every output format the program writes: the CSV join, the timeline rows,
the JSON documents and the atomic writes."""

from __future__ import annotations

import contextlib
import json
import operator
import os
import tempfile
from itertools import compress
from pathlib import Path

from .experiment import TimelineRecord

TIMELINE_HEADER = "step,p0,p1,entropy0,entropy1,max_entropy,ratio0,ratio1"

#: ``timeline_row`` of a record whose first eight fields hold no None, in one
#: formatting call; %.12g renders a float exactly as format(value, ".12g")
_ROW_FORMAT = "%d" + ",%.12g" * 7


def format_column(values: list[float | None], present: list[bool]) -> list[str]:
    """Each value to 12 significant digits, or "" where it is not
    ``present``, in one formatting call: no rendered number holds a comma."""
    if not values:
        return []
    form = ",".join(["%.12g" if flag else "" for flag in present])
    return (form % tuple(compress(values, present))).split(",")


def timeline_row(record: TimelineRecord) -> str:
    """A record's CSV row; an absent (None) field is left empty."""
    fields = list(record[1:8])
    return ",".join([str(record.step), *format_column(fields, [v is not None for v in fields])])


def csv_text(header: tuple[str, ...], rows) -> str:
    """The header and each row of already formatted fields, comma-joined."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def json_text(payload: dict) -> str:
    """The one JSON rule: indent 2, sorted keys, a numpy integer (which
    ``require_integer`` lets pass) written as an int, a trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True, default=operator.index) + "\n"


def render_timeline_csv(timeline: list[TimelineRecord]) -> str:
    lines = [TIMELINE_HEADER]
    lines.extend(
        timeline_row(record) if None in record[:8] else _ROW_FORMAT % record[:8]
        for record in timeline
    )
    return "\n".join(lines) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    """Write-then-rename so partial runs never leave truncated files; an
    ``OSError`` names ``path``, not the temporary file, and leaves none."""
    path = Path(path)
    try:
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
