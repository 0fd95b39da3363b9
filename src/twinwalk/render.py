"""Deterministic text rendering and atomic writes for the CLI outputs."""

from __future__ import annotations

import contextlib
import os
import tempfile
from itertools import compress
from pathlib import Path

from .experiment import TimelineRecord

TIMELINE_HEADER = "step,p0,p1,entropy0,entropy1,max_entropy,ratio0,ratio1"

#: ``timeline_row`` of a record whose first eight fields hold no None, in one
#: formatting call; %.12g renders a float exactly as format(value, ".12g"),
#: here and in ``format_column``
_ROW_FORMAT = "%d" + ",%.12g" * 7


def format_number(value: float | None) -> str:
    """12-significant-digit rendering; absent values become empty fields."""
    if value is None:
        return ""
    return format(value, ".12g")


def format_column(values: list[float], present: list[bool]) -> list[str]:
    """``format_number`` of each value, or "" where it is not ``present``,
    in one formatting call: no rendered number holds a comma."""
    if not values:
        return []
    form = ",".join(["%.12g" if flag else "" for flag in present])
    return (form % tuple(compress(values, present))).split(",")


def timeline_row(record: TimelineRecord) -> str:
    return ",".join(
        (
            str(record.step),
            format_number(record.p0),
            format_number(record.p1),
            format_number(record.entropy0),
            format_number(record.entropy1),
            format_number(record.max_entropy),
            format_number(record.ratio0),
            format_number(record.ratio1),
        )
    )


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
