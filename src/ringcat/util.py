"""Small shared helpers: float formatting and CSV writing."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    """Render a float with 15 significant digits (nan/inf spelled out)."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return f"{x:.15g}"


def format_value(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None) -> None:
    """Write rows as CSV with an optional leading ``#`` comment line."""
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

