"""Small shared helpers: float formatting and CSV writing."""

from typing import Iterable, Sequence


def format_value(x) -> str:
    """Render a float with 15 significant digits (nan/inf spelled out), anything else by ``str``."""
    return f"{x:.15g}" if isinstance(x, float) else str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None) -> None:
    """Write rows as CSV with an optional leading ``#`` comment line."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines += (",".join(map(format_value, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
