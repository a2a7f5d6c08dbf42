"""Small shared helpers: float formatting, CSV writing and the table every sweep returns."""

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


class Table:
    """A sweep's results: each of ``columns`` as an attribute, and ``rows``, the
    CSV rows under ``header`` that ``to_csv`` writes."""

    def __init__(self, header: Sequence[str], rows: list[tuple], **columns):
        self.__dict__.update(columns, header=header, _rows=rows)

    def rows(self) -> Iterable[tuple]:
        return iter(self._rows)

    def to_csv(self, path, comment: str | None = None) -> None:
        write_csv(path, self.header, self._rows, comment=comment)


def level_rows(phis, energies) -> list[tuple]:
    """(phi, level, energy) for each level of each phase, from an array of one row per phase."""
    return [(phi, level, e) for phi, row in zip(phis.tolist(), energies.tolist()) for level, e in enumerate(row)]
