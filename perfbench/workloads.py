"""Workload definitions, seeded argument generation and the output check.

Each workload is a fixed sequence of ``ringcat`` CLI invocations.  The seed
changes only how the arguments are spelled (flag order, ``--flag=value``
against ``--flag value``, the output file name), never the work, so every
seed must give the same numbers and the same timings.

The reference values live in ``reference.json.gz``.  ``make_reference.py``
computed them once from the public functions of ringcat 0.1.0 (commit
ba99c7a); they are never re-derived from the code under test.  Only
quantities that do not depend on the eigenvector phase convention are
compared.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json.gz"

#: One CLI step: the subcommand and its flags, without ``--out``.
Step = tuple[str, tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    # Small invocations of the same subcommands, run once before timing so
    # that imports, BLAS thread start-up and first-call costs are paid.
    warmup: tuple[Step, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catscan_n36",
            (("catscan", (("--n", "36"), ("--dphi", "-0.2:0.2:21"))),),
            (("catscan", (("--n", "6"), ("--dphi", "-0.2:0.2:3"))),),
        ),
        Workload(
            "spectrum_asym_n24",
            (("spectrum", (("--n", "24"), ("--j", "1,0.9,1.1"), ("--u0", "0.1"), ("--u1", "0.05"))),),
            (("spectrum", (("--n", "4"), ("--j", "1,0.9,1.1"), ("--u0", "0.1"), ("--u1", "0.05"), ("--phi", "0:1:3"))),),
        ),
        Workload(
            "reduction_n36",
            (
                ("effective", (("--n", "36"), ("--dphi", "-0.2:0.2:21"))),
                ("paths", (("--n", "12"), ("--max-order", "11"))),
            ),
            (
                ("effective", (("--n", "6"), ("--dphi", "-0.2:0.2:3"))),
                ("paths", (("--n", "3"), ("--max-order", "3"))),
            ),
        ),
        Workload(
            "loop_k128",
            (("loop", (("--kmax", "128"),)),),
            (("loop", (("--kmax", "8"), ("--phi", "0:1:3"))),),
        ),
    )
}


def seeded_argv(step: Step, rng: random.Random, out_dir: str) -> list[str]:
    """Spell one step's arguments as the seed chooses."""
    command, flags = step
    flags = list(flags)
    rng.shuffle(flags)
    argv = [command]
    for flag, value in flags:
        if flag in ("--phi", "--dphi") and rng.random() < 0.5:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    argv += ["--out", f"{out_dir}/{command}_{rng.randrange(16**8):08x}.csv"]
    return argv


def for_invocation(text: str, index: int) -> str:
    """Fill the ``{i}`` of an argument with a fixed-width invocation number,
    so that every invocation writes the same number of bytes."""
    return text.replace("{i}", f"{index:04d}")


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

#: (relative, absolute) tolerance per checked quantity.  The spreads seen
#: between BLAS thread counts and between the site- and flow-basis routes
#: are about 100 times smaller: amplitudes 8e-10 relative at the crossing and
#: 1e-15 absolute in the tails, |v01| 3e-6 relative, energies 1e-15 relative.
TOLERANCES = {
    "dphi": (0.0, 1e-12),
    "phi": (0.0, 1e-12),
    "a0_abs": (1e-7, 1e-13),
    "a1_abs": (1e-7, 1e-13),
    "captured_norm": (1e-9, 1e-12),
    "ratio_analytic": (1e-4, 0.0),
    "eps": (1e-10, 1e-12),
    "v01_abs": (1e-4, 0.0),
    "E_minus": (1e-10, 1e-10),
    "E_plus": (1e-10, 1e-10),
    "energy": (1e-10, 1e-10),
    "energy_over_C": (1e-10, 1e-10),
    "weight": (1e-9, 0.0),
}

#: ringcat 0.1.0's TwoLevelModel computes the analytic ratio as |v01| / (eps + r),
#: which cancels catastrophically for eps < 0.  Those rows are expected to
#: fail; they are counted in correct_frac and reported, but they do not mark
#: the run incorrect.  Any other failing value does.
KNOWN_DEFECT = "ratio_analytic with dphi < 0 (TwoLevelModel._branch_ratio cancels for eps < 0)"


def _close(value: complex, ref: complex, key: str) -> bool:
    rtol, atol = TOLERANCES[key]
    return abs(value - ref) <= atol + rtol * abs(ref)


def load_reference() -> dict:
    with gzip.open(REFERENCE_FILE, "rt") as fh:
        return json.load(fh)


def expected_rows(reference: dict, workload: Workload) -> int:
    return sum(len(reference[command]["rows"]) for command, _ in workload.steps)


@dataclass
class CheckResult:
    expected: int = 0
    ok: int = 0
    known_defect: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.expected += other.expected
        self.ok += other.ok
        self.known_defect += other.known_defect
        self.problems += other.problems


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _row_values(command: str, row: dict[str, str]) -> dict[str, object]:
    """The phase-convention-free quantities of one CSV row."""
    f = {k: float(v) for k, v in row.items() if k not in ("path",)}
    if command == "catscan":
        return {
            "dphi": f["dphi"],
            "a0_abs": math.hypot(f["a0_re"], f["a0_im"]),
            "a1_abs": math.hypot(f["a1_re"], f["a1_im"]),
            "captured_norm": f["captured_norm"],
            "ratio_analytic": f["ratio_analytic"],
        }
    if command == "effective":
        return {k: f[k] for k in ("dphi", "eps", "v01_abs", "ratio_analytic", "E_minus", "E_plus")}
    if command in ("spectrum", "loop"):
        energy_key = "energy" if command == "spectrum" else "energy_over_C"
        return {"phi": f["phi"], "level": int(f["level"]), energy_key: f[energy_key]}
    if command == "paths":
        return {
            "path": row["path"],
            "n_intermediates": int(f["n_intermediates"]),
            "weight": complex(f["weight_re"], f["weight_im"]),
        }
    raise ValueError(f"no check for command {command!r}")


def check_output(command: str, path: Path, reference: dict) -> CheckResult:
    """Compare one CSV with the reference, row by row."""
    ref = reference[command]
    keys, ref_rows = ref["columns"], ref["rows"]
    result = CheckResult(expected=len(ref_rows))
    try:
        header, rows = _read_csv(path)
    except (OSError, IndexError) as exc:
        result.problems.append(f"{command}: no readable output ({exc})")
        return result
    if len(rows) != len(ref_rows):
        result.problems.append(f"{command}: {len(rows)} rows, reference has {len(ref_rows)}")
    for index, (raw, ref_row) in enumerate(zip(rows, ref_rows)):
        try:
            got = _row_values(command, dict(zip(header, raw)))
        except (KeyError, ValueError) as exc:
            result.problems.append(f"{command} row {index}: unreadable ({exc})")
            continue
        bad = []
        for key, expected in zip(keys, ref_row):
            value = got[key]
            if key == "weight":
                expected = complex(*expected)
            ok = _close(value, expected, key) if key in TOLERANCES else value == expected
            if not ok:
                bad.append((key, value, expected))
        if not bad:
            result.ok += 1
        elif command in ("catscan", "effective") and got["dphi"] < 0 and [k for k, *_ in bad] == ["ratio_analytic"]:
            result.known_defect += 1
        else:
            key, value, expected = bad[0]
            result.problems.append(f"{command} row {index}: {key} = {value!r}, reference {expected!r}")
    return result
