"""Command-line interface: CSV sweeps of the ring and loop models.

Subcommands::

    spectrum   lowest ring levels over a grid of phase twists
    catscan    cat metrics of the exact ground state near the crossing
    effective  two-level machinery (detuning, coupling, predicted levels)
    paths      coupling paths between |N,0,0> and |0,N,0>
    loop       continuum loop levels with a delta barrier

Each subcommand takes only the options it reads (``COMMANDS``), plus
``--out`` and ``--config``; any other flag is an argparse error.  A flat
``key = value`` config file may set the same options (a key the subcommand
does not read is a config error); flags override file entries.  Exit codes:
0 success, 2 configuration error, 3 numerical-contract failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .effective import (
    build_coupling_graph,
    default_flow_targets,
    effective_report,
    lowdin_coupling,
    path_normalisation,
    weighted_paths,
)
from .errors import ConfigError, NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import ModelParams, flow_sweep
from .catmetrics import catscan
from .loopmodel import LoopParams, loop_sweep
from .solver import spectrum_sweep
from .util import format_float, write_csv

TWO_PI = 2.0 * math.pi

#: Per-command defaults for the phase grids and level counts.
DEFAULT_PHI_GRID = f"0:{TWO_PI!r}:81"
DEFAULT_DPHI_GRID = "-0.4:0.4:81"
DEFAULT_U_OVER_J = 0.1

#: Every option once: its type and help.  The flag is ``--`` plus the key
#: with '_' spelled '-'; the config-file key is the key itself.
OPTIONS: dict[str, tuple[type, str]] = {
    "n": (int, "number of atoms (default 3)"),
    "u": (float, "contact interaction strength U"),
    "u0": (float, "dipolar on-site strength U0 (enables the dipolar interaction)"),
    "u1": (float, "dipolar pair-exchange strength U1 (enables the dipolar interaction)"),
    "u_over_j": (float, f"set U as a multiple of J1 (default {DEFAULT_U_OVER_J})"),
    "j": (str, "tunnelling J or J1,J2,J3 (default 1)"),
    "phi": (str, "phase grid start:stop:count, or one value"),
    "dphi": (str, "offset-from-pi grid start:stop:count, or one value"),
    "levels": (int, "number of levels to emit"),
    "max_order": (int, "maximum number of intermediate states per path (default 6)"),
    "length": (float, "loop circumference (default 1)"),
    "barrier": (float, "delta-barrier strength (default 0.1)"),
    "kmax": (int, "plane-wave cutoff (default 12)"),
    "out": (str, "output CSV path (default <command>.csv)"),
    "config": (str, "flat key = value config file"),
}

RING_OPTIONS = ("n", "u", "u0", "u1", "u_over_j", "j")

#: Each subcommand: its help, its default grid and the options it reads
#: besides ``out`` and ``config``.
COMMANDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "spectrum": ("sweep the lowest ring levels over phase twists", DEFAULT_PHI_GRID, RING_OPTIONS + ("phi", "levels")),
    "catscan": ("cat metrics of the exact ground state near the crossing", DEFAULT_DPHI_GRID, RING_OPTIONS + ("dphi",)),
    "effective": ("two-level detuning/coupling report near the crossing", DEFAULT_DPHI_GRID, RING_OPTIONS + ("dphi",)),
    "paths": ("coupling paths between the zero-flow and one-flow states", repr(math.pi), RING_OPTIONS + ("phi", "max_order")),
    "loop": ("continuum loop levels with a delta barrier", DEFAULT_PHI_GRID, ("phi", "levels", "length", "barrier", "kmax")),
}


def parse_grid(text: str, key: str) -> np.ndarray:
    """Parse ``start:stop:count`` (inclusive linspace) or a single number."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            if start > stop:
                raise ValueError("start must not exceed stop")
            return np.linspace(start, stop, count)
        return np.array([float(text)])
    except ValueError as exc:
        raise ConfigError(f"invalid grid for '{key}': {text!r} ({exc})") from None


def parse_tunnelling(text: str) -> tuple[float, float, float]:
    """Parse ``J`` or ``J1,J2,J3``."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"invalid tunnelling strengths: {text!r}") from None
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) == 3:
        return tuple(parts)  # type: ignore[return-value]
    raise ConfigError(f"expected one or three tunnelling strengths, got {text!r}")


def load_config_file(path: str, command: str) -> dict[str, object]:
    """Read a flat ``key = value`` file of ``command``'s options; '#' starts a comment."""
    keys = COMMANDS[command][2] + ("out",)
    values: dict[str, object] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is not an option of '{command}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        try:
            values[key] = OPTIONS[key][0](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {value!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcat",
        description="Cat states of superfluid flow in a phase-twisted three-site ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, _, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=description)
        for key in keys + ("out", "config"):
            kind, text = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and flags (flags win) into typed options."""
    command = args.command
    _, default_grid, keys = COMMANDS[command]
    merged = load_config_file(args.config, command) if args.config else {}
    merged.update((key, getattr(args, key)) for key in keys + ("out",) if getattr(args, key) is not None)
    opts: dict[str, object] = {"command": command}

    if "n" in keys:
        if "u" in merged and "u_over_j" in merged:
            raise ConfigError("'u' and 'u_over_j' are mutually exclusive; give one of them")
        j = parse_tunnelling(merged.get("j", "1"))
        n = merged.get("n", 3)
        if n < 1:
            raise ConfigError(f"'n' must be >= 1, got {n}")
        opts.update(
            n=n,
            j=j,
            u=merged["u"] if "u" in merged else merged.get("u_over_j", DEFAULT_U_OVER_J) * j[0],
            u0=merged.get("u0", 0.0),
            u1=merged.get("u1", 0.0),
            dipolar="u0" in merged or "u1" in merged,
        )

    grid_key = "dphi" if "dphi" in keys else "phi"
    opts["grid_key"] = grid_key
    opts["grid_text"] = merged.get(grid_key, default_grid)
    opts["grid"] = parse_grid(opts["grid_text"], grid_key)

    if "levels" in keys:
        opts["levels"] = merged.get("levels", 4 if command == "loop" else 6)
        if opts["levels"] < 1:
            raise ConfigError(f"'levels' must be >= 1, got {opts['levels']}")
    if "max_order" in keys:
        opts["max_order"] = merged.get("max_order", 6)
        if opts["max_order"] < 0:
            raise ConfigError(f"'max_order' must be >= 0, got {opts['max_order']}")
    if "kmax" in keys:
        opts.update(
            length=merged.get("length", 1.0),
            barrier=merged.get("barrier", 0.1),
            kmax=merged.get("kmax", 12),
        )
    opts["out"] = merged.get("out", f"{command}.csv")
    return opts


def model_params(opts: dict) -> ModelParams:
    phi0 = float(opts["grid"][0]) if opts["grid_key"] == "phi" else math.pi
    return ModelParams(
        n=opts["n"],
        j=opts["j"],
        u=opts["u"],
        u0=opts["u0"],
        u1=opts["u1"],
        phi=phi0,
        dipolar=opts["dipolar"],
    )


def config_comment(opts: dict) -> str:
    """One-line record of the fully resolved configuration.

    Every option that can change the numbers is recorded, so identical
    configs produce identical files: each command builds its operator once
    per run and solves one phase point after another.
    """
    parts = [f"command={opts['command']}"]
    if opts["command"] == "loop":
        parts += [
            f"length={format_float(opts['length'])}",
            f"barrier={format_float(opts['barrier'])}",
            f"kmax={opts['kmax']}",
        ]
    else:
        parts += [
            f"n={opts['n']}",
            "j=" + ",".join(format_float(v) for v in opts["j"]),
            f"u={format_float(opts['u'])}",
            f"u0={format_float(opts['u0'])}",
            f"u1={format_float(opts['u1'])}",
            f"dipolar={opts['dipolar']}",
        ]
    parts.append(f"{opts['grid_key']}={opts['grid_text']}")
    parts += [f"{key}={opts[key]}" for key in ("levels", "max_order") if key in opts]
    parts.append(f"out={opts['out']}")
    return " ".join(parts)


def _occupation_label(occ) -> str:
    return "-".join(str(v) for v in occ)


def run_paths(opts: dict) -> str:
    params = model_params(opts)
    operator = flow_sweep(params).at(params.phi)
    targets = default_flow_targets(operator.basis)
    elimination = lowdin_coupling(operator)
    graph = build_coupling_graph(operator)
    labels = [_occupation_label(occ) for occ in operator.basis.states]
    rows = []
    total = 0j
    paths = weighted_paths(graph, targets, elimination.lam, opts["max_order"])
    for index, (path, weight, factor) in enumerate(paths):
        label = ">".join([labels[i] for i in path])
        rows.append((index, len(path) - 2, label, weight.real, weight.imag))
        total += weight * factor
    normalised = total / path_normalisation(graph, targets, elimination.lam)
    write_csv(
        opts["out"],
        ("path_index", "n_intermediates", "path", "weight_re", "weight_im"),
        rows,
        comment=config_comment(opts),
    )
    return (
        f"{len(rows)} connecting path(s) up to order {opts['max_order']}; "
        f"normalised path-sum coupling = {normalised:.9g} (raw sum {total:.9g}); "
        f"elimination coupling = {elimination.v01:.9g} "
        f"at working energy {elimination.lam:.12g}"
    )


def run(opts: dict) -> str:
    command, out, grid = opts["command"], opts["out"], opts["grid"]
    if command == "paths":
        return f"wrote {out}; {run_paths(opts)}"
    if command == "spectrum":
        table = spectrum_sweep(model_params(opts), grid, n_levels=opts["levels"])
    elif command == "catscan":
        table = catscan(model_params(opts), grid)
    elif command == "effective":
        table = effective_report(model_params(opts), grid)
    else:
        loop_params = LoopParams(length=opts["length"], barrier=opts["barrier"])
        table = loop_sweep(loop_params, grid, k_max=opts["kmax"], n_levels=opts["levels"])
    table.to_csv(out, comment=config_comment(opts))
    if "levels" in opts:
        return f"wrote {out} ({len(grid)} phases x {table.n_levels} levels)"
    return f"wrote {out} ({len(grid)} offsets)"


def _normalise_argv(tokens: list[str]) -> list[str]:
    """Join grid flags with their values so ``--dphi -0.4:0.4:81`` parses."""
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if tokens[i] in ("--phi", "--dphi") and i + 1 < len(tokens):
            out.append(f"{tokens[i]}={tokens[i + 1]}")
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_normalise_argv(tokens))
    try:
        opts = resolve_options(args)
        message = run(opts)
    except (ConfigError, UnsupportedConfigurationError) as exc:
        print(f"ringcat: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"ringcat: numerical contract violation: {exc}", file=sys.stderr)
        return 3
    print(f"ringcat {args.command}: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
