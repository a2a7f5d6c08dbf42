"""Command-line interface: CSV sweeps of the ring and loop models.

Subcommands::

    spectrum   lowest ring levels over a grid of phase twists
    catscan    cat metrics of the exact ground state near the crossing
    effective  two-level machinery (detuning, coupling, predicted levels)
    paths      coupling paths between |N,0,0> and |0,N,0>
    loop       continuum loop levels with a delta barrier

Options may also be given in a flat ``key = value`` config file (see
``--config``); command-line flags override file entries.  Exit codes:
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

_GRID_KEYS = ("phi", "dphi")
_FLOAT_KEYS = ("u", "u0", "u1", "u_over_j", "length", "barrier", "barrier_pos")
_INT_KEYS = ("n", "levels", "kmax", "max_order")
_STR_KEYS = ("j", "out")
_ALL_KEYS = set(_GRID_KEYS) | set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)


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


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value) -> object:
    """Coerce a raw config-file string to the key's type."""
    if not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {value!r}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcat",
        description="Cat states of superfluid flow in a phase-twisted three-site ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="number of atoms (default 3)")
        p.add_argument("--u", type=float, default=None, help="contact interaction strength U")
        p.add_argument("--u0", type=float, default=None, help="dipolar on-site strength U0 (enables the dipolar interaction)")
        p.add_argument("--u1", type=float, default=None, help="dipolar pair-exchange strength U1 (enables the dipolar interaction)")
        p.add_argument("--u-over-j", dest="u_over_j", type=float, default=None,
                       help=f"set U as a multiple of J1 (default {DEFAULT_U_OVER_J})")
        p.add_argument("--j", type=str, default=None, help="tunnelling J or J1,J2,J3 (default 1)")
        p.add_argument("--phi", type=str, default=None, help="phase grid start:stop:count, or one value")
        p.add_argument("--dphi", type=str, default=None, help="offset-from-pi grid start:stop:count, or one value")
        p.add_argument("--levels", type=int, default=None, help="number of levels to emit")
        p.add_argument("--out", type=str, default=None, help="output CSV path (default <command>.csv)")
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")

    for name, description in (
        ("spectrum", "sweep the lowest ring levels over phase twists"),
        ("catscan", "cat metrics of the exact ground state near the crossing"),
        ("effective", "two-level detuning/coupling report near the crossing"),
        ("paths", "coupling paths between the zero-flow and one-flow states"),
        ("loop", "continuum loop levels with a delta barrier"),
    ):
        p = sub.add_parser(name, help=description)
        add_common(p)
        if name == "paths":
            p.add_argument("--max-order", dest="max_order", type=int, default=None,
                           help="maximum number of intermediate states per path (default 6)")
        if name == "loop":
            p.add_argument("--length", type=float, default=None, help="loop circumference (default 1)")
            p.add_argument("--barrier", type=float, default=None, help="delta-barrier strength (default 0.1)")
            p.add_argument("--barrier-pos", dest="barrier_pos", type=float, default=None,
                           help="barrier position on the loop (default length/2)")
            p.add_argument("--kmax", type=int, default=None, help="plane-wave cutoff (default 12)")
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and flags (flags win) into typed options."""
    file_values = load_config_file(args.config) if args.config else {}
    merged: dict[str, object] = {}
    for key in _ALL_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_values:
            merged[key] = _coerce(key, file_values[key])

    command = args.command
    opts: dict[str, object] = {"command": command}

    if "u" in merged and "u_over_j" in merged:
        raise ConfigError("'u' and 'u_over_j' are mutually exclusive; give one of them")
    j = parse_tunnelling(str(merged.get("j", "1")))
    n = int(merged.get("n", 3))
    if n < 1:
        raise ConfigError(f"'n' must be >= 1, got {n}")
    dipolar = "u0" in merged or "u1" in merged
    if "u" in merged:
        u = float(merged["u"])
    else:
        u = float(merged.get("u_over_j", DEFAULT_U_OVER_J)) * j[0]
    opts.update(
        n=n,
        j=j,
        u=u,
        u0=float(merged.get("u0", 0.0)),
        u1=float(merged.get("u1", 0.0)),
        dipolar=dipolar,
    )

    default_grid = DEFAULT_DPHI_GRID if command in ("catscan", "effective") else DEFAULT_PHI_GRID
    if command in ("catscan", "effective"):
        grid_key = "dphi"
        grid_text = str(merged.get("dphi", default_grid))
    elif command == "paths":
        grid_key = "phi"
        grid_text = str(merged.get("phi", repr(math.pi)))
    else:
        grid_key = "phi"
        grid_text = str(merged.get("phi", default_grid))
    opts["grid_key"] = grid_key
    opts["grid_text"] = grid_text
    opts["grid"] = parse_grid(grid_text, grid_key)

    levels_default = 4 if command == "loop" else 6
    opts["levels"] = int(merged.get("levels", levels_default))
    if opts["levels"] < 1:
        raise ConfigError(f"'levels' must be >= 1, got {opts['levels']}")
    opts["out"] = str(merged.get("out", f"{command}.csv"))
    opts["max_order"] = int(merged.get("max_order", 6))
    if opts["max_order"] < 0:
        raise ConfigError(f"'max_order' must be >= 0, got {opts['max_order']}")
    opts["length"] = float(merged.get("length", 1.0))
    opts["barrier"] = float(merged.get("barrier", 0.1))
    opts["barrier_pos"] = float(merged["barrier_pos"]) if "barrier_pos" in merged else None
    opts["kmax"] = int(merged.get("kmax", 12))
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
            f"barrier_pos={'length/2' if opts['barrier_pos'] is None else format_float(opts['barrier_pos'])}",
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
    if opts["command"] in ("spectrum", "loop"):
        parts.append(f"levels={opts['levels']}")
    if opts["command"] == "paths":
        parts.append(f"max_order={opts['max_order']}")
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
    command = opts["command"]
    if command == "spectrum":
        table = spectrum_sweep(model_params(opts), opts["grid"], n_levels=opts["levels"])
        table.to_csv(opts["out"], comment=config_comment(opts))
        return f"wrote {opts['out']} ({len(opts['grid'])} phases x {table.n_levels} levels)"
    if command == "catscan":
        table = catscan(model_params(opts), opts["grid"])
        table.to_csv(opts["out"], comment=config_comment(opts))
        return f"wrote {opts['out']} ({len(opts['grid'])} offsets)"
    if command == "effective":
        table = effective_report(model_params(opts), opts["grid"])
        table.to_csv(opts["out"], comment=config_comment(opts))
        return f"wrote {opts['out']} ({len(opts['grid'])} offsets)"
    if command == "paths":
        message = run_paths(opts)
        return f"wrote {opts['out']}; {message}"
    if command == "loop":
        loop_params = LoopParams(
            length=opts["length"], barrier=opts["barrier"], barrier_position=opts["barrier_pos"]
        )
        table = loop_sweep(loop_params, opts["grid"], k_max=opts["kmax"], n_levels=opts["levels"])
        table.to_csv(opts["out"], comment=config_comment(opts))
        return f"wrote {opts['out']} ({len(opts['grid'])} phases x {table.n_levels} levels)"
    raise ConfigError(f"unknown command {command!r}")


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
