"""Command-line interface: CSV sweeps of the ring and loop models.

``OPTIONS`` decides each option's type, default, help and least value once.
``COMMANDS`` lists the subcommands (spectrum, catscan, effective, paths, loop),
the options each reads besides ``--out`` and ``--config``, and the options whose
default or help each sets differently; any other flag is an argparse error.  A
flat ``key = value`` config file may set the same options (a key the subcommand
does not read is a config error); flags override file entries.  Exit codes:
0 success, 2 configuration error, 3 numerical-contract failure.
"""

import argparse
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .effective import effective_report, paths_report
from .errors import ConfigError, NumericalContractError, UnsupportedConfigurationError
from .hamiltonians import ModelParams
from .catmetrics import catscan
from .loopmodel import LoopParams, loop_sweep
from .solver import spectrum_sweep
from .util import format_value


class Option(NamedTuple):
    """An option's type, default (None when it has none, or when
    ``resolve_options`` works it out), help and least allowed value."""

    kind: type
    default: object
    help: str
    minimum: int | None = None


#: Every option once.  The flag is ``--`` plus the key with '_' spelled '-';
#: the config-file key is the key itself.
OPTIONS: dict[str, Option] = {
    "n": Option(int, 3, "number of atoms", minimum=1),
    "u": Option(float, None, "contact interaction strength U; without it U = u_over_j * J1"),
    "u0": Option(float, 0.0, "dipolar on-site strength U0; giving it enables the dipolar interaction"),
    "u1": Option(float, 0.0, "dipolar pair-exchange strength U1; giving it enables the dipolar interaction"),
    "u_over_j": Option(float, 0.1, "set U as a multiple of J1"),
    "j": Option(str, "1", "tunnelling J or J1,J2,J3"),
    "phi": Option(str, f"0:{2.0 * math.pi!r}:81", "phase grid start:stop:count, or one value"),
    "dphi": Option(str, "-0.4:0.4:81", "offset-from-pi grid start:stop:count, or one value"),
    "levels": Option(int, 6, "number of levels to emit", minimum=1),
    "max_order": Option(int, 6, "maximum number of intermediate states per path", minimum=0),
    "length": Option(float, 1.0, "loop circumference"),
    "barrier": Option(float, 0.1, "delta-barrier strength"),
    "kmax": Option(int, 12, "plane-wave cutoff"),
    "out": Option(str, None, "output CSV path"),
    "config": Option(str, None, "flat key = value config file"),
}

RING_OPTIONS = ("n", "u", "u0", "u1", "u_over_j", "j")

#: Each subcommand: its help, the options it reads besides ``out`` and
#: ``config``, and the options whose default or help it sets differently from ``OPTIONS``.
COMMANDS: dict[str, tuple[str, tuple[str, ...], dict[str, Option]]] = {
    "spectrum": ("sweep the lowest ring levels over phase twists", RING_OPTIONS + ("phi", "levels"), {}),
    "catscan": ("cat metrics of the exact ground state near the crossing", RING_OPTIONS + ("dphi",), {}),
    "effective": ("two-level detuning/coupling report near the crossing", RING_OPTIONS + ("dphi",), {}),
    "paths": ("coupling paths between the zero-flow and one-flow states", RING_OPTIONS + ("phi", "max_order"),
              {"phi": Option(str, repr(math.pi), "phase twist, one value")}),
    "loop": ("continuum loop levels with a delta barrier", ("phi", "levels", "length", "barrier", "kmax"),
             {"levels": OPTIONS["levels"]._replace(default=4)}),
}

#: The keys of a resolved config, in the order its CSV comment lists them.
RECORDED = ("command", "n", "j", "u", "u0", "u1", "dipolar", "length", "barrier", "kmax",
            "phi", "dphi", "levels", "max_order", "out")


def command_defaults(command: str) -> dict[str, object]:
    """Each option of ``command`` at its default; ``out`` defaults to ``<command>.csv``."""
    _, keys, own = COMMANDS[command]
    return {**{key: own.get(key, OPTIONS[key]).default for key in keys}, "out": f"{command}.csv"}


def _text(value) -> str:
    """A recorded value as the CSV comment and the help spell it."""
    return ",".join(map(format_value, value)) if isinstance(value, tuple) else format_value(value)


def parse_grid(text: str, key: str) -> np.ndarray:
    """Parse ``start:stop:count`` (inclusive linspace) or a single number."""
    try:
        parts = text.split(":")
        if len(parts) not in (1, 3):
            raise ValueError("expected start:stop:count")
        values = [float(v) for v in parts[:2]]
        if not all(map(math.isfinite, values + [values[-1] - values[0]])):
            raise ValueError("start, stop, stop - start and a single value must be finite")
        if len(parts) == 1:
            return np.array(values)
        start, stop = values
        count = int(parts[2])
        if count < 1:
            raise ValueError("count must be >= 1")
        if start > stop:
            raise ValueError("start must not exceed stop")
        return np.linspace(start, stop, count)
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
    keys = COMMANDS[command][1] + ("out",)
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
            values[key] = OPTIONS[key].kind(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {value!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcat",
        description="Cat states of superfluid flow in a phase-twisted three-site ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, keys, own) in COMMANDS.items():
        p = sub.add_parser(name, help=description)
        defaults = command_defaults(name)
        for key in keys + ("out", "config"):
            option, default = own.get(key, OPTIONS[key]), defaults.get(key)
            text = option.help if default is None else f"{option.help} (default {_text(default)})"
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=option.kind, help=text)
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge ``command_defaults``, the config file and the flags (each overriding
    the one before), check least values, derive U and dipolar, parse the grid."""
    command = args.command
    keys = COMMANDS[command][1]
    given = load_config_file(args.config, command) if args.config else {}
    given.update((key, getattr(args, key)) for key in keys + ("out",) if getattr(args, key) is not None)
    if "u" in given and "u_over_j" in given:
        raise ConfigError("'u' and 'u_over_j' are mutually exclusive; give one of them")
    opts = {"command": command, **command_defaults(command), **given}
    for key in keys:
        minimum = OPTIONS[key].minimum
        if minimum is not None and opts[key] < minimum:
            raise ConfigError(f"'{key}' must be >= {minimum}, got {opts[key]}")
    if "j" in opts:
        opts["j"] = parse_tunnelling(opts["j"])
        if opts["u"] is None:
            opts["u"] = opts["u_over_j"] * opts["j"][0]
        opts["dipolar"] = "u0" in given or "u1" in given
    grid_key = "dphi" if "dphi" in opts else "phi"
    opts["grid"] = parse_grid(opts[grid_key], grid_key)
    if command == "paths" and len(opts["grid"]) != 1:
        raise ConfigError(f"'paths' takes one phase, got a grid of {len(opts['grid'])}")
    return opts


def model_params(opts: dict) -> ModelParams:
    return ModelParams(
        n=opts["n"],
        j=opts["j"],
        u=opts["u"],
        u0=opts["u0"],
        u1=opts["u1"],
        phi=float(opts["grid"][0]) if "phi" in opts else math.pi,
        dipolar=opts["dipolar"],
    )


def config_comment(opts: dict) -> str:
    """One-line record of the fully resolved configuration.

    Every option that can change the numbers is recorded, so identical
    configs produce identical files: each command builds its operator once
    per run and solves one phase point after another.
    """
    return " ".join(f"{key}={_text(opts[key])}" for key in RECORDED if key in opts)


def run(opts: dict) -> str:
    command, out, grid = opts["command"], opts["out"], opts["grid"]
    if command == "spectrum":
        table = spectrum_sweep(model_params(opts), grid, n_levels=opts["levels"])
    elif command == "catscan":
        table = catscan(model_params(opts), grid)
    elif command == "effective":
        table = effective_report(model_params(opts), grid)
    elif command == "paths":
        table = paths_report(model_params(opts), opts["max_order"])
    else:
        loop_params = LoopParams(length=opts["length"], barrier=opts["barrier"])
        table = loop_sweep(loop_params, grid, k_max=opts["kmax"], n_levels=opts["levels"])
    table.to_csv(out, comment=config_comment(opts))
    if command == "paths":
        return (f"wrote {out}; {len(list(table.rows()))} connecting path(s) up to order {opts['max_order']}; "
                f"normalised path-sum coupling = {table.normalised:.9g} (raw sum {table.total:.9g}); "
                f"elimination coupling = {table.v01:.9g} at working energy {table.lam:.12g}")
    if "levels" in opts:
        return f"wrote {out} ({len(grid)} phases x {table.n_levels} levels)"
    return f"wrote {out} ({len(grid)} offsets)"


def _normalise_argv(tokens: list[str]) -> list[str]:
    """Join grid flags with their values so ``--dphi -0.4:0.4:81`` parses."""
    out: list[str] = []
    for token in tokens:
        if out and out[-1] in ("--phi", "--dphi"):
            out[-1] += "=" + token
        else:
            out.append(token)
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
