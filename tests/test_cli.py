"""Tests for the command-line interface: parsing, config files, exit codes."""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ringcat import NumericalContractError
from ringcat import cli, effective, util
from ringcat.catmetrics import ground_cat_metrics
from ringcat.hamiltonians import ModelParams


README = Path(__file__).resolve().parents[1] / "README.md"

RING_FLAGS = {"--n", "--u", "--u0", "--u1", "--u-over-j", "--j"}

#: The flags each subcommand lists in its --help, --help included.
HELP_FLAGS = {
    name: flags | {"--out", "--config", "--help"}
    for name, flags in (
        ("spectrum", RING_FLAGS | {"--phi", "--levels"}),
        ("catscan", RING_FLAGS | {"--dphi"}),
        ("effective", RING_FLAGS | {"--dphi"}),
        ("paths", RING_FLAGS | {"--phi", "--max-order"}),
        ("loop", {"--phi", "--levels", "--length", "--barrier", "--kmax"}),
    )
}


def run_cli(args):
    return cli.main(args)


def listed_flags(help_text: str) -> set[str]:
    return set(re.findall(r"--[a-z][a-z0-9-]*", help_text))


def test_spectrum_writes_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--n", "2", "--phi", "0:1:3", "--levels", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# command=spectrum")
    assert "n=2" in lines[0]
    assert "threads" not in lines[0]
    assert lines[1] == "phi,level,energy"
    assert len(lines) == 2 + 3 * 2


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["spectrum", "--phi", "0", "--levels", "1"]) == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_single_value_grid(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(["spectrum", "--phi", "3.14", "--levels", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 1
    assert rows[0].startswith("3.14,0,")


def test_exclusive_interaction_flags(tmp_path, capsys):
    assert run_cli(["spectrum", "--u", "0.3", "--u-over-j", "0.1", "--phi", "0"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_catscan_accepts_negative_grid_start(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["catscan", "--n", "2", "--dphi", "-0.1:0.1:3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 3


def test_near_resonant_equal_bond_catscan_point_takes_the_dense_route(tmp_path, monkeypatch):
    """At N = 3, U = 0 and dphi = 6.5 an eliminated level meets the working
    energy: that point is solved densely with a nan analytic ratio, as with
    unequal bonds.  The point is eliminated only in the scan's one batch, never
    again on its own."""
    batches, eliminate = [], effective._PairElimination.eliminate

    def counted(pair, diagonals, *weights):
        batches.append(len(diagonals))
        return eliminate(pair, diagonals, *weights)

    monkeypatch.setattr(effective._PairElimination, "eliminate", counted)
    out = tmp_path / "c.csv"
    assert run_cli(["catscan", "--n", "3", "--u", "0", "--dphi", "0.1:6.5:2", "--out", str(out)]) == 0
    off, resonant = (row.split(",") for row in out.read_text().splitlines()[2:])
    assert off[-1] != "nan" and batches == [2]
    metrics = ground_cat_metrics(ModelParams(n=3, u=0.0), 6.5)
    assert metrics.a0 == metrics.a1 == 0
    assert resonant[2:] == ["6.5", "0", "0", "0", "0", "nan", "0", "nan"]


def test_effective_with_unequal_tunnelling_is_a_config_error(capsys):
    assert run_cli(["effective", "--j", "1,0.9,1.1", "--dphi", "0"]) == 2
    assert "equal tunnelling" in capsys.readouterr().err


def test_effective_refuses_unequal_bonds_before_any_layout(tmp_path, monkeypatch, capsys):
    """The refusal is the detuning's own, and comes before any pair is laid out for the sweep."""
    made = []
    monkeypatch.setattr(effective._PairElimination, "__init__", lambda *args: made.append(args))
    assert run_cli(["effective", "--j", "1,0.9,1.1", "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err == "ringcat: config error: the two-level detuning eps(phi) requires equal tunnelling\n"
    assert made == [] and not (tmp_path / "e.csv").exists()


def test_config_file_merging_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nlevels = 3\nphi = 0:1:2  # trailing comment\n\n")
    out = tmp_path / "merged.csv"
    assert run_cli(["spectrum", "--config", str(cfg), "--n", "2", "--out", str(out)]) == 0
    comment = out.read_text().splitlines()[0]
    assert "n=2" in comment  # flag wins
    assert "levels=3" in comment  # file applies
    assert "phi=0:1:2" in comment


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli(["spectrum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:1" in err and "bogus" in err


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("u = lots\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--phi", "0"]) == 2
    assert "'u'" in capsys.readouterr().err


def test_config_file_missing(capsys):
    assert run_cli(["spectrum", "--config", "no-such-file.cfg"]) == 2
    assert "no-such-file.cfg" in capsys.readouterr().err


def test_invalid_grid_spec(capsys):
    assert run_cli(["spectrum", "--phi", "0:1:none"]) == 2
    assert "phi" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_non_finite_grid_is_a_config_error(command, tmp_path, capsys):
    """An inf or nan start, stop or single value, or a span that overflows,
    exits 2 and names the grid."""
    key = "dphi" if "--dphi" in HELP_FLAGS[command] else "phi"
    out = tmp_path / "grid.csv"
    for value in ("inf", "-inf", "nan", "-inf:0:3", "0:inf:3", "nan:0:3", "-1e308:1e308:3"):
        assert run_cli([command, "--" + key, value, "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert f"invalid grid for '{key}'" in err and "must be finite" in err
    assert not out.exists()


def test_descending_grid_rejected(capsys):
    assert run_cli(["spectrum", "--phi", "2:1:5"]) == 2
    assert "start" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, pattern",
    [
        (["spectrum", "--n", "0", "--phi", "0"], "'n'"),
        (["spectrum", "--levels", "0", "--phi", "0"], "'levels'"),
        (["loop", "--kmax", "0", "--phi", "0"], "k_max"),
        (["paths", "--max-order", "-1"], "'max_order'"),
        (["paths", "--phi", "0:1:3"], "'paths' takes one phase, got a grid of 3"),
        (["paths", "--phi=-1:1:2"], "'paths' takes one phase, got a grid of 2"),
        (["loop", "--kmax", "2", "--levels", "9", "--phi", "0"], "n_levels must be in [1, 5] for k_max=2, got 9"),
        (["spectrum", "--n", "2", "--levels", "9", "--phi", "0"], "n_levels must be in [1, 6] for n=2, got 9"),
        (["catscan", "--dphi", "1:2"], "invalid grid for 'dphi': '1:2' (expected start:stop:count)"),
        (["catscan", "--dphi", "0:1:0"], "invalid grid for 'dphi': '0:1:0' (count must be >= 1)"),
        (["catscan", "--j", "a"], "invalid tunnelling strengths: 'a'"),
        (["catscan", "--j", "1,2"], "expected one or three tunnelling strengths, got '1,2'"),
        (["catscan", "--j", "1,inf,1"], "tunnelling strengths must be finite, got (1.0, inf, 1.0)"),
        # The bracket a_k overflows at phi = 1e300, C = (hbar^2/2m)(2pi/L)^2 at L = 1e-200.
        (["loop", "--phi", "1e300"], "the brackets a_k = C (k - phi/2pi)^2 - b/L and a_k + (b/L)(2 k_max + 1) must be finite"),
        (["loop", "--length", "1e-200"], "C = (hbar^2/2m)(2pi/L)^2 must be finite and positive, got inf"),
    ],
)
def test_range_validation(args, pattern, capsys):
    assert run_cli(args) == 2
    assert pattern in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [("n 3", "expected 'key = value', got 'n 3'"), ("n =", "empty value for key 'n'")],
)
def test_malformed_config_line_exits_2_with_its_message(line, message, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert run_cli(["catscan", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == f"ringcat: config error: {config}:1: {message}\n"


def test_paths_takes_one_phase_from_a_config_file_or_a_one_point_grid(tmp_path, capsys):
    config = tmp_path / "p.cfg"
    config.write_text("phi = 0:1:3\n")
    assert run_cli(["paths", "--config", str(config), "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == "ringcat: config error: 'paths' takes one phase, got a grid of 3\n"
    assert run_cli(["paths", "--phi", "0:1:1", "--out", str(tmp_path / "p.csv")]) == 0
    assert run_cli(["paths", "--phi", "0", "--out", str(tmp_path / "q.csv")]) == 0
    assert (tmp_path / "p.csv").read_text().splitlines()[2:] == (tmp_path / "q.csv").read_text().splitlines()[2:]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3", "--phi", "0:1:2"],
        ["catscan", "--n", "3", "--dphi", "0:0.1:2"],
        ["effective", "--n", "3", "--dphi", "0:0.1:2"],
        ["paths", "--n", "3"],
        ["loop", "--kmax", "4", "--phi", "0:1:2"],
    ],
)
def test_each_subcommand_writes_its_csv_through_one_table(argv, tmp_path, monkeypatch, capsys):
    written, to_csv = [], util.Table.to_csv

    def spy(table, path, comment=None):
        written.append(path)
        to_csv(table, path, comment=comment)

    monkeypatch.setattr(util.Table, "to_csv", spy)
    out = str(tmp_path / "out.csv")
    assert run_cli([*argv, "--out", out]) == 0
    assert written == [out]
    assert capsys.readouterr().out.startswith(f"ringcat {argv[0]}: wrote {out}")


def test_paths_summary_connected(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run_cli(["paths", "--n", "3", "--out", str(out)]) == 0
    assert "1 connecting path(s)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[1] == "path_index,n_intermediates,path,weight_re,weight_im"
    assert len(lines) == 3
    assert lines[2].split(",")[2] == "3-0-0>1-1-1>0-3-0"


def test_paths_summary_prints_the_normalised_path_sum(tmp_path, capsys):
    out = tmp_path / "p6.csv"
    assert run_cli(["paths", "--n", "6", "--max-order", "20", "--out", str(out)]) == 0  # all orders
    summary = capsys.readouterr().out
    normalised = summary.split("normalised path-sum coupling = ")[1].split(" ")[0]
    elimination = summary.split("elimination coupling = ")[1].split(" ")[0]
    assert normalised == elimination
    assert "raw sum -0.00177187704" in summary


def test_paths_summary_disconnected(tmp_path, capsys):
    out = tmp_path / "p4.csv"
    assert run_cli(["paths", "--n", "4", "--out", str(out)]) == 0
    assert "0 connecting path(s)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 2  # comment + header only


def test_paths_enumeration_cap_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(effective, "_MAX_PREFIXES", 100)
    assert run_cli(["paths", "--n", "9", "--max-order", "9", "--out", str(tmp_path / "p9.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "exceeds 100 path prefixes" in err and "--max-order" in err


def test_paths_with_unequal_bonds_reduces(tmp_path, capsys):
    # At 10% bond asymmetry an eliminated level lies below both targets; the
    # working energy is still the ground level of the reduced block.
    assert run_cli(["paths", "--n", "6", "--j", "1,0.9,1.1", "--out", str(tmp_path / "p6.csv")]) == 0
    out = capsys.readouterr().out
    assert "at working energy -5.3849034774" in out


def test_loop_csv(tmp_path):
    out = tmp_path / "l.csv"
    assert run_cli(["loop", "--barrier", "0.05", "--phi", "0:6.28:5", "--levels", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# command=loop")
    assert "barrier=0.05" in lines[0]
    assert lines[1] == "phi,level,energy_over_C"
    assert len(lines) == 2 + 5 * 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--phi", "nan"),
        ("--barrier", "nan"),
        ("--barrier", "inf"),
        ("--phi", "inf"),
        ("--length", "inf"),
        # finite inputs whose kinetic unit C or brackets a_k overflow
        ("--length", "1e-200"),
        ("--length", "1e200"),
        ("--phi", "1e300"),
        ("--barrier", "1e308", "--length", "1e-10"),
    ],
    ids="-".join,
)
def test_loop_rejects_non_finite_inputs_without_hanging(flags, tmp_path):
    """Each run is a child process with a timeout: a NaN bracket would keep
    the bisection from ending, and infinities would write rows of inf or nan."""
    out = tmp_path / "loop.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ringcat.cli", "loop", *flags, "--kmax", "4", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 2, proc.stderr
    assert "must be finite" in proc.stderr
    assert not out.exists()


def test_thread_count_does_not_change_output(tmp_path):
    """Each CSV row of a scan equals the row of a one-point run at that
    offset, for equal and unequal bonds."""
    dphis = ("-0.2", "-0.1", "0", "0.1", "0.2")
    for bonds in ("1", "1,0.9,1.1"):
        sweep = tmp_path / "sweep.csv"
        base = ["catscan", "--n", "3", "--j", bonds]
        assert run_cli(base + ["--dphi", "-0.2:0.2:5", "--out", str(sweep)]) == 0
        rows = sweep.read_text().splitlines()[2:]
        assert len(rows) == len(dphis)
        for dphi, row in zip(dphis, rows):
            point = tmp_path / "point.csv"
            assert run_cli(base + ["--dphi", dphi, "--out", str(point)]) == 0
            assert point.read_text().splitlines()[2:] == [row]


def test_dipolar_flags_enable_dipolar_interaction(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["spectrum", "--n", "2", "--u0", "0.3", "--u1", "0.05", "--phi", "0", "--out", str(out)]) == 0
    comment = out.read_text().splitlines()[0]
    assert "dipolar=True" in comment
    assert "u0=0.3" in comment and "u1=0.05" in comment


def test_numerical_contract_error_maps_to_exit_3(monkeypatch, capsys):
    def boom(opts):
        raise NumericalContractError("fixed point went nowhere")

    monkeypatch.setattr(cli, "run", boom)
    assert run_cli(["spectrum", "--phi", "0"]) == 3
    assert "numerical contract" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code",
    [
        # the kinetic diagonal overflows to inf
        ("catscan --n 3 --j 1e308", 3),
        ("spectrum --n 3 --j 1e308", 3),
        # |v01| ~ 1e200: the two-level branch must not square it
        ("catscan --n 3 --u 1e200", 0),
        ("effective --n 3 --u 1e200", 0),
        # a path weight, the product of two couplings ~ 1e300, overflows
        ("paths --n 3 --u 1e300", 3),
    ],
)
def test_overflowing_ring_inputs_end_in_a_contract_error_or_finite_rows(command, code, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli([*command.split(), "--out", str(out)]) == code
    if code == 3:
        assert "numerical contract violation" in capsys.readouterr().err
    else:
        assert "nan" not in out.read_text()


@pytest.mark.parametrize(
    "command, flags, terms",
    [
        ("catscan", "--j 1e308", "bonds (1e+308, 1e+308, 1e+308)"),
        ("spectrum", "--j 1e308", "bonds (1e+308, 1e+308, 1e+308)"),
        ("catscan", "--u 1e308", "interaction terms"),
        ("spectrum", "--u0 1e308 --u1 1e308", "interaction terms"),
    ],
    ids=["catscan", "spectrum", "catscan-u", "spectrum-u0-u1"],
)
def test_overflowing_bonds_exit_3_before_any_arithmetic_warns(command, flags, terms, tmp_path, capsys):
    """The flow-mode bond and interaction terms are checked finite before
    they are used, so no numpy warning, raised here as an error, comes
    before the exit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--n", "3", *flags.split(), "--out", str(tmp_path / "out.csv")]) == 3
    assert f"the {terms} overflow in the flow modes at N = 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["catscan --n 7 --u0 0.1 --u1 0.05", "effective --n 5 --u0 0.1 --u1 0.05", "effective --n 5 --u -0.3"]
)
def test_split_pairs_whose_third_block_holds_the_ground_level_reduce(command, tmp_path):
    """The pair sits in two quasi-momentum blocks and, at some offsets, the
    third block holds the ground level; the elimination leaves that block out."""
    assert run_cli([*command.split(), "--out", str(tmp_path / "out.csv")]) == 0


def test_console_script_is_installed():
    exe = shutil.which("ringcat")
    if exe is None:
        pytest.skip("console script not installed in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("spectrum", "catscan", "effective", "paths", "loop"):
        assert name in proc.stdout
    for name, flags in HELP_FLAGS.items():
        proc = subprocess.run([exe, name, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert listed_flags(proc.stdout) == flags


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_options_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    assert listed_flags(capsys.readouterr().out) == HELP_FLAGS[command]


#: How each subcommand's help describes the phase option it reads.
PHASE_HELP = {
    "spectrum": "--phi PHI phase grid start:stop:count, or one value",
    "catscan": "--dphi DPHI offset-from-pi grid start:stop:count, or one value",
    "effective": "--dphi DPHI offset-from-pi grid start:stop:count, or one value",
    "paths": "--phi PHI phase twist, one value (default 3.141592653589793)",
    "loop": "--phi PHI phase grid start:stop:count, or one value",
}


@pytest.mark.parametrize("command", sorted(PHASE_HELP))
def test_help_describes_the_phase_as_the_subcommand_reads_it(command, capsys):
    """``paths`` takes one phase and exits 2 on a grid, so its help offers no grid."""
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert PHASE_HELP[command] in text and ("start:stop:count" in text) == (command != "paths")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("spectrum", "--dphi"),
        ("catscan", "--phi"),
        ("catscan", "--levels"),
        ("effective", "--phi"),
        ("effective", "--levels"),
        ("paths", "--dphi"),
        ("paths", "--levels"),
        ("loop", "--n"),
        ("loop", "--u"),
        ("loop", "--u0"),
        ("loop", "--u1"),
        ("loop", "--u-over-j"),
        ("loop", "--j"),
        ("loop", "--dphi"),
        ("loop", "--barrier-pos"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_key_of_another_subcommand(tmp_path, capsys):
    cfg = tmp_path / "other.cfg"
    cfg.write_text("dphi = 0\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--phi", "0"]) == 2
    err = capsys.readouterr().err
    assert "'dphi'" in err and "'spectrum'" in err


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (ini,) = readme_blocks("ini")
    (tmp_path / "ring.cfg").write_text(ini)
    commands = [line for block in readme_blocks("sh") for line in block.splitlines() if line.startswith("ringcat ")]
    assert len(commands) >= 6
    for line in commands:
        assert run_cli(shlex.split(line, comments=True)[1:]) == 0, line


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
