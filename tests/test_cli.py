"""Tests for the command-line interface: parsing, config files, exit codes."""

from __future__ import annotations

import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from ringcat import NumericalContractError
from ringcat import cli, effective


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


def test_effective_with_unequal_tunnelling_is_a_config_error(capsys):
    assert run_cli(["effective", "--j", "1,0.9,1.1", "--dphi", "0"]) == 2
    assert "equal tunnelling" in capsys.readouterr().err


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
        (["loop", "--kmax", "2", "--levels", "9", "--phi", "0"], "n_levels must be in [1, 5] for k_max=2, got 9"),
        (["spectrum", "--n", "2", "--levels", "9", "--phi", "0"], "n_levels must be in [1, 6] for n=2, got 9"),
    ],
)
def test_range_validation(args, pattern, capsys):
    assert run_cli(args) == 2
    assert pattern in capsys.readouterr().err


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
