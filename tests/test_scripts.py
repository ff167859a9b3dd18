"""The scripts under scripts/ drive the command-line front end; every
argument list they pass must parse."""

import importlib.util
import sys
from pathlib import Path

import pytest

from walkseg import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, commands", [
    ("run_pipeline", ["generate", "train", "infer", "eval"]),
    ("run_ablations", ["generate", "ablate", "ablate"]),
    ("run_bench", ["bench"]),
])
def test_script_flags_parse(name, commands, tmp_path, monkeypatch):
    """Each script runs with `walkseg.cli.main` replaced by a recorder
    that only parses its argument list."""
    parsed = []

    def record(argv):
        parsed.append(cli.build_parser().parse_args(argv))
        return 0

    monkeypatch.setattr(cli, "main", record)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # binds the recorder as its `cli`
    # the one held-out pair that `generate` would have listed
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "test.txt").write_text(
        "test/img000.ppm test/lab000.pgm\n")
    monkeypatch.setattr(sys, "argv", [name, str(tmp_path)])
    assert script.main() == 0
    assert [args.command for args in parsed] == commands
