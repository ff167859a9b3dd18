"""The scripts under scripts/ drive the command-line front end; every
argument list they pass must parse."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkseg
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


def test_paper_size_measurement_runs_small():
    """At 24x24 the paper-size script prints one JSON line per case, each
    with its stage times and peak memory, and conjugate gradients' report
    where they run (alpha 0.99)."""
    env = dict(os.environ, PYTHONPATH=str(Path(walkseg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "measure_paper_size.py"),
         "--size", "24x24"], check=True, stdout=subprocess.PIPE, text=True,
        env=env, timeout=120).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["case"] for line in lines] == [
        "labels", "probs", "alpha", "oracle"]
    for line in lines:
        assert line["size"] == "24x24" and line["ru_maxrss_mb"] > 0
        assert set(line["stages_s"]) == {
            "features", "pattern", "affinities", "transition", "solve"}
        assert 0 < line["stages_s"]["solve"] <= line["total_s"]
        assert ("cg" in line) == (line["alpha"] == 0.99)
    assert lines[0]["labels_sha256"] == lines[1]["labels_sha256"]
    assert lines[2]["cg"]["tiles"] == lines[3]["cg"]["tiles"] == 36
    assert lines[3]["stages_s"]["features"] == 0.0
