"""Byte-identical CLI output: the SHA-256 of each command's stdout must equal
the digest recorded for it in benchmarks/digests.json."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supersdet import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "benchmarks" / "digests.json"

# kept here rather than split from the digest keys: one --class argument has spaces
COMMANDS = [
    ["verify"],
    ["verify", "--suite", "grassmann"],
    ["verify", "--suite", "susy"],
    ["verify", "--suite", "series"],
    ["verify", "--suite", "zeta"],
    ["lpoly", "--k", "6"],
    ["lgenus", "--manifold", "cp2"],
    ["lgenus", "--manifold", "cp4"],
    ["lgenus", "--manifold", "hp2"],
    ["lgenus", "--manifold", "k3"],
    ["lgenus", "--manifold", "cp2xcp2"],
    ["lgenus", "--manifold", "k3xcp2"],
    ["pushforward", "--manifold", "cp2", "--class", "1"],
    ["pushforward", "--manifold", "cp2", "--class", "2*h^2"],
    ["pushforward", "--manifold", "cp4", "--class", "1"],
    ["pushforward", "--manifold", "cp4", "--class", "h^2"],
    ["pushforward", "--manifold", "hp2", "--class", "1"],
    ["pushforward", "--manifold", "hp2", "--class", "u"],
    ["pushforward", "--manifold", "k3", "--class", "1"],
    ["pushforward", "--manifold", "k3", "--class", "3*v"],
    ["pushforward", "--manifold", "cp2xcp2", "--class", "1"],
    ["pushforward", "--manifold", "cp2xcp2", "--class", "h1^2 + h2^2"],
    ["sdet", "--n", "1", "--k", "4"],
    ["sdet", "--n", "1", "--k", "8"],
    ["sdet", "--n", "4", "--k", "4"],
    ["sdet", "--n", "4", "--k", "8"],
    ["sdet", "--n", "4", "--mode", "concrete"],
    ["sdet", "--n", "4", "--mode", "concrete", "--pp"],
    ["zeta", "--what", "product", "--n", "2"],
    ["zeta", "--what", "trace", "--k", "1", "--bc", "antiperiodic"],
    ["zeta", "--what", "trace", "--k", "1", "--bc", "periodic"],
]


@pytest.fixture(scope="module")
def digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_recorded_digest(argv, digests, capsys):
    argv = argv + ["--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests["cli_batch:" + " ".join(argv)]


def test_every_recorded_command_is_checked(digests):
    recorded = {key for key in digests if key.startswith("cli_batch:")}
    assert recorded == {"cli_batch:" + " ".join(argv + ["--format", "json"]) for argv in COMMANDS}


def test_verify_digest_holds_under_optimize(digests):
    # python -O strips assert statements: no check may depend on one
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-m", "supersdet.cli", "verify", "--format", "json"],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digests["cli_batch:verify --format json"]
