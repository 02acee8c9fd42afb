"""Byte identity of the CLI's outputs and manifests.

Runs a fixed command set on the melbourne-c4 preset, with relative paths in
a temporary directory, and compares the SHA-256 of every file it writes
with ``data/melbourne_c4_cli_sha256.json``. ``correct`` is left out: the
last bits of a corrected distribution depend on the LAPACK build.
"""

import hashlib
import json
from pathlib import Path

from spamcal.cli import main

PINNED = Path(__file__).parent / "data" / "melbourne_c4_cli_sha256.json"

COMMANDS = [
    ["gen-model", "--preset", "melbourne-c4", "--out", "model.json"],
    ["estimate", "--model", "model.json", "--k", "2", "--out", "est.json",
     "--tables", "tables.json"],
    ["estimate", "--model", "model.json", "--k", "2", "--backend", "sampled",
     "--seed", "1", "--out", "est_s.json", "--tables", "tables_s.json"],
    ["calibrate-full", "--model", "model.json", "--out", "full.json", "--csv", "full.csv"],
    ["correlators", "--model", "model.json", "--out", "corr.json", "--csv", "corr.csv"],
    ["tprod", "--model", "model.json", "--out", "tprod.json"],
    ["compare", "--reference", "full.json", "--candidate", "est=est.json",
     "--candidate", "sampled=est_s.json", "--candidate", "prod=tprod.json",
     "--out", "compare.csv"],
]


def test_outputs_and_manifests_match_pinned_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert got == json.loads(PINNED.read_text())
