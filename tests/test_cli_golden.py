"""Golden stdout of every CLI subcommand, byte for byte.

tests/golden/cli holds one small job file per subcommand, plus one verify job
printed as CSV, and the stdout each printed when it was recorded (numpy 2.4,
OpenBLAS, x86-64). A change that claims byte-identical output is held to these
files; a change that moves a printed value on purpose records them again and
says which values moved.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
# (case: its job file and stdout file, subcommand, extra arguments)
CASES = [
    ("adjoint", "adjoint", []),
    ("frame-bounds", "frame-bounds", []),
    ("dual-window", "dual-window", []),
    ("figa", "figa", []),
    ("gen-check", "gen-check", []),
    ("janssen", "janssen", []),
    ("spectrum", "spectrum", []),
    ("verify", "verify", []),
    ("verify-csv", "verify", ["--out", "csv"]),
]


def test_every_subcommand_has_a_golden_case():
    from heisenmod import cli

    assert {cmd for _, cmd, _ in CASES} == set(cli._COMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(case for case, _, _ in CASES)


@pytest.mark.parametrize("case, cmd, extra", CASES, ids=[case for case, _, _ in CASES])
def test_cli_stdout_matches_the_golden_file(case, cmd, extra):
    res = subprocess.run([sys.executable, "-m", "heisenmod.cli", cmd, "--spec", str(GOLDEN / f"{case}.json"),
                          *extra], capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (GOLDEN / f"{case}.stdout").read_bytes()
