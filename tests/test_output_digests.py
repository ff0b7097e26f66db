"""Byte-identity of CLI outputs as a test: each command's stdout has a
recorded sha256 and exit code in `output_digests.txt`.

A change that means to alter an output regenerates that command's line and
says why; every other line must keep matching.  To print the lines for the
source tree on PYTHONPATH:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from glci.cli import main

DIGESTS = Path(__file__).with_name("output_digests.txt")

# The four `mf --verify` and `suite --only gldim` systems of the verify workload.
MF_SYSTEMS = ("3 3,3,4,4,5", "2 4,5,5,5", "3 2,3,3,3,4", "3 3,3,3,3,3")
GLDIM_SYSTEMS = ("3 2,2,2,2,2", "3 2,3,3", "3 2,2,2,3", "3 2,2,2,2")


def _system_args(system: str) -> list[str]:
    d, weights = system.split()
    return ["-d", d, "-w", weights]


COMMANDS: tuple[tuple[str, ...], ...] = (
    *(("mf", "--verify", *_system_args(s)) for s in MF_SYSTEMS),
    *(("mf", "--verify", "--format", "json", *_system_args(s)) for s in MF_SYSTEMS),
    ("suite", "--only", "gldim"),
    *(("suite", "--only", "gldim", *_system_args(s)) for s in GLDIM_SYSTEMS),
)


def digest_line(argv: tuple[str, ...]) -> str:
    """`<sha256 of stdout> <exit code> <argv>` for one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{sha} {code} {' '.join(argv)}"


def recorded() -> dict[str, str]:
    """The recorded lines keyed by argv; `#` lines are comments."""
    lines = [
        line for line in DIGESTS.read_text().splitlines() if line and not line.startswith("#")
    ]
    return {line.split(" ", 2)[2]: line for line in lines}


def test_every_command_has_one_recorded_digest():
    assert sorted(recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_its_recorded_digest(argv):
    assert digest_line(argv) == recorded()[" ".join(argv)]


if __name__ == "__main__":
    for argv in COMMANDS:
        print(digest_line(argv))
