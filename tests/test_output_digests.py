"""Byte-identity of CLI outputs as a test: each command's stdout has a
recorded sha256 and exit code in `output_digests.txt`.

A change that means to alter an output regenerates that command's line and
says why; every other line must keep matching.  To print the lines for the
source tree on PYTHONPATH, with the standard library only:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

from glci.cli import main

DIGESTS = Path(__file__).with_name("output_digests.txt")

# The `coxeter --check-matrix`, `mf --verify` and `suite --only gldim` systems
# of the verify workload.
COXETER_SYSTEMS = ("2 4,4,4,4", "2 5,5,5,5", "2 3,5,7,9", "3 3,3,3,3,3", "2 7,11,13")
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
    *(("coxeter", "--check-matrix", *_system_args(s)) for s in COXETER_SYSTEMS),
    *(("coxeter", "--check-matrix", "--format", "json", *_system_args(s)) for s in COXETER_SYSTEMS),
    ("suite", "--only", "mf"),
    ("suite",),
    # Inputs with weight-1 hyperplanes, which leave R and L unchanged.
    ("info", "-d", "1", "-w", "1,2,3,5"),
    ("coxeter", "--check-matrix", "-d", "2", "-w", "1,2,3"),
    ("quiver", "-d", "1", "-w", "1,2,3", "--format", "json"),
    ("mf", "--verify", "-d", "1", "-w", "2,1,3,5"),
    ("atilde", "-d", "2", "-w", "1,3"),
    # Relation coefficients: the hypersurface relations and commutativity
    # relations of i_canonical_quiver, and the presentation of A-tilde.
    ("quiver", "-d", "1", "-w", "2,3,5"),
    ("quiver", "-d", "1", "-w", "2,3,5", "--format", "json"),
    ("quiver", "-d", "2", "-w", "2,2,3,4", "--interval", "cm", "--format", "json"),
    ("atilde", "-d", "2", "-w", "2,3,4", "--format", "json"),
    # Graphviz output, cut arrows dashed.
    ("atilde", "-d", "2", "-w", "2,3,4", "--format", "dot"),
    ("quiver", "-d", "1", "-w", "2,3,5", "--format", "dot"),
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


def pytest_generate_tests(metafunc):
    """One case per command, named by its argv: pytest's parametrize without
    importing pytest, so the printing mode below runs without it."""
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", COMMANDS, ids=" ".join)


def test_output_matches_its_recorded_digest(argv):
    assert digest_line(argv) == recorded()[" ".join(argv)]


if __name__ == "__main__":
    for argv in COMMANDS:
        print(digest_line(argv))
