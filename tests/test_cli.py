import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import glci
from glci.algebra import Arrow, Quiver, Relation, canonical_interval, i_canonical_quiver
from glci.cli import (
    build_parser,
    main,
    parse_element,
    parse_weights,
    quiver_to_dot,
    quiver_to_json,
)
from glci.grading import GroupElement, WeightSystem


def _coeff_parse(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return text


def quiver_from_json(data: dict) -> Quiver:
    """Inverse of `quiver_to_json`: the oracle its round trips are read back with."""
    vertices = tuple(
        GroupElement(tuple(v["torsion"]), v["free"]) for v in data["vertices"]
    )
    arrows = tuple(
        Arrow(a["from"], a["to"], a["label"]) for a in data["arrows"]
    )
    relations = tuple(
        Relation(
            tuple(_coeff_parse(c) for c in rel["coeffs"]),
            tuple(tuple(path) for path in rel["paths"]),
        )
        for rel in data["relations"]
    )
    return Quiver(vertices, arrows, relations)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_weights():
    assert parse_weights("2,3,5") == (2, 3, 5)
    assert parse_weights("-") == ()
    with pytest.raises(Exception):
        parse_weights("2,x")


def test_parse_element():
    ws = WeightSystem(1, (2, 3, 5))
    x = parse_element(ws, "1,2,0;-1")
    assert x.torsion == (1, 2, 0) and x.free == -1
    ws0 = WeightSystem(2, ())
    assert parse_element(ws0, "2").free == 2


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "--dim", "1", "--weights", "2,3,5")
    assert code == 0
    assert "trichotomy: Fano" in out
    assert "cm_finite: True" in out
    assert "k0_rank: 9" in out


def test_info_json(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--dim", "2", "--weights", "2,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k0_rank"] == 11
    assert payload["cm_rank"] == 0
    assert payload["frac_cy"] == "zero"


def test_coxeter_text_matches_printed_form(capsys):
    code, out, _ = run_cli(
        capsys, "coxeter", "--dim", "2", "--weights", "2,3", "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0] == "(1-t)^3 (1+t)^2 (1+t+t^2)^2 (1-t+t^2)"


def test_coxeter_matrix_check(capsys):
    code, out, _ = run_cli(
        capsys, "coxeter", "--dim", "1", "--weights", "2,3,5", "--check-matrix"
    )
    assert code == 0
    assert "matrix route agrees: True" in out


def test_coxeter_matrix_disagreement_exits_one_in_both_formats(capsys, monkeypatch):
    from glci import coxeter

    monkeypatch.setattr(coxeter, "char_poly", lambda matrix: coxeter.IntPolynomial([1]))
    args = ("coxeter", "--dim", "1", "--weights", "2,3,5", "--check-matrix")
    code, out, _ = run_cli(capsys, *args, "--format", "text")
    assert code == 1
    assert "matrix route agrees: False" in out
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 1
    assert json.loads(out)["matrix_route_agrees"] is False


@pytest.mark.parametrize(
    "argv, passed",
    [
        (("coxeter", "--check-matrix"), "matrix route agrees: True"),
        (("suite", "--only", "coxeter"), "1/1 checks passed"),
    ],
)
def test_matrix_route_reduces_each_block_once(capsys, monkeypatch, argv, passed):
    """Neither the CLI nor the suite builds the rank x rank omega matrix:
    `char_poly` sees each distinct block once, and the widths times the
    summed levels fill the rank.  At (2;5,5,5,5) the 11 subsets with
    |I| <= 2 have 3 distinct ordered weight tuples, (), (5,) and (5, 5)."""
    from glci import coxeter

    def refuse(ws):
        raise AssertionError("omega_action_matrix called")

    widths = []
    reduce_block = coxeter.char_poly

    def recording(matrix):
        widths.append(len(matrix))
        return reduce_block(matrix)

    monkeypatch.setattr(coxeter, "omega_action_matrix", refuse)
    monkeypatch.setattr(coxeter, "char_poly", recording)
    for weights, expected in (
        ((7, 11, 13), [1, 6, 10, 12, 60, 72, 120]),
        ((5, 5, 5, 5), [1, 4, 16]),
    ):
        widths.clear()
        text = ",".join(map(str, weights))
        code, out, _ = run_cli(capsys, *argv, "--dim", "2", "--weights", text)
        assert code == 0 and passed in out
        assert widths == expected
        ws = WeightSystem(2, weights)
        levels = [levels for _, levels, _ in coxeter.omega_action_blocks(ws)]
        assert sum(w * n for w, n in zip(widths, levels)) == coxeter.k0_rank(ws)


@pytest.mark.parametrize(
    "argv,passed",
    [
        (("coxeter", "--check-matrix"), "matrix route agrees: True"),
        (("suite", "--only", "coxeter"), "1/1 checks passed"),
    ],
)
def test_the_matrix_check_takes_the_product_route_from_its_caller(
    capsys, monkeypatch, argv, passed
):
    """`coxeter --check-matrix` prints the polynomial it hands to
    `matrix_route_check`, so the product route runs once per command."""
    from glci import coxeter

    real = coxeter.coxeter_polynomial
    calls = []

    def counting(ws):
        calls.append(ws)
        return real(ws)

    monkeypatch.setattr(coxeter, "coxeter_polynomial", counting)
    code, out, _ = run_cli(capsys, *argv, "--dim", "2", "--weights", "5,5,5,5")
    assert code == 0 and passed in out
    assert calls == [WeightSystem(2, (5, 5, 5, 5))]


def test_a_wrong_phi_factor_fails_the_matrix_check(capsys, monkeypatch):
    """`coxeter_polynomial` expands the phi exponents, not the `phi`
    factors, so a factor off by 1 + t leaves the full product as it was and
    only the per-block comparison catches it (the battery's named failure
    `coxeter block` in `tests/test_suite.py`)."""
    from glci import coxeter

    real = coxeter.phi

    def broken(values):
        factor = real(values)
        return factor * coxeter.IntPolynomial([1, 1]) if values == (5, 5) else factor

    monkeypatch.setattr(coxeter, "phi", broken)
    code, out, _ = run_cli(capsys, "coxeter", "--check-matrix", "-d", "2", "-w", "5,5,5,5")
    assert code == 1 and out.splitlines()[-1] == "matrix route agrees: False"


def test_mf_verify_summary(capsys):
    code, out, _ = run_cli(
        capsys, "mf", "--dim", "1", "--weights", "2,3,5", "--verify"
    )
    assert code == 0
    assert "8 factorizations, all identities verified" in out


def test_mf_requires_hypersurface(capsys):
    code, _, err = run_cli(capsys, "mf", "--dim", "2", "--weights", "2,3")
    assert code == 2
    assert "error" in err


def test_atilde_text(capsys):
    code, out, _ = run_cli(capsys, "atilde", "--dim", "2", "--weights", "2,3,4")
    assert code == 0
    assert "vertices: 26" in out
    assert "cut axioms hold: True" in out


def test_atilde_dot_marks_cut_arrows(capsys):
    code, out, _ = run_cli(
        capsys, "atilde", "--dim", "1", "--weights", "-", "--format", "dot"
    )
    assert code == 0
    assert out.count("style=dashed") == 2


def test_quiver_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "quiver", "--dim", "1", "--weights", "2,3,5", "--format", "json"
    )
    assert code == 0
    ws = WeightSystem(1, (2, 3, 5))
    reference = i_canonical_quiver(ws, canonical_interval(ws))
    parsed = quiver_from_json(json.loads(out))
    assert parsed == reference


def test_quiver_round_trip_direct():
    ws = WeightSystem(1, (2, 2, 2))
    q = i_canonical_quiver(ws, canonical_interval(ws))
    assert quiver_from_json(json.loads(json.dumps(quiver_to_json(q)))) == q


def test_quiver_custom_interval(capsys):
    code, out, _ = run_cli(
        capsys,
        "quiver",
        "--dim",
        "1",
        "--weights",
        "2,3,3",
        "--interval",
        "0,0,0;0..0,1,1;0",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4


def test_quiver_bad_element_names_the_reason(capsys):
    # weight 1 is dropped, so (1;1,2,3) takes two torsion coordinates
    code, _, err = run_cli(
        capsys, "quiver", "-d", "1", "-w", "1,2,3", "--interval", "0,0,0;0..0,0,0;1"
    )
    assert code == 2
    assert "cannot parse group element" in err
    assert "expected 2 torsion coordinates, got 3" in err


@pytest.mark.parametrize("text", ["0,x;0..0,0;1", "0,0;0..0,0;1.5", "0,0;0..0.5,0;1"])
def test_quiver_non_integer_element_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "quiver", "-d", "1", "-w", "2,3", "--interval", text)
    assert (code, out) == (2, "")
    assert "cannot parse group element" in err


def test_mf_bad_ell_names_the_flag_and_text(capsys):
    code, out, err = run_cli(capsys, "mf", "-d", "1", "-w", "2,3,5", "--ell", "1,x,2")
    assert code == 2
    assert out == ""
    assert err == (
        "error: cannot parse --ell '1,x,2': invalid literal for int() with base 10: 'x'\n"
    )


def test_mf_ell_builds_only_the_pair_asked_for(capsys, monkeypatch):
    # all of (3;30,30,30,30,30) would be 29^5 indices
    from glci import matfac

    def refuse(ws):
        raise AssertionError("mf_enumerate called")

    monkeypatch.setattr(matfac, "mf_enumerate", refuse)
    argv = ("mf", "--verify", "--ell", "1,1,1,1,1", "-d", "3", "-w", "30,30,30,30,30")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "ell=(1, 1, 1, 1, 1) size=16 identity=True homogeneous=True minor_nonsingular=True",
        "1 factorizations, all identities verified",
    ]
    code, out, err = run_cli(capsys, "mf", "-d", "2", "-w", "2,3", "--ell", "1,1")
    assert (code, out) == (2, "")
    assert err == "error: matrix factorizations require n = d + 2\n"


def test_quiver_cm_interval_empty_is_ok(capsys):
    code, out, _ = run_cli(
        capsys, "quiver", "--dim", "2", "--weights", "2,3,4", "--interval", "cm", "--format", "dot"
    )
    assert code == 0
    assert "digraph" in out


def test_enumerate_text(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--dim", "2", "-n", "6", "--class", "calabiyau"
    )
    assert code == 0
    assert "(2,2,2,2,2,2)" in out


def test_deterministic_output(capsys):
    args = ("info", "--dim", "2", "--weights", "2,2,3,4", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("quiver", "--dim", "1", "--weights", "2,3,5", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_one_parser_serves_every_call_in_a_process(capsys):
    assert build_parser() is build_parser()
    info = ("info", "--dim", "2", "--weights", "2,2,3,4", "--format", "json")
    code, first, _ = run_cli(capsys, *info)
    assert code == 0
    code, out, _ = run_cli(capsys, "suite", "--only", "mf", "-d", "2", "-w", "2,2,3,4")
    assert code == 0 and out.endswith("1/1 checks passed\n")
    code, _, _ = run_cli(capsys, "info", "--dim", "1", "--weights", "2,zz")
    assert code == 2
    with pytest.raises(SystemExit):
        main(["info", "--dim", "one"])
    capsys.readouterr()
    code, last, _ = run_cli(capsys, *info)
    assert code == 0 and last == first


def test_invalid_weights_exit_code(capsys):
    code, _, err = run_cli(capsys, "info", "--dim", "1", "--weights", "2,zz")
    assert code == 2
    for weights in ("2,0,3", "-1"):
        code, out, err = run_cli(capsys, "info", "--dim", "1", "--weights", weights)
        assert code == 2 and out == "" and err.startswith("error: weights must be >= 1")


def test_invariant_failure_exit_code(capsys, monkeypatch):
    from glci import classify

    def broken(*sizes_and_cosets):
        raise AssertionError("rank difference 1 != expected 0")

    monkeypatch.setattr(classify, "_orlov_delta", broken)
    code, out, err = run_cli(capsys, "info", "--dim", "1", "--weights", "2,3,5")
    assert code == 1
    assert out == ""
    assert err == "error: invariant failed: rank difference 1 != expected 0\n"


def test_suite_reports_a_failed_invariant_as_its_check(capsys, monkeypatch):
    from glci import algebra

    real = algebra.structure_constants

    def broken(ws, elements):
        if ws == WeightSystem(1, (2, 2, 2)):
            raise AssertionError("basis size disagrees with the Cartan count")
        return real(ws, elements)

    monkeypatch.setattr(algebra, "structure_constants", broken)
    code, out, err = run_cli(capsys, "suite", "--only", "gldim")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert len(lines) == 8 and lines[-1] == "6/7 checks passed"
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL  global_dimension  (d=1; 2,2,2)  -- basis size disagrees with the Cartan count"
    ]


def test_suite_filter(capsys):
    code, out, _ = run_cli(capsys, "suite", "--only", "gldim")
    assert code == 0
    assert "PASS" in out and "checks passed" in out


def test_suite_narrowed_to_one_system(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--only", "mf", "--dim", "2", "--weights", "2,2,3,4"
    )
    assert code == 0
    assert "6 factorizations verified" in out
    assert "1/1 checks passed" in out


def test_suite_on_weight_one_hyperplanes_checks_the_kept_system(capsys):
    # the labels name the system that was checked, (d=1; 2,3)
    code, out, _ = run_cli(capsys, "suite", "-d", "1", "-w", "1,2,3")
    assert (code, out) == run_cli(capsys, "suite", "-d", "1", "-w", "2,3")[:2]
    assert code == 0 and "(d=1; 2,3)" in out


def test_suite_only_matching_no_battery_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "suite", "--only", "nosuch")
    assert code == 2
    assert out == ""
    assert "'nosuch' matches no battery" in err and "gldim" in err
    # a narrowed run whose precondition fails is still an empty pass
    code, out, _ = run_cli(capsys, "suite", "--only", "mf", "-d", "2", "-w", "2,3")
    assert code == 0
    assert out == "0/0 checks passed\n"


def test_suite_size_caps_choose_only_default_systems(capsys):
    # both systems lie above the default-grid caps (Grothendieck rank 30 for
    # quivers, weight product 60 for piece dimensions); named, they are checked
    for argv in (
        ("--only", "quiver", "-d", "2", "-w", "2,2,3,4"),
        ("--only", "piece", "-d", "1", "-w", "5,5,5"),
    ):
        code, out, _ = run_cli(capsys, "suite", *argv)
        assert code == 0
        assert out.splitlines()[-1] == "1/1 checks passed", argv


def test_suite_narrowing_needs_both_flags(capsys):
    code, _, err = run_cli(capsys, "suite", "--only", "mf", "--dim", "2")
    assert code == 2
    assert "error" in err


def test_cm_cube_dot_export(capsys):
    code, out, _ = run_cli(
        capsys, "quiver", "--dim", "1", "--weights", "3,3,3",
        "--interval", "cm", "--format", "dot",
    )
    assert code == 0
    assert out.count("[label=") - out.count("->") == 8  # 8 vertices
    assert out.count("->") == 12  # edges of the commuting cube


def test_dot_export_plain_quiver():
    ws = WeightSystem(1, ())
    q = i_canonical_quiver(ws, canonical_interval(ws))
    dot = quiver_to_dot(q)
    assert dot.startswith("digraph") and dot.count("->") == 2


# The import model: `import glci` runs no module, and each command loads only
# what it uses.  Checked in a fresh interpreter, since this one has loaded all.
SRC = Path(__file__).resolve().parents[1] / "src"
CLI = {"glci", "glci.cli", "glci.grading", "glci.linalg"}
REPORTS = CLI | {"glci.classify", "glci.algebra", "glci.coxeter"}


def _modules_loaded_by(code):
    script = "\n".join(
        [
            "import contextlib, io, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            code,
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'glci'))",
        ]
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _command(*argv):
    return (
        "from glci import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0"
    )


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import glci", {"glci"}),
        ("import glci.cli", CLI),
        (_command("info", "-d", "2", "-w", "7,11,13"), REPORTS),
        (_command("enumerate", "-d", "1", "-n", "3", "--class", "fano"), REPORTS),
        (_command("coxeter", "-d", "2", "-w", "2,3,5"), CLI | {"glci.coxeter"}),
        (_command("quiver", "-d", "1", "-w", "2,3"), CLI | {"glci.algebra"}),
        (_command("mf", "-d", "1", "-w", "2,3,5", "--ell", "1,1,1"), CLI | {"glci.matfac"}),
        (_command("atilde", "-d", "1", "-w", "2,3"), CLI | {"glci.algebra", "glci.atilde"}),
    ],
    ids=["glci", "glci.cli", "info", "enumerate", "coxeter", "quiver", "mf", "atilde"],
)
def test_each_command_loads_only_the_modules_it_uses(code, loaded):
    assert _modules_loaded_by(code) == loaded


EXPORTS = [
    "ClassificationReport", "GradedMatrixPair", "GroupElement", "IntPolynomial", "MFIndex",
    "MultiPoly", "OrbitQuiverWithCut", "Quiver", "StructureAlgebra", "Trichotomy",
    "WeightSystem", "add", "algebra", "atilde", "atilde_presentation", "canonical_interval",
    "canonical_interval_size", "cartan_matrix", "char_poly", "classification_report",
    "classify", "cm_finite", "cm_interval", "cm_interval_size", "cm_tensor_check",
    "coset_data_mod_omega", "coxeter", "coxeter_polynomial", "d_cm_finite_sufficient",
    "enumerate_weight_systems", "frac_cy", "gldim_canonical", "global_dimension", "grading",
    "hom_ext_dim", "i_canonical_quiver", "interval", "interval_size", "k0_rank",
    "knoerrer_partner", "leq", "linalg", "main2_slice", "matfac", "mf_build", "mf_enumerate",
    "mf_minor_nonsingular", "mf_verify", "negate", "normal_form", "omega",
    "omega_action_matrix", "orlov_rank_delta", "phi", "piece_dim", "smith_normal_form",
    "structure_constants", "trichotomy", "vb_finite", "verify_cut",
]


def test_the_package_exports_the_same_names():
    assert glci.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_module_binding(name):
    value = getattr(glci, name)
    if name in {"algebra", "atilde", "classify", "coxeter", "grading", "linalg", "matfac"}:
        assert value is importlib.import_module(f"glci.{name}")
    else:
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert vars(glci)[name] is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from glci import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        glci.__getattr__("no_such_name")


def _info_in_fresh_interpreter(*args):
    """(exit code, stdout, seconds) of `glci info` run as its own process."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "glci.cli", "info", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return done.returncode, done.stdout, time.perf_counter() - start


# sha256 of the text output of `glci info` on systems whose subset loop or
# Smith normal form took seconds before the closed forms, recorded from that
# enumerating implementation
INFO_WITNESSES = {
    (10, (2,) * 24): "8e5ad5591084c044a5dbddea18cc4312f0c51815c1e278a502e88eb4a59adc07",
    (12, (2,) * 24): "0235f48332e9a976e1af882f37b4a19bc0b473833cdb8aec5f4629cddca34496",
    (2, tuple(2 + i % 7 for i in range(400))): (
        "04d42a3d779cde855edae6250b786e9534e1bfc7afd98d3eef9649458c6715c8"
    ),
}


@pytest.mark.parametrize(
    "d, weights", list(INFO_WITNESSES), ids=["10;2^24", "12;2^24", "2;400 weights"]
)
def test_info_witness_runs_in_a_second_with_the_recorded_output(d, weights):
    code, out, seconds = _info_in_fresh_interpreter(
        "-d", str(d), "-w", ",".join(map(str, weights))
    )
    assert code == 0 and seconds < 1, (code, seconds)
    assert hashlib.sha256(out).hexdigest() == INFO_WITNESSES[d, weights]


def test_info_on_thirty_weights_three_runs_in_a_second():
    code, out, seconds = _info_in_fresh_interpreter(
        "-d", "14", "-w", ",".join(["3"] * 30), "--format", "json"
    )
    assert code == 0 and seconds < 1, (code, seconds)
    expected = sum((15 - k) * math.comb(30, k) * 2**k for k in range(15))
    assert json.loads(out)["k0_rank"] == expected
