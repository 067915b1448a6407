import ast
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slicekit import parse_instance
from slicekit.analysis import enumerate_achievable_r
from slicekit.cli import _check_printable, main, render_grid
from slicekit.report import data_section, parse_rational
from slicekit.errors import InvalidDocument, NotPlanar

from conftest import load
from test_references import _pairs_exact_card

FIXTURES = Path(__file__).resolve().parent.parent / "instances"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_outputs_report(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURES / "cantor_diff.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["covering"] is True
    assert doc["data"]["xi"] == [-3, -2, 1, 2]
    assert doc["data"]["M"]["rho"] == {"lower": "2", "upper": "2", "decimal": "2.0"}
    assert "meta" in doc


def test_analyze_reproducible(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", str(FIXTURES / "cantor_diff.json"), "--out", str(out1)]) == 0
    assert main(["analyze", str(FIXTURES / "cantor_diff.json"), "--out", str(out2)]) == 0
    assert data_section(out1.read_text()) == data_section(out2.read_text())
    assert out1.read_text() != "" and "meta" in json.loads(out1.read_text())


def test_check_human_and_json(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "no_cover.json")
    assert code == 0
    assert "covering: False" in out
    code, out, _ = run(capsys, "check", FIXTURES / "no_cover.json", "--json")
    assert json.loads(out)["covering"] is False


def test_count_exit_codes(capsys):
    code, out, _ = run(capsys, "count", FIXTURES / "cantor_diff.json", "--x", "1/3")
    assert code == 0
    assert json.loads(out) == {
        "count": 3,
        "depth_reached": 2,
        "verdict": "Finite",
        "x": "1/3",
    }
    # budget cap surfaces as exit 3
    code, out, _ = run(
        capsys,
        "count",
        FIXTURES / "cantor_diff.json",
        "--x",
        "1/4",
        "--max-depth",
        "1",
        "--budget",
        "1",
    )
    assert code == 3
    # precondition violations exit 2
    code, _, err = run(capsys, "count", FIXTURES / "base7_double.json", "--x", "1/3")
    assert code == 2 and "error" in err


def test_count_explain(capsys):
    """--explain adds the cycle certificate, null on a budget cut, and
    leaves the output without it as it was."""
    path = FIXTURES / "cantor_diff.json"
    code, plain, _ = run(capsys, "count", path, "--x", "1/3")
    assert code == 0
    assert plain == (
        '{\n  "count": 3,\n  "depth_reached": 2,\n  "verdict": "Finite",\n  "x": "1/3"\n}\n'
    )
    code, out, _ = run(capsys, "count", path, "--x", "1/3", "--explain")
    assert code == 0
    assert json.loads(out) == {
        **json.loads(plain),
        "certificate": {
            "start_depth": 1,
            "period": 1,
            "cardinality_before": 3,
            "cardinality_after": 3,
        },
    }
    code, out, _ = run(capsys, "count", path, "--x", "1/4", "--explain")
    assert code == 0
    assert json.loads(out)["verdict"] == "Infinite"
    assert json.loads(out)["certificate"] == {
        "start_depth": 0,
        "period": 2,
        "cardinality_before": 1,
        "cardinality_after": 2,
    }
    code, out, _ = run(capsys, "count", path, "--x", "1/3", "--max-depth", "0", "--explain")
    assert code == 3
    assert json.loads(out) == {
        "certificate": None,
        "count": 1,
        "depth_reached": 0,
        "verdict": "ExceedsBudget",
        "x": "1/3",
    }


def test_oracle_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        FIXTURES / "cantor_diff.json",
        "--x",
        "1/3",
        "--depth",
        "2",
        "--solutions",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert len(doc["chains"]) == 3


def test_oracle_deeper_than_the_recursion_limit(capsys):
    # the count at depth k is 2**(k/3); the oracle once recursed per digit
    # and died with RecursionError past depth ~1000
    code, out, _ = run(
        capsys, "oracle", FIXTURES / "cantor_diff.json", "--x", "1/7", "--depth", "3000"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2**1000


def test_oracle_count_past_the_int_printing_limit(capsys):
    """A count of more decimal digits than Python writes out as text, 4300
    by default, is refused with TooLarge, exit 3, where printing it raised
    ValueError, exit 4; a count just below the limit prints.  On
    cantor_diff the count of 1/7 at depth 3k is 2**k, of 4215 digits at
    k = 14000 and 4516 at k = 15000."""
    assert sys.get_int_max_str_digits() == 4300
    code, out, _ = run(
        capsys, "oracle", FIXTURES / "cantor_diff.json", "--x", "1/7", "--depth", "42000"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2**14000
    code, out, err = run(
        capsys, "oracle", FIXTURES / "cantor_diff.json", "--x", "1/7", "--depth", "45000"
    )
    assert (code, out) == (3, "")
    assert "more than 4300 decimal digits" in err


def test_enumerate_and_dim_ur(capsys):
    code, out, _ = run(capsys, "enumerate-r", FIXTURES / "cantor_diff.json", "--max-r", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["achievable"] == [1, 2, 4]
    assert doc["statuses"]["3"] == "OnlyOnCountableSet"

    code, out, _ = run(capsys, "dim-ur", FIXTURES / "cantor_diff.json", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["measure_class"] == "Infinite"

    code, _, _ = run(capsys, "dim-ur", FIXTURES / "cantor_diff.json", "--r", "5")
    assert code == 2


@pytest.mark.parametrize("name", ["cantor_diff", "cantor_double_diff", "cantor_sum"])
@pytest.mark.parametrize("max_r", [6, 30])
def test_enumerate_lists_only_stored_statuses(capsys, name, max_r):
    """``enumerate-r`` lists exactly the r whose status is not
    NotReachable, and ``achievable`` lists every achievable r."""
    code, out, _ = run(capsys, "enumerate-r", FIXTURES / f"{name}.json", "--max-r", max_r)
    assert code == 0
    doc = json.loads(out)
    search = enumerate_achievable_r(load(name), max_r)
    statuses = [search.status(r).status for r in range(1, max_r + 1)]
    assert doc["statuses"] == {
        str(r): status for r, status in enumerate(statuses, 1) if status != "NotReachable"
    }
    assert doc["achievable"] == [r for r, s in enumerate(statuses, 1) if s == "Achievable"]
    powers = [r for r in (1, 2, 4, 8, 16) if r <= max_r]
    assert doc["achievable"] == (
        list(range(1, max_r + 1)) if name == "cantor_double_diff" else powers
    )


def test_witness_subcommand(capsys):
    code, out, _ = run(capsys, "witness", FIXTURES / "cantor_diff.json", "--r", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1/6"


def test_lyapunov_subcommand(capsys):
    args = [
        "lyapunov",
        str(FIXTURES / "full_interval.json"),
        "--samples",
        "50",
        "--depth",
        "20",
        "--seed",
        "3",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["estimate"] == "0.0"


def test_lyapunov_refuses_oversized_runs(capsys):
    """A depth past 2**16 or more than 2**24 samples is a resource cap,
    exit 3, refused before numpy allocates the digits or the per-sample
    array; the largest depth still runs."""
    instance = FIXTURES / "cantor_diff.json"
    for samples, depth in ((10, 10**10), (10, 2**16 + 1), (2**24 + 1, 1)):
        code, out, err = run(capsys, "lyapunov", instance, "--samples", samples, "--depth", depth)
        assert (code, out) == (3, ""), (samples, depth)
        assert f"need depth <= 2**16, samples <= 2**24; got {depth}, {samples}" in err
    code, out, _ = run(capsys, "lyapunov", instance, "--samples", 1, "--depth", 2**16)
    assert code == 0 and json.loads(out)["depth"] == 2**16


def test_usage_errors(capsys):
    code, _, err = run(capsys, "count", FIXTURES / "cantor_diff.json")
    assert code == 1  # missing --x
    code, _, err = run(capsys, "analyze", FIXTURES / "missing.json")
    assert code == 1
    code, _, err = run(capsys, "render", FIXTURES / "full_interval.json")
    assert code == 1 and "l=2" in err
    # analyze counts at its --max-r and takes no budget
    code, out, err = run(capsys, "analyze", FIXTURES / "cantor_diff.json", "--budget", "1")
    assert (code, out) == (1, "") and "--budget" in err
    # a multiplicity range below 1 is a precondition, not an internal
    # error, and is checked before the instance's hypotheses
    for argv, message in (
        (("analyze", "cantor_diff", "--max-r", "0"), "max_r must be >= 1"),
        (("enumerate-r", "cantor_diff", "--max-r", "0"), "max_r must be >= 1"),
        (("analyze", "base7_double", "--max-r", "0"), "max_r must be >= 1"),
        (("enumerate-r", "base7_double", "--max-r", "0"), "max_r must be >= 1"),
        (("dim-ur", "cantor_diff", "--r", "0"), "--r must be >= 1"),
        (("dim-ur", "base7_double", "--r", "0"), "--r must be >= 1"),
        (("witness", "cantor_diff", "--r", "0"), "--r must be >= 1"),
        (("witness", "base7_double", "--r", "0"), "--r must be >= 1"),
        (("render", "cantor_diff", "--depth", "-1"), "depth must be >= 0"),
        (("oracle", "cantor_diff", "--x", "1/7", "--depth", "-1"), "depth must be >= 0"),
    ):
        command, name, *flags = argv
        code, out, err = run(capsys, command, FIXTURES / f"{name}.json", *flags)
        assert (code, out) == (2, "") and message in err, argv
    # a multiplicity range past the vector cap is a resource cap (exit 3),
    # also checked before the instance's hypotheses
    for name in ("cantor_diff", "base7_double"):
        instance = FIXTURES / f"{name}.json"
        code, out, err = run(capsys, "enumerate-r", instance, "--max-r", "10000000")
        assert (code, out) == (3, "") and "max_r must be <= 1048576" in err, name
    # so are counting limits below their range: not a resource cap (exit 3)
    for flags, message in (
        (("--max-depth", "-5"), "max_depth must be >= 0"),
        (("--budget", "0"), "budget must be >= 1"),
        (("--budget", "-1"), "budget must be >= 1"),
    ):
        code, out, err = run(
            capsys, "count", FIXTURES / "cantor_diff.json", "--x", "1/3", *flags
        )
        assert (code, out) == (2, "") and message in err, flags


def test_parse_rational_forms():
    from fractions import Fraction

    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(InvalidDocument):
        parse_rational("0.5")


def test_render_counts(cantor_diff, base6_mixed, full_interval):
    svg = render_grid(cantor_diff, depth=1)
    assert svg.count('class="cube"') == 4
    assert sum(1 for line in svg.splitlines() if "interval-label" in line) == 6
    assert sum(1 for line in svg.splitlines() if "working-label" in line) == 2
    svg0 = render_grid(cantor_diff, depth=0)
    assert svg0.count('class="cube"') == 0
    assert "svg" in svg0
    svg4 = render_grid(base6_mixed, depth=1)
    assert svg4.count('class="cube"') == 9
    with pytest.raises(NotPlanar):
        render_grid(full_interval, depth=1)


def test_render_refuses_oversized_depths(capsys, tmp_path):
    """A depth past the render caps is TooLarge, exit 3, and the message
    names the cap: no huge cube count is formed or printed, and a one-cube
    instance does not recurse once per level."""
    one_cube = tmp_path / "one_cube.json"
    one_cube.write_text('{"n": 3, "digit_sets": [[1], [1]], "coefficients": [1, -1]}')
    cantor_diff = FIXTURES / "cantor_diff.json"
    for instance, depth, message in (
        (cantor_diff, 7, "more than 4096 cubes"),
        (cantor_diff, 30000000, "depth must be <= 12"),
        (cantor_diff, 10000000000, "depth must be <= 12"),
        (one_cube, 13, "depth must be <= 12"),
        (one_cube, 5000, "depth must be <= 12"),
    ):
        code, out, err = run(capsys, "render", instance, "--depth", depth)
        assert (code, out) == (3, "") and message in err, (instance.name, depth)
    # the deepest allowed renders still draw their cubes
    for instance, depth, cubes in ((cantor_diff, 6, 4**6), (one_cube, 12, 1)):
        code, out, _ = run(capsys, "render", instance, "--depth", depth)
        assert code == 0 and out.count('class="cube"') == cubes


def test_render_deterministic(cantor_diff):
    assert render_grid(cantor_diff, depth=2) == render_grid(cantor_diff, depth=2)


def test_import_does_not_load_numpy():
    """numpy is imported by the one function that uses it, so a CLI process
    that never estimates a Lyapunov exponent does not pay for it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import slicekit, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_count_at_a_large_span_within_512_mib(tmp_path):
    """A digit table row holds one chain's children from the lowest on, so
    the table grows with the span, not with its square.  At span 20001,
    `count` answers x = 1/7 in a child process under 512 MiB of address
    space and 60 s: ExceedsBudget, exit code 3, the raw pairs loop's
    result.  Rows packed at their children's absolute fields end in a
    MemoryError (exit 4) there."""
    doc = tmp_path / "span20001.json"
    doc.write_text('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10000, 10001]}')
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "slicekit", "count", str(doc), "--x", "1/7"],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    expected = _pairs_exact_card(parse_instance(doc.read_text()), Fraction(1, 7))
    assert expected.verdict == "ExceedsBudget"
    assert json.loads(proc.stdout) == {
        "count": expected.count,
        "depth_reached": expected.depth_reached,
        "verdict": expected.verdict,
        "x": "1/7",
    }


def test_dim_u1_at_a_large_span_within_512_mib(tmp_path):
    """The restricted graph is built from its successor lists, one
    ``aligned`` call per uniquely covered interval, and its 0-1 matrix is
    formed only where it is printed.  At span 20001, `dim-u1` answers in a
    child process under 512 MiB of address space and 60 s, exit code 0;
    a graph built cell by cell on the |xi| x |xi| matrix ends in a
    MemoryError (exit 4) or the timeout there."""
    doc = tmp_path / "span20001.json"
    doc.write_text('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10000, 10001]}')
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "slicekit", "dim-u1", str(doc)],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["dim_exact"] is True and report["measure_class"] == "PositiveFinite"


def test_matrix_and_oracle_caps_refuse_before_allocating(tmp_path, capsys):
    """T has n * span**2 entries and M |xi|**2; `matrices` and `analyze`
    refuse more than 2^22 of them together before they form either matrix
    or search: span 2001 on T alone, span 1001 once |xi| is read, while
    span 601 fits.  The oracle refuses a memo, a chain list or a cube list
    it cannot hold before it allocates.  Each refusal is TooLarge, exit 3,
    with nothing on stdout."""

    def document(name, digit_sets, coefficients):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"n": 3, "digit_sets": digit_sets, "coefficients": coefficients}
        ))
        return path

    def spanning(c):
        return document(f"span{2 * c + 1}", [[0, 2], [0, 2]], [-c, c + 1])

    assert _check_printable(parse_instance(spanning(300).read_text())) is None
    many = document("factors24", [[0, 2]] * 24, [1, -1] * 12)
    for argv, message in (
        (("matrices", spanning(1000)), "T and M hold more than 4194304 entries"),
        (("analyze", spanning(1000)), "T and M hold more than 4194304 entries"),
        (("matrices", spanning(500)), "T and M hold more than 4194304 entries"),
        (("analyze", spanning(500)), "T and M hold more than 4194304 entries"),
        (("oracle", spanning(1), "--x", "1/7", "--depth", "100000000"),
         "may memoise more than 262144 states"),
        (("oracle", spanning(1), "--x", "1/7", "--depth", "40", "--solutions"),
         "the surviving chains hold more than 1000000 digits"),
        (("oracle", many, "--x", "0", "--depth", "3"),
         "16777216 digit cubes per level, more than 262144"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and message in err, argv


def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch):
    # n=5, {0,2,4}^2, (2, 3) calls r=2 achievable, but every candidate loop
    # lies on the base-n grid, so no witness certifies
    doc = tmp_path / "grid_only.json"
    doc.write_text('{"n": 5, "digit_sets": [[0, 2, 4], [0, 2, 4]], "coefficients": [2, 3]}')
    code, out, err = run(capsys, "witness", doc, "--r", "2")
    assert (code, out) == (4, "")
    assert err == "slicekit: error: no witness candidate for r=2 certifies\n"
    # the report keeps the entry and leaves the witness out
    code, out, _ = run(capsys, "analyze", doc, "--max-r", "2")
    assert code == 0
    ur = json.loads(out)["data"]["ur"]
    assert ur["1"]["witness"]["verified"] and "witness" not in ur["2"]
    # any other unexpected exception is one line on stderr, exit 4

    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("slicekit.cli.build_report", broken)
    code, out, err = run(capsys, "analyze", FIXTURES / "cantor_diff.json")
    assert (code, out) == (4, "")
    assert err == "slicekit: internal error: ZeroDivisionError: division by zero\n"


def test_package_has_no_assert_statements():
    """Invariants raise typed errors; an assert would vanish under -O."""
    src = Path(__file__).resolve().parent.parent / "src" / "slicekit"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_card_results_are_dataclasses():
    """Records are named tuples: each @dataclass execs its generated
    methods at import, on every CLI start."""
    src = Path(__file__).resolve().parent.parent / "src" / "slicekit"
    found = sorted(
        node.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if "dataclass" in ast.unparse(dec)
    )
    assert found == ["CardResult", "CycleCertificate"]
