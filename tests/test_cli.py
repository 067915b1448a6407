import ast
import gc
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slicekit import analysis, counting, parse_instance
from slicekit.analysis import Analysis, enumerate_achievable_r
from slicekit.cli import main
from slicekit.lattice import interval_census, interval_type_counts, u_range
from slicekit.render import render_grid
from slicekit.report import _check_printable, build_report, matrices_json, parse_rational
from slicekit.errors import InvalidDocument, NotPlanar, TooLarge, UsageError

from conftest import load
from helpers import data_section
from test_analysis import _REPORTED, _spy_everywhere
from test_golden import SCALED
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


def test_negative_point_in_either_spelling(capsys):
    """``--x -1/3`` is the point -1/3, as ``--x=-1/3`` is: argparse reads
    an argument that starts with "-" as an option unless it looks like a
    negative number, and a negative p/q does."""
    path = FIXTURES / "cantor_diff.json"
    for argv in (("count", path), ("oracle", path, "--depth", "2")):
        spaced = run(capsys, *argv, "--x", "-1/3")
        assert spaced == run(capsys, *argv, "--x=-1/3")
        code, out, err = spaced
        assert (code, err) == (0, "")
        assert (json.loads(out)["x"], json.loads(out)["count"]) == ("-1/3", 3)


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


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")) + ["l3", "l4"])
def test_dim_ur_prints_the_reports_ur_fields(name, tmp_path, capsys):
    """For every r that `analyze` stores, achievable or countable,
    `dim-ur --r r` exits 0 and prints that r's ``ur`` fields: a countable
    r reads dimension 0, no candidates and no measure class, as in the
    report."""
    path = FIXTURES / f"{name}.json"
    if name in SCALED:
        path = tmp_path / f"{name}.json"
        path.write_text(SCALED[name][0])
    ur = build_report(parse_instance(path.read_text()))["data"]["ur"]
    for r, entry in ur.items():
        code, out, err = run(capsys, "dim-ur", path, "--r", r)
        assert code == 0, (r, err)
        assert json.loads(out) == {
            "r": int(r),
            "dim": {"decimal": entry["dim"]["decimal"]},
            "candidates": entry["dim"].get("candidates", []),
            "countable": entry["countable"],
            "measure_class": entry["measure_class"],
        }, r


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
        # numpy's SeedSequence would raise ValueError, an internal error
        (("lyapunov", "cantor_diff", "--seed", "-1"), "seed must be >= 0, got -1"),
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


def test_top_level_help_prints_the_exit_codes_only(capsys):
    """``slicekit --help`` describes the command line with the first
    paragraph of the ``cli`` docstring, the exit codes, and leaves out the
    implementation notes that follow it."""
    from slicekit import cli

    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    text = " ".join(out.split())
    assert (
        "Exit codes: 0 success, 1 usage / malformed input (including an --out path that "
        "cannot be written, and a stdout whose reader has gone), 2 precondition violation, "
        "3 resource cap (including counting budgets), 4 internal error (an InternalError, "
        "or any other unexpected exception, reported on one line)."
    ) in text
    assert "``" not in out
    for note in ("compiles", "_lyapunov", "main(argv)", "subparser"):
        assert note in cli.__doc__ and note not in out, note
    assert run(capsys, "-h") == (code, out, err)


def test_filtered_parser_says_what_the_full_one_says(capsys, monkeypatch):
    """``build_parser`` registers only the subparser that argv[0] names, or
    all of them when argv[0] names no command.  Each call below gives the
    same exit code, stdout and stderr as with every subparser registered:
    each command's help, the top-level help, no arguments, an unknown
    command, an option before the command, and every call that
    test_usage_errors makes."""
    from slicekit import cli

    filtered = cli.build_parser
    with pytest.raises(UsageError, match="invalid choice: 'analyze'"):
        filtered(["check", "x"]).parse_args(["analyze", "x"])

    def outcomes() -> list:
        seen = []

        def recorded(argv):
            code = cli.main(argv)
            out = capsys.readouterr()
            seen.append((argv, code, out.out, out.err))
            sys.stdout.write(out.out)  # for the caller's own capsys read
            sys.stderr.write(out.err)
            return code

        monkeypatch.setitem(globals(), "main", recorded)
        for argv in (
            *([command, "--help"] for command in cli._COMMANDS),
            ["--help"],
            [],
            ["frobnicate", "x"],
            ["--out", "o", "check", "x"],
        ):
            run(capsys, *argv)
        test_usage_errors(capsys)
        return seen

    got = outcomes()
    assert len(cli._COMMANDS) == 11 and len(got) > 15 + 11
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): filtered())
    assert outcomes() == got


def test_parse_rational_forms(capsys):
    """Only ASCII "p/q" and "k", a sign only before p, after the outer
    whitespace: int() alone would read each refused form below."""
    from fractions import Fraction

    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational(" +2\n") == Fraction(2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-7") == Fraction(-7)
    for text in ("0.5", "1_0/3", " 1 / 3", "１/３", "١/٣", "1/-3", "1/+3", "1/0", "", "/3"):
        with pytest.raises(InvalidDocument):
            parse_rational(text)
    code, out, err = run(capsys, "count", FIXTURES / "cantor_diff.json", "--x", "1/-3")
    assert (code, out) == (1, "") and "not a rational in p/q form: '1/-3'" in err


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


# Loaded on first use only: numpy and the stepping that needs it by
# lyapunov_estimate, the oracle by the `oracle` command and the package's
# oracle names, the figure code by `render`, the exact radius algebra where
# two radius enclosures overlap.
_LAZY_MODULES = (
    "numpy",
    "slicekit._lyapunov",
    "slicekit.oracle",
    "slicekit.render",
    "slicekit._sturm",
)


def _lazy_modules_loaded(code: str) -> list[str]:
    """Which of _LAZY_MODULES a fresh interpreter holds after ``code``."""
    probe = f"import sys\n{code}\nprint(*[m for m in {_LAZY_MODULES!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=FIXTURES.parent,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_does_not_load_numpy():
    """numpy, the Lyapunov stepping, the oracle, the figure code and the
    exact radius algebra are imported where they are first used, so neither
    ``import slicekit`` nor ``python -m slicekit check|count``, ``analyze``
    on any bundled instance or the benchmark's ``matrices`` calls compiles
    them, and a ``lyapunov`` seed out of range is refused before numpy and
    the stepping load."""
    assert _lazy_modules_loaded("import slicekit") == []
    bundled = sorted(path.name for path in FIXTURES.glob("*.json"))
    assert len(bundled) == 7
    for argv, want in (
        (["check", "instances/cantor_diff.json"], 0),
        (["check", "instances/cantor_diff.json", "--json"], 0),
        (["count", "instances/cantor_diff.json", "--x", "1/3"], 0),
        *((["analyze", f"instances/{name}"], 0) for name in bundled),
        (["matrices", "instances/cantor_diff.json"], 0),
        (["matrices", "instances/base7_double.json"], 0),
        (["lyapunov", "instances/cantor_diff.json", "--seed", "-1"], 2),
    ):
        code = (
            f"import runpy\nsys.argv = ['slicekit', *{argv!r}]\n"
            "try:\n    runpy.run_module('slicekit', run_name='__main__', alter_sys=True)\n"
            f"except SystemExit as exc:\n    assert exc.code == {want}, exc.code"
        )
        assert _lazy_modules_loaded(code) == [], argv


def test_lazy_names_still_resolve():
    """The oracle's names load it on first access, and ``render`` and
    ``oracle`` load what they run and nothing else."""
    code = (
        "import slicekit\n"
        "assert slicekit.brute_force_cube_count.__module__ == 'slicekit.oracle'\n"
        "assert 'brute_force_cube_count' not in vars(slicekit)\n"
        "namespace = {}\n"
        "exec('from slicekit import *', namespace)\n"
        "assert all(name in namespace for name in slicekit.__all__)"
    )
    assert _lazy_modules_loaded(code) == ["slicekit.oracle"]
    for command, loaded in (("render", "slicekit.render"), ("oracle", "slicekit.oracle")):
        argv = [command, "instances/cantor_diff.json", "--out", os.devnull]
        if command == "oracle":
            argv += ["--x", "1/3"]
        code = f"from slicekit.cli import main\nassert main({argv!r}) == 0"
        assert _lazy_modules_loaded(code) == [loaded]


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


def test_dim_ur_at_a_large_span_within_512_mib(tmp_path):
    """The decompositions keep, for each component, only the cycling
    components it reaches, and each reader of a wider reachability runs
    its own search.  At span 20001, `dim-ur --r 1` answers in a child
    process under 512 MiB of address space and 60 s, exit code 0; with a
    reach set of every component per component it ended in a MemoryError
    (exit 4) there."""
    doc = tmp_path / "span20001.json"
    doc.write_text('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10000, 10001]}')
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "slicekit", "dim-ur", str(doc), "--r", "1"],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["r"], report["countable"]) == (1, False)
    assert report["measure_class"] == "PositiveUndetermined"


def test_matrix_and_oracle_caps_refuse_before_allocating(tmp_path, capsys, monkeypatch):
    """T has n * span**2 entries and M |xi|**2; `matrices` and `analyze`
    refuse more than 2^22 of them together before they form either matrix
    or search: span 2001 on T alone, span 1001 once |xi| is read, while
    span 601 fits.  The library's ``build_report`` and ``matrices_json``
    refuse them the same way.  The oracle refuses a memo, a chain list or
    a cube list it cannot hold before it allocates.  Each refusal is
    TooLarge, exit 3, with nothing on stdout."""
    searched = []
    monkeypatch.setattr(analysis, "_reachable_vectors", lambda *args: searched.append(args))

    def document(name, digit_sets, coefficients):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"n": 3, "digit_sets": digit_sets, "coefficients": coefficients}
        ))
        return path

    def spanning(c):
        return document(f"span{2 * c + 1}", [[0, 2], [0, 2]], [-c, c + 1])

    assert _check_printable(Analysis(parse_instance(spanning(300).read_text()))) is None
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
    for c in (500, 1000):
        for build in (build_report, matrices_json):
            with pytest.raises(TooLarge, match="T and M hold more than 4194304 entries"):
                build(parse_instance(spanning(c).read_text()))
    assert searched == []


@pytest.mark.parametrize("name", _REPORTED)
@pytest.mark.parametrize("command", ["analyze", "matrices"])
def test_printing_commands_take_one_census(command, name, tmp_path, capsys, monkeypatch):
    """An `analyze` or `matrices` process types every integer interval
    once: one ``interval_census`` and n * span ``interval_type_counts``
    calls, since the guard on the printed matrices reads the context that
    forms them."""
    path = FIXTURES / f"{name}.json"
    if name in SCALED:
        path = tmp_path / f"{name}.json"
        path.write_text(SCALED[name][0])
    inst = parse_instance(path.read_text())
    census, typed = [], []
    _spy_everywhere(monkeypatch, interval_census, census)
    _spy_everywhere(monkeypatch, interval_type_counts, typed)
    code, _, err = run(capsys, command, path)
    assert code == 0, err
    assert [call[0] == inst for call in census] == [True]
    assert sorted(u for _, u in typed) == list(u_range(inst))


def test_search_refuses_an_oversized_range_before_its_closure(tmp_path, capsys, monkeypatch):
    """The search takes the interval census before its vector closure.  On
    n=3, {0,2}^2, coefficients (-10923, 10924), span 21847, the range has
    65541 integer intervals, past the cap of 65536: `enumerate-r`,
    `dim-ur` and `witness` each stop with TooLarge, exit 3, nothing on
    stdout, in a child process under 128 MiB of address space and 60 s,
    and in process without forming a vector.  With the closure first they
    ended in a MemoryError (exit 4) under that limit."""
    doc = tmp_path / "span21847.json"
    doc.write_text('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10923, 10924]}')
    message = "65541 integer intervals, more than 65536"
    commands = (
        ("enumerate-r", doc, "--max-r", "1"),
        ("enumerate-r", doc),
        ("dim-ur", doc, "--r", "1"),
        ("witness", doc, "--r", "1"),
    )
    limit = 128 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "slicekit", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), (argv, proc.stderr)
        assert message in proc.stderr, argv
    closed = []
    monkeypatch.setattr(analysis, "_reachable_vectors", lambda *args: closed.append(args))
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and message in err, argv
    assert closed == []


def test_search_records_refused_within_512_mib(tmp_path):
    """The multiplicity search counts what its vector records hold, not
    only how many there are: words grow with max_r, and these calls ran
    out of memory (exit 4) under 512 MiB of address space before 2^20
    vectors were found.  Each child now stops at the bound of 3 * 2^30
    bits, TooLarge, exit 3, within that limit and 60 s.  The last call is
    the search with the least headroom: at the interval cap's edge, span
    21845, the default max_r is refused at a peak near 450 MiB."""
    docs = {}
    for c in (1, 30, 10922):
        docs[c] = tmp_path / f"span{2 * c + 1}.json"
        docs[c].write_text(json.dumps(
            {"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-c, c + 1]}
        ))
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (
        ("dim-ur", docs[1], "--r", "1000000"),
        ("witness", docs[1], "--r", "1048576"),
        ("enumerate-r", docs[30], "--max-r", "1000"),
        ("enumerate-r", docs[10922]),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "slicekit", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), (argv, proc.stderr)
        assert "records pass 3221225472 bits" in proc.stderr, argv


def test_dense_and_interval_caps_refused_within_512_mib(tmp_path):
    """`lyapunov` forms dense float digit matrices, n * span**2 entries,
    and one block's matrices per step, block * span**2; `dim-u1` types
    every one of the range's n * span integer intervals; `count` builds a
    digit table of n * (span + 1) rows.  On n=3, {0,2}^2, coefficients
    (-c, c + 1), these calls ended in a MemoryError (exit 4) under 512 MiB
    of address space: `lyapunov` at spans 601, 2001 and 2 * 10^12 + 1,
    `dim-u1` and `count` at the last.  Each child now stops at its cap,
    TooLarge, exit 3, with nothing on stdout, within that limit and 60 s.
    The counted floats are `lyapunov`'s peak, with no int copy of the
    matrices and one block's step matrices live: runs just under the cap of
    16777216 floats (128 MiB) answer within 320 MiB, with one BLAS thread
    so that numpy's own address space does not grow with the core count,
    at span 253 with a full block (16578331 floats) and at span 2047 with
    one sample (16760836).  With two step arrays live, or the matrices
    copied as Python ints first, both ran out of that limit."""
    docs = {}
    for c in (126, 300, 1000, 1023, 10**12):
        docs[c] = tmp_path / f"span{2 * c + 1}.json"
        docs[c].write_text(json.dumps(
            {"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-c, c + 1]}
        ))
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv, message in (
        (("lyapunov", docs[300], "--samples", "1000", "--depth", "100"),
         "need 93551059 floats, more than 16777216"),
        (("lyapunov", docs[1000], "--samples", "1000000", "--depth", "1000"),
         "need 1037036259 floats, more than 16777216"),
        (("lyapunov", docs[10**12], "--samples", "10", "--depth", "10"),
         "floats, more than 16777216"),
        (("dim-u1", docs[10**12]), "6000000000003 integer intervals, more than 65536"),
        (("count", docs[10**12], "--x", "1/7"), "6000000000006 rows, more than 1048576"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "slicekit", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), (argv, proc.stderr)
        assert message in proc.stderr, argv
    limit = 320 * 2**20
    for c, samples in ((126, 256), (1023, 1)):
        assert (3 + samples) * (2 * c + 1) ** 2 <= counting._LYAPUNOV_FLOATS
        argv = ("lyapunov", docs[c], "--samples", samples, "--depth", 2)
        proc = subprocess.run(
            [sys.executable, "-m", "slicekit", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)["samples"] == samples


def test_dense_cap_counts_one_block(capsys, tmp_path, monkeypatch):
    """The float cap counts the n digit matrices and a block of
    min(samples, 256) samples, span**2 floats each: a run needing exactly
    the cap goes ahead, one float more is refused before numpy allocates,
    and fewer samples than a block need less."""
    path = tmp_path / "span9.json"
    path.write_text('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-4, 5]}')
    monkeypatch.setattr(counting, "_LYAPUNOV_FLOATS", (3 + 256) * 9**2)
    for samples, code in ((300, 0), (256, 0), (10, 0)):
        argv = ("lyapunov", path, "--samples", samples, "--depth", 2)
        assert run(capsys, *argv)[0] == code, samples
    monkeypatch.setattr(counting, "_LYAPUNOV_FLOATS", (3 + 256) * 9**2 - 1)
    code, out, err = run(capsys, "lyapunov", path, "--samples", 256, "--depth", 2)
    assert (code, out) == (3, "") and "need 20979 floats, more than 20978" in err
    assert run(capsys, "lyapunov", path, "--samples", 255, "--depth", 2)[0] == 0


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


def _process(*argv, code=None, env=None, stdout=subprocess.PIPE):
    """One child interpreter run from the repository root, ``python -m
    slicekit ARGV`` or ``python -c CODE ARGV``; stderr is captured."""
    head = ["-m", "slicekit"] if code is None else ["-c", code]
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, *head, *map(str, argv)],
        cwd=FIXTURES.parent,
        env=dict(env or os.environ, PYTHONPATH=src),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_exit_codes_through_processes(tmp_path):
    """Each documented outcome through a real ``python -m slicekit``
    process, and an ``--out`` file that holds the whole document."""
    for argv, want in (
        (("check", "instances/cantor_diff.json"), 0),
        (("check", "instances/missing.json"), 1),
        (("dim-ur", "instances/no_cover.json", "--r", "1"), 2),
        (("count", "instances/cantor_diff.json", "--x", "1/7", "--budget", "1"), 3),
    ):
        proc = _process(*argv)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "internal error" not in proc.stderr, argv
    printed = _process("matrices", "instances/base7_double.json")
    out = tmp_path / "matrices.json"
    written = _process("matrices", "instances/base7_double.json", "--out", out)
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert out.read_text(encoding="utf-8") == printed.stdout
    assert json.loads(printed.stdout)["rho"]


def test_unwritable_out_is_a_usage_error(tmp_path):
    """An ``--out`` path that cannot be written is a usage error, exit 1,
    as an instance path that cannot be read is."""
    out = tmp_path / "missing" / "out.json"
    proc = _process("check", "instances/cantor_diff.json", "--json", "--out", out)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"slicekit: error: cannot write {out}: ")
    assert not out.parent.exists()


def test_closed_stdout_exits_1_quietly():
    """A reader that closed stdout before the command wrote is exit 1 with
    nothing on stderr, whether the write itself fails (unbuffered) or the
    flush of its buffer does.  ``--help`` is written by argparse, which
    drops a write that fails: unbuffered, it exits 0, still quietly."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in (False, True):
        for argv, want in (
            (("check", "instances/cantor_diff.json"), 1),
            (("matrices", "instances/base7_double.json"), 1),
            (("--help",), 0 if unbuffered else 1),
        ):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = _process(
                    *argv,
                    env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env,
                    stdout=write,
                )
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (want, ""), (unbuffered, argv)


def test_program_entry_freezes_the_collector():
    """``python -m slicekit`` exits through ``cli.run``: the command's exit
    code, with the collector frozen so the interpreter's exit-time
    collections skip the import graph."""
    probe = (
        "import gc, runpy, sys\n"
        "try:\n    runpy.run_module('slicekit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    for argv, want in (
        (("check", "instances/cantor_diff.json"), 0),
        (("count", "instances/cantor_diff.json", "--x", "1/7", "--budget", "1"), 3),
    ):
        proc = _process(*argv, code=probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"exit {want} True\n", argv


def test_main_leaves_the_collector_alone(capsys):
    """In-process callers (tests, the benchmark) keep their collector."""
    before = gc.get_freeze_count()
    assert run(capsys, "check", FIXTURES / "cantor_diff.json")[0] == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_the_program_entry():
    """The ``slicekit`` script calls ``cli.run``, and run the way an
    installed console-script wrapper runs it, gives what ``python -m
    slicekit`` gives.  pyproject.toml is read as text: Python 3.10 has no
    tomllib."""
    text = (FIXTURES.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    scripts = dict(line.replace(" ", "").split("=", 1) for line in section.splitlines())
    assert scripts == {"slicekit": '"slicekit.cli:run"'}
    module, name = scripts["slicekit"].strip('"').split(":")
    wrapper = f"import sys\nfrom {module} import {name}\nsys.exit({name}())"
    for argv in (
        ("check", "instances/cantor_diff.json"),
        ("count", "instances/cantor_diff.json", "--x", "1/7", "--budget", "1"),
    ):
        script, program = _process(*argv, code=wrapper), _process(*argv)
        assert (script.returncode, script.stdout) == (program.returncode, program.stdout)
        assert script.stderr == program.stderr
    assert program.returncode == 3
