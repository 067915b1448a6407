"""Pinned report values: ``slicekit analyze`` on each bundled instance must
reproduce ``tests/golden/<name>.json`` byte for byte outside ``meta``.

The golden files hold the ``data`` section serialised with sorted keys and
an indent of 2.  Regenerate one only when a change to a reported value is
intended, and say so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slicekit.cli import main
from slicekit.report import data_section

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.stem for p in (ROOT / "instances").glob("*.json"))


def test_every_bundled_instance_has_a_golden():
    assert NAMES == sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert len(NAMES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_analyze_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["analyze", str(ROOT / "instances" / f"{name}.json"), "--out", str(out)]) == 0
    data = data_section(out.read_text(encoding="utf-8"))["data"]
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# The scaled family of the benchmark (spans 9-17 of n=3 {0,2} two-factor
# instances, n=5 and n=7, l=3 and l=4), written out here so that this test
# does not depend on bench/.  Each hash is the sha256 of the report's
# ``data`` section serialised as above.  They pin the scc_xi/scc_subsets
# orders and radii of subset graphs far larger than any bundled instance's.
SCALED = {
    "span9": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-4, 5]}',
              "c90b36a00538207f4218ff8ffc2a0f78d1003c0e134ccdd7cd3fb917a3342ebe"),
    "span13": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-6, 7]}',
               "a8cddf5c0e2bf8a80eb8434ecb3fbb0fcb5c8eb5b81a6f16d32fc2807899688f"),
    "span15": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-7, 8]}',
               "7a32fe874feaf222fc2bb22c6a6357967916f2929fdd3718f2813fd1ad6c3eb8"),
    "span17": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-8, 9]}',
               "8f5f3f79b2f08e29a99331c34cc72e28b30d8bc81ee5103911f126e8ea95846f"),
    "n7": ('{"n": 7, "digit_sets": [[0, 3, 6], [0, 3, 6]], "coefficients": [-2, 5]}',
           "8b030d2ef1aff19a55ef86cc1cc83b65eb00fe4f3152f9547e3af33353a82f69"),
    "n5": ('{"n": 5, "digit_sets": [[0, 2, 4], [0, 2, 4]], "coefficients": [-5, 6]}',
           "9fe400eb82c414e67ca71801253b0201fe86902223ef41c3a8df6731a4c82825"),
    "l3": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2]], "coefficients": [-4, 4, 5]}',
           "9804a667d06bc3d2415cfb700b8a7c6ecb20e2da18e0eee2e67b7214793a3d0b"),
    "l4": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2], [0, 2]], '
           '"coefficients": [-2, 3, -3, 4]}',
           "ea49b48fd79c48d7a04b35df9f39699d7c68d9892f32d033a33d7542e0604d08"),
}


@pytest.mark.parametrize("label", sorted(SCALED))
def test_analyze_scaled_matches_pinned_hash(label, tmp_path):
    document, digest = SCALED[label]
    source = tmp_path / f"{label}.json"
    source.write_text(document, encoding="utf-8")
    out = tmp_path / f"{label}.report.json"
    assert main(["analyze", str(source), "--out", str(out)]) == 0
    data = data_section(out.read_text(encoding="utf-8"))["data"]
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
