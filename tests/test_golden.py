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
# does not depend on bench/, and spans 21, 25 and 29, whose residue classes
# have 49149, 393213 and 2359293 subsets; the search explores 279, 748 and
# 1309 of them.  Each hash is the sha256 of the report's ``data`` section
# serialised as above.  They pin the scc_xi/scc_subsets orders and radii
# of subset graphs far larger than any bundled instance's.
SCALED = {
    "span9": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-4, 5]}',
              "c2d8cd7864d2cf0b0a9f0ce22e74f5bd7569cbbf79b6e70b047d164780b7c04d"),
    "span13": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-6, 7]}',
               "fa6303d70510a999edba9adb61bb5cd47d4d4f8f4931e4a606a9d2e2af92cb59"),
    "span15": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-7, 8]}',
               "9b557fc666754332bc98ea6c54974383bc30accf4abf2d3a101ffc4a867690ae"),
    "span17": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-8, 9]}',
               "918709157c7f6607b95d6fcb5667c92604f3aa03e5604483f73c4897567471b3"),
    "span21": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10, 11]}',
               "853736a8adc5657cf2ded3b5b65f730e905982260d8b96a4502b39f0e9568814"),
    "span25": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-12, 13]}',
               "cabcdb6ac5a42038a9727c41b45e7fc0696ee7a553d5264bd65aa15221423fa3"),
    "span29": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-14, 15]}',
               "139a92be2628619f988a3944e23b51df558e7028ace5e813bf94ca9fde7cc4e7"),
    "n7": ('{"n": 7, "digit_sets": [[0, 3, 6], [0, 3, 6]], "coefficients": [-2, 5]}',
           "3a115242e30485d0f2819e89ae38c493f70c577a048690bcc73122c7bc5f1473"),
    "n5": ('{"n": 5, "digit_sets": [[0, 2, 4], [0, 2, 4]], "coefficients": [-5, 6]}',
           "7137f33c0a208f15230947937da19ed850bd0f7d30fbbdc2e481bf02439cbf60"),
    "l3": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2]], "coefficients": [-4, 4, 5]}',
           "adb290306c986e5d8df489c4c90b686788e604455b920d3183c9bf0d4872ac9c"),
    "l4": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2], [0, 2]], '
           '"coefficients": [-2, 3, -3, 4]}',
           "e505783d476c34d29bb9d0aa74db7f4bce4f484976809e4ec4574bb1284ee45e"),
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
