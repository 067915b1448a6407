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
# does not depend on bench/, and span 21, the largest subset graph analysed
# in CI (49149 vertices).  Each hash is the sha256 of the report's ``data``
# section serialised as above.  They pin the scc_xi/scc_subsets orders and
# radii of subset graphs far larger than any bundled instance's.
SCALED = {
    "span9": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-4, 5]}',
              "97d7c615591c1ae40a183bbef30637cb83dad9555e0228311460630ea9851af8"),
    "span13": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-6, 7]}',
               "ba1b23bf8ecec826d70dc1488ef90dc88dc7766943f4f02cb340c2c5cf96b774"),
    "span15": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-7, 8]}',
               "7ea306e10005ac8feed86367f5564b4d13293c1ae9aa1262cd917dfe6065f96d"),
    "span17": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-8, 9]}',
               "5e1e76cbd9b86f4e9ba0f852fc3d34804ed43d6bf75c4e73648926af32e3c2ef"),
    "span21": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10, 11]}',
               "6066ac7962b103a89f40b317b5a71edfd3bafd0b72383c32c22aee7aadac77c7"),
    "n7": ('{"n": 7, "digit_sets": [[0, 3, 6], [0, 3, 6]], "coefficients": [-2, 5]}',
           "6273551c91ffcdfae4e5749a91077f6ffece6b77500dfb09c42dad3a2c42553e"),
    "n5": ('{"n": 5, "digit_sets": [[0, 2, 4], [0, 2, 4]], "coefficients": [-5, 6]}',
           "b1765b75fc26ee7928822b17d6625acb861c5662a1cb95be619282e82e228273"),
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
