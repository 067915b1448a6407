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

from helpers import data_section

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
# does not depend on bench/, and spans 21, 25, 29 and 41, whose residue
# classes have 49149, 393213, 2359293 and 603979773 subsets; the search
# explores 279, 748, 1309 and 3920 of them.  Each hash is the sha256 of the
# report's ``data`` section serialised as above.  They pin the
# scc_xi/scc_subsets orders and radii of subset graphs far larger than any
# bundled instance's.
SCALED = {
    "span9": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-4, 5]}',
              "7ba63ee7d3f224416636e3dcae485ce9729ae731917f75e14748354827dfc9dd"),
    "span13": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-6, 7]}',
               "5dc6ed1adda6ffd4b0f48654ca371005a143b87ab70a47fbbbaacbe98b3afccf"),
    "span15": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-7, 8]}',
               "9ae3e0533fa87403f89d7a8c68f28c4b193dece5546d9408a1d5f87edabd6e8c"),
    "span17": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-8, 9]}',
               "ab3b7d90a1db4c1a68dae0022e7b0443cfc524de8386c678ec90bdfaa2696d04"),
    "span21": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-10, 11]}',
               "078f2b938815c36653244917f3de2d3f6ffabbbbfde1aaed7a753cbad2370a17"),
    "span25": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-12, 13]}',
               "b305db122c46c0f9dd1b2939d544add68e03298f7ef97c806466ae93fe2038f6"),
    "span29": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-14, 15]}',
               "48e1e2d60aac8b9356bddf0e06db2bed676114cad46906a2711c43ceaf7f485f"),
    "span41": ('{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-20, 21]}',
               "ad1766e8f5069f731f08699f7045e122501d3be23f6e59b5805e9228282fc54a"),
    "n7": ('{"n": 7, "digit_sets": [[0, 3, 6], [0, 3, 6]], "coefficients": [-2, 5]}',
           "d73f946be7c38d533a8c1e8881531332ecfee7e5a8cb7040204023691f0f5e09"),
    "n5": ('{"n": 5, "digit_sets": [[0, 2, 4], [0, 2, 4]], "coefficients": [-5, 6]}',
           "e4bddbd77c1e49997f0dcb9114962249571229533b3e51afc585fdfdc597180e"),
    "l3": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2]], "coefficients": [-4, 4, 5]}',
           "4414dd7eb5afbfbcf40b361ffc2e58cd0510139326b362fc2b043e1f6817a2a9"),
    "l4": ('{"n": 3, "digit_sets": [[0, 2], [0, 2], [0, 2], [0, 2]], '
           '"coefficients": [-2, 3, -3, 4]}',
           "cefe8d54e20e486cfd36c07b34eab4c0f501da14e4905a4f39a68ed2e26ab17e"),
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
