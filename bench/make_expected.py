"""Regenerate bench/expected.json: the analyze-scaled values the output
check compares against (achievable multiplicities, the certified U1
dimension enclosure, and which witnesses verified).

Usage: python3 bench/make_expected.py

Run it only at a commit whose reports are known to be right; the check
exists to catch a later change that alters these values.
"""

import json
import sys

from workloads import EXPECTED, SCALED, SRC

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    from slicekit import parse_instance
    from slicekit.report import build_report

    scaled = {}
    for label, text in sorted(SCALED.items()):
        data = build_report(parse_instance(text))["data"]
        dim = data["u1"]["dim"]
        scaled[label] = {
            "achievable": data["r_search"]["achievable"],
            "u1_dim": [dim["lower"], dim["upper"]],
            "witness_verified": {
                r: entry["witness"]["verified"]
                for r, entry in data["ur"].items()
                if "witness" in entry
            },
        }
    EXPECTED.write_text(json.dumps({"analyze-scaled": scaled}, indent=1) + "\n", encoding="utf-8")
