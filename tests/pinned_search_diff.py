"""Compare the recorded exact-search outcomes with what solve() gives now.

Run from the repository root:

    PYTHONPATH=src python3 tests/pinned_search_diff.py

For every case of tests/data/exact_pinned_search.json and every objective
kind it prints the recorded and the current status, node count and
objective, and whether the placements are the same; moved placements are
printed in full. The last line counts the entries that moved. The file is
only read: an entry that moves on purpose is re-recorded by hand, and this
listing is what a change note quotes.
"""

from __future__ import annotations

import sys

import helpers


def _describe(entry: dict) -> str:
    value = entry["objective_value"]
    shown = "-" if value is None else repr(value)
    return f"{entry['status']} {entry['nodes_explored']} nodes {shown}"


def main() -> int:
    moved = 0
    total = 0
    for case in helpers.pinned_search_cases():
        for kind, new in helpers.pinned_search_results(case).items():
            old = case["results"][kind]
            total += 1
            same_placements = old["placements"] == new["placements"]
            changed = not same_placements or any(
                old[k] != new[k] for k in ("status", "nodes_explored", "objective_value")
            )
            moved += changed
            mark = "MOVED" if changed else "same "
            line = f"{mark} {case['case']:<24} {kind:<17} {_describe(old)} -> {_describe(new)}"
            print(line + ("" if same_placements else "  placements differ"))
            if not same_placements:
                print(f"      old placements: {old['placements']}")
                print(f"      new placements: {new['placements']}")
    print(f"{moved} of {total} entries moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
