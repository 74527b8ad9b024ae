"""Write gkmcbench/expected.json: exit code, verdict line and stdout
sha256 of every menu item, as the current library produces them.

    python3 gkmcbench/make_expected.py

Run it from the root of the checkout whose outputs are the reference.
Each item runs twice and must give the same outcome both times; every
verdict must be a pass (exit 0, no violations, oracle sets and
multiplicities agreeing), so the table never records a failure as the
expected result.
"""

from __future__ import annotations

import json
import sys
import tempfile

import menu
from run import BENCH_DIR, WORK_DIR, import_library

PASSING = (" 0 violations, ", "predicate-only 0, generation-only 0, multiplicities agree")


def main() -> int:
    G = import_library()
    WORK_DIR.mkdir(exist_ok=True)
    table = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as directory:
        for workload, items in menu.MENUS.items():
            paths = menu.write_datum_files(G, menu.datum_names(items), directory)
            table[workload] = {}
            for item in items:
                first, second = (menu.outcome(*menu.run_item(G, item, paths)) for _ in range(2))
                if first != second:
                    sys.exit(f"{workload} {item.key}: output differs between two runs")
                verdict = first["verdict"]
                if first["exit"] != 0 or (verdict and not any(p in verdict for p in PASSING)):
                    sys.exit(f"{workload} {item.key}: not a pass: {first}")
                table[workload][item.key] = first
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in table.values())} items to {BENCH_DIR / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
