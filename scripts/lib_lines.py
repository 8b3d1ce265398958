#!/usr/bin/env python3
"""Count non-test library lines per crate and in total.

Counts every line of `crates/*/src/**/*.rs` and `shims/*/src/*.rs`, each
file up to (not including) its first `#[cfg(test)]` line. Blank lines and
comments count; unit-test modules, which sit at the end of a file, do not.

Usage: python3 scripts/lib_lines.py [REPO_ROOT]
"""

import sys
from pathlib import Path


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip().startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("shims/*/src/*.rs"))
    per_crate = {}
    for path in files:
        crate = "/".join(path.relative_to(root).parts[:2])
        per_crate[crate] = per_crate.get(crate, 0) + non_test_lines(path)
    for crate, lines in sorted(per_crate.items()):
        print(f"{lines:>7,}  {crate}")
    print(f"{sum(per_crate.values()):>7,}  total")


if __name__ == "__main__":
    main()
