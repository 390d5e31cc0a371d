#!/usr/bin/env python3
"""Line counts of the orchestration layers and of the algorithmic core.

Orchestration is `crates/exp/src/{shard,launch,service}`; the core is
`crates/core/src`. Two counts are printed for each directory:

* `all`: every line of every `.rs` file (what `wc -l` reports);
* `non-test`: the lines before each file's first `#[cfg(test)]`, so
  in-file unit tests do not count as program code.

Usage: `python3 scripts/orchestration_lines.py [REPO_ROOT]` (default: the
repository this script lives in). Informational only: it always exits 0
unless a directory is missing.
"""

import sys
from pathlib import Path

ORCHESTRATION = ["crates/exp/src/shard", "crates/exp/src/launch", "crates/exp/src/service"]
CORE = ["crates/core/src"]


def count_file(path):
    """Returns `(all lines, lines before the first #[cfg(test)])`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    non_test = len(lines)
    for number, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            non_test = number
            break
    return len(lines), non_test


def count_dir(root, rel):
    directory = root / rel
    if not directory.is_dir():
        sys.exit(f"orchestration_lines: no directory {directory}")
    total, non_test = 0, 0
    for path in sorted(directory.rglob("*.rs")):
        a, n = count_file(path)
        total += a
        non_test += n
    return total, non_test


def report(root, title, dirs):
    print(f"{title}:")
    sums = [0, 0]
    for rel in dirs:
        a, n = count_dir(root, rel)
        sums[0] += a
        sums[1] += n
        print(f"  {rel:<26} all {a:>6}  non-test {n:>6}")
    if len(dirs) > 1:
        print(f"  {'total':<26} all {sums[0]:>6}  non-test {sums[1]:>6}")
    return sums


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    orchestration = report(root, "orchestration", ORCHESTRATION)
    core = report(root, "core", CORE)
    print(
        f"orchestration / core: all {orchestration[0] / core[0]:.2f}, "
        f"non-test {orchestration[1] / core[1]:.2f}"
    )


if __name__ == "__main__":
    main()
