#!/usr/bin/env python3
"""Golden check of one committed figure CSV against a fresh bench run.

Runs the bench in a new temporary directory (benches write <name>.csv into
their working directory) and compares the CSV it writes with the committed
one: every committed column must be present under the same name, equal cell
for cell as strings, with the same number of rows. Columns the bench added
after the CSV was committed are not compared.

TCB_FAST is removed from the bench's environment: the committed CSVs are
full-length runs.

usage: check_figure_csv.py BENCH_BINARY COMMITTED_CSV
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile

MAX_REPORTED = 20


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise SystemExit(f"{path}: empty CSV")
    return rows[0], rows[1:]


def compare(want: tuple[list[str], list[list[str]]],
            got: tuple[list[str], list[list[str]]]) -> list[str]:
    want_header, want_rows = want
    got_header, got_rows = got
    errors = []
    if len(want_rows) != len(got_rows):
        errors.append(f"{len(got_rows)} rows, committed {len(want_rows)}")
    for col, name in enumerate(want_header):
        if name not in got_header:
            errors.append(f"column {name!r} missing")
            continue
        got_col = got_header.index(name)
        for r, (want_row, got_row) in enumerate(zip(want_rows, got_rows)):
            if want_row[col] != got_row[got_col]:
                errors.append(f"row {r + 1} column {name!r}: committed "
                              f"{want_row[col]!r}, got {got_row[got_col]!r}")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, committed = argv[1], argv[2]
    env = dict(os.environ)
    env.pop("TCB_FAST", None)
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([bench], cwd=tmp, env=env, capture_output=True,
                             text=True, check=False)
        if run.returncode != 0:
            print(run.stdout + run.stderr, file=sys.stderr)
            print(f"{bench} exited with {run.returncode}", file=sys.stderr)
            return 1
        fresh = os.path.join(tmp, os.path.basename(committed))
        if not os.path.exists(fresh):
            print(f"{bench} wrote no {os.path.basename(committed)}",
                  file=sys.stderr)
            return 1
        errors = compare(read_csv(committed), read_csv(fresh))
    for line in errors[:MAX_REPORTED]:
        print(f"{os.path.basename(committed)}: {line}", file=sys.stderr)
    if len(errors) > MAX_REPORTED:
        print(f"... {len(errors) - MAX_REPORTED} more", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
