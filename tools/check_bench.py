#!/usr/bin/env python3
"""Validate a BENCH_*.json hot-path perf-baseline document.

Usage:
    check_bench.py [BENCH_hotpath.json]     # file, or stdin when omitted

BENCH_hotpath.json is frozen history: its best-of-N rows carry no host,
compiler or build type, so nothing appends to it any more and speedups
are stated through perfbench/ instead. This checker keeps the frozen
file well-formed.

A baseline is a pinte-report JSON document (any schema version this
repo emits) whose tables contain exactly one table named TABLE below.
Beyond report well-formedness the checker enforces what makes the file
usable as a perf trajectory:

  - that table's columns are exactly label/kernel/work_items/
    reps/best_wall_s/rate_per_s/checksum, in that order;
  - every cell is finite (NaN/Infinity rejected), wall times are
    strictly positive, work_items and checksums are integers;
  - best-of-N metadata is honest: reps >= 2 for every committed row
    (a single-shot wall time is noise, not a baseline), and
    rate_per_s equals work_items / best_wall_s;
  - (label, kernel) pairs are unique — a duplicated measurement point
    would make later speedup ratios ambiguous;
  - kernel sets across labels are nested (each is a subset or superset
    of every other), so any kernel is comparable across every label
    that measured it. Coverage may grow over time — a later PR may add
    a kernel — but two labels measuring disjoint or partially
    overlapping suites would make the trajectory ambiguous.

Exit status 0 when the document conforms, 1 with a diagnostic per
violation otherwise. Standard library only.
"""

import json
import math
import sys

TABLE = "hotpath_bench"
COLUMNS = [
    "label",
    "kernel",
    "work_items",
    "reps",
    "best_wall_s",
    "rate_per_s",
    "checksum",
]
RATE_TOLERANCE = 1e-6  # relative; rates round-trip through %.1f


def reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Checker:
    def __init__(self):
        self.errors = []

    def error(self, path, message):
        self.errors.append(f"{path}: {message}")

    def check_row(self, row, path):
        if not isinstance(row, list) or len(row) != len(COLUMNS):
            self.error(path, f"expected {len(COLUMNS)}-cell array")
            return None
        label, kernel, work, reps, best, rate, checksum = row
        if not isinstance(label, str) or not label:
            self.error(f"{path}[0]", "label must be a non-empty string")
            return None
        if not isinstance(kernel, str) or not kernel:
            self.error(f"{path}[1]", "kernel must be a non-empty string")
            return None
        ok = True
        if not is_int(work) or work <= 0:
            self.error(f"{path}[2]", f"work_items must be a positive "
                       f"integer, got {work!r}")
            ok = False
        if not is_int(reps) or reps < 2:
            self.error(
                f"{path}[3]",
                f"reps must be an integer >= 2 (best-of-N needs N "
                f"repetitions to mean anything), got {reps!r}",
            )
            ok = False
        if not is_num(best) or not math.isfinite(best) or best <= 0:
            self.error(f"{path}[4]", f"best_wall_s must be a positive "
                       f"finite number, got {best!r}")
            ok = False
        if not is_num(rate) or not math.isfinite(rate) or rate <= 0:
            self.error(f"{path}[5]", f"rate_per_s must be a positive "
                       f"finite number, got {rate!r}")
            ok = False
        if not is_int(checksum) or checksum < 0:
            self.error(f"{path}[6]", f"checksum must be a non-negative "
                       f"integer, got {checksum!r}")
            ok = False
        if ok:
            expected = work / best
            if abs(rate - expected) > RATE_TOLERANCE * max(
                rate, expected
            ):
                self.error(
                    f"{path}[5]",
                    f"rate_per_s {rate} but work_items/best_wall_s "
                    f"= {expected}",
                )
        return (label, kernel)

    def check_document(self, doc):
        if not isinstance(doc, dict):
            self.error("$", "top level must be an object")
            return
        if doc.get("schema") != "pinte-report":
            self.error(
                "$.schema",
                f"expected 'pinte-report', got {doc.get('schema')!r}",
            )
        tables = doc.get("tables")
        if not isinstance(tables, list):
            self.error("$.tables", "expected array")
            return
        bench = [
            t
            for t in tables
            if isinstance(t, dict) and t.get("name") == TABLE
        ]
        if len(bench) != 1:
            self.error(
                "$.tables",
                f"expected exactly one '{TABLE}' table, found "
                f"{len(bench)}",
            )
            return
        table = bench[0]
        tpath = f"$.tables[{tables.index(table)}]"
        if table.get("columns") != COLUMNS:
            self.error(
                f"{tpath}.columns",
                f"expected {COLUMNS}, got {table.get('columns')!r}",
            )
            return
        rows = table.get("rows")
        if not isinstance(rows, list) or not rows:
            self.error(f"{tpath}.rows", "expected non-empty array")
            return

        seen = {}
        kernels_by_label = {}
        for i, row in enumerate(rows):
            key = self.check_row(row, f"{tpath}.rows[{i}]")
            if key is None:
                continue
            if key in seen:
                self.error(
                    f"{tpath}.rows[{i}]",
                    f"duplicate measurement point {key} "
                    f"(first at row {seen[key]})",
                )
            seen[key] = i
            kernels_by_label.setdefault(key[0], set()).add(key[1])

        # Kernel coverage may grow across the trajectory (a later PR
        # can add a kernel) but never fork: every pair of labels must
        # be subset-comparable or their speedup ratios are ambiguous.
        by_size = sorted(
            (frozenset(v) for v in kernels_by_label.values()), key=len
        )
        for smaller, larger in zip(by_size, by_size[1:]):
            if not smaller <= larger:
                self.error(
                    f"{tpath}.rows",
                    "labels carry non-nested kernel sets, so "
                    "trajectory points are not comparable: "
                    + "; ".join(
                        f"{label}={sorted(ks)}"
                        for label, ks in sorted(
                            kernels_by_label.items()
                        )
                    ),
                )
                break


def main(argv):
    args = argv[1:]
    if len(args) > 1 or (args and args[0] in ("-h", "--help")):
        sys.stderr.write(__doc__)
        return 2
    try:
        if args and args[0] != "-":
            with open(args[0], "r", encoding="utf-8") as f:
                text = f.read()
            source = args[0]
        else:
            text = sys.stdin.read()
            source = "<stdin>"
    except OSError as e:
        sys.stderr.write(f"check_bench: {e}\n")
        return 1

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except (json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"check_bench: {source}: not JSON: {e}\n")
        return 1

    checker = Checker()
    checker.check_document(doc)
    if checker.errors:
        for error in checker.errors:
            sys.stderr.write(f"check_bench: {source}: {error}\n")
        sys.stderr.write(
            f"check_bench: {source}: {len(checker.errors)} "
            f"violation(s)\n"
        )
        return 1

    table = next(
        t for t in doc["tables"] if t.get("name") == TABLE
    )
    labels = sorted({row[0] for row in table["rows"]})
    print(
        f"check_bench: {source}: valid baseline "
        f"({len(table['rows'])} entries, labels: {', '.join(labels)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
