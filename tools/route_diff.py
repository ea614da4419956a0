"""Compare two outputs of ``tools/grid_routes.py``.

    python3 tools/route_diff.py A.txt B.txt

Both files must come from the same workload seed, so that they list the
same operations in the same order.  The report names:

- each operation whose matrices differ in size, level count, route,
  polish steps or supports (floors and residual margins are not
  compared: they move with the last bits of the levels);
- each level whose parity or node count differs;
- how many levels moved, with the largest relative |E_B - E_A| and the
  largest |E_B - E_A| / (r_A + r_B), the move over the sum of the two
  residuals, within which each energy has an eigenvalue of its matrix;
- each level that moved by more than r_A + r_B.  Both runs solve the
  same matrix, so such a level has changed eigenvalue.

It exits 1 if the files list different operations, or differ in any of
these respects but the third, and 0 otherwise: levels that moved within
their residuals are only reported.  Only the standard library is used.
"""

import argparse
import re
import sys

RECORD = re.compile(r"(\d+)-point matrix, (\d+) levels, floor \S+, "
                    r"at most \S+ of a level's scale: (.*)")
POLISHED = re.compile(r"polished in \[([0-9, ]+)\] steps on \[([0-9, ]+)\] nodes")
LEVEL = re.compile(r"level (\d+): E = (\S+), (\w+), (\d+) nodes, residual (\S+)")


def parse(path):
    """label -> (matrices, levels), in file order.  A matrix is (points,
    levels, route, steps, supports); a level is (index, energy, parity,
    nodes, residual)."""
    ops, current = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("## "):
                current = ops.setdefault(line[3:], ([], []))
            elif (match := RECORD.fullmatch(line)):
                points, count, route = match.groups()
                polished = POLISHED.match(route)
                steps = supports = None
                if polished:
                    route = "polished"
                    steps, supports = ([int(v) for v in group.split(", ")]
                                       for group in polished.groups())
                current[0].append((int(points), int(count), route, steps, supports))
            elif (match := LEVEL.fullmatch(line)):
                index, energy, parity, nodes, residual = match.groups()
                current[1].append((int(index), float(energy), parity, int(nodes),
                                   float(residual)))
            elif line:
                raise ValueError(f"{path}: unrecognized line {line!r}")
    return ops


def ratio(num, den):
    return num / den if den else float("inf")


def describe(matrix):
    points, count, route, steps, supports = matrix
    if steps is None:
        return f"{points} points, {count} levels, {route}"
    return f"{points} points, {count} levels, {steps} steps on {supports} nodes"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    ops_a, ops_b = parse(args.a), parse(args.b)
    print(f"operations: {len(ops_a)} in A, {len(ops_b)} in B")
    for label in ops_a.keys() ^ ops_b.keys():
        print(f"  only in {'A' if label in ops_a else 'B'}: {label}")
    common = [label for label in ops_a if label in ops_b]

    routes = []
    for label in common:
        mats_a, mats_b = ops_a[label][0], ops_b[label][0]
        if mats_a != mats_b:
            routes.append(label)
            print(f"route: {label}")
            for j in range(max(len(mats_a), len(mats_b))):
                a = describe(mats_a[j]) if j < len(mats_a) else "none"
                b = describe(mats_b[j]) if j < len(mats_b) else "none"
                if a != b:
                    print(f"  matrix {j}: {a} -> {b}")
    print(f"operations with route, support or step changes: {len(routes)} of {len(common)}")

    tags, moved, total = 0, [], 0
    for label in common:
        levels_a, levels_b = ops_a[label][1], ops_b[label][1]
        if len(levels_a) != len(levels_b):
            tags += 1
            print(f"levels: {label}: {len(levels_a)} -> {len(levels_b)}")
        for a, b in zip(levels_a, levels_b):
            total += 1
            if (a[0], a[2], a[3]) != (b[0], b[2], b[3]):
                tags += 1
                print(f"parity/nodes: {label} level {a[0]}: {a[2]}, {a[3]} nodes -> "
                      f"level {b[0]}: {b[2]}, {b[3]} nodes")
            if a[1] != b[1]:
                change = abs(b[1] - a[1])
                moved.append((ratio(change, abs(a[1])), ratio(change, a[4] + b[4]),
                              f"{label} level {a[0]}"))
    print(f"parity or node changes: {tags}")
    print(f"levels moved: {len(moved)} of {total}")
    if moved:
        rel = max(moved, key=lambda m: m[0])
        res = max(moved, key=lambda m: m[1])
        print(f"  largest relative |dE|: {rel[0]:.3g} ({rel[2]})")
        print(f"  largest |dE| / (r_A + r_B): {res[1]:.3g} ({res[2]})")
    beyond = [m for m in moved if m[1] > 1.0]
    for m in beyond:
        print(f"beyond the residuals: {m[2]}, |dE| / (r_A + r_B) = {m[1]:.3g}")
    print(f"levels moved by more than r_A + r_B: {len(beyond)}")
    return int(ops_a.keys() != ops_b.keys() or bool(routes) or tags > 0 or bool(beyond))


if __name__ == "__main__":
    sys.exit(main())
