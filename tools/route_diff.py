"""Compare two outputs of ``tools/grid_routes.py``.

    python3 tools/route_diff.py A.jsonl B.jsonl

Both files must come from the same workload seed, so that they list the
same operations in the same order.  Each matrix of an operation, a
``gridsolver._Route`` record, is compared with the matrix in the same
place of the other file.  The report names:

- each operation whose matrices differ in size, level count, route,
  polish steps or supports (floors and ratios are not compared: they
  move with the last bits of the levels);
- each level whose node count differs;
- how many levels moved, of every level of every matrix, with the
  largest relative |E_B - E_A| and the largest |E_B - E_A| / (r_A + r_B),
  the move over the sum of the two residuals, within which each energy
  has an eigenvalue of its matrix;
- how many matrices have records identical field for field, residuals,
  floors and ratios included: a change that keeps every bit keeps all
  of them;
- each level that moved by more than r_A + r_B.  If both runs solve the
  same matrix, such a level has changed eigenvalue.  A change to the
  matrix itself also moves its levels, by up to r_A + r_B plus the norm
  of the change to its entries: a change in their last bits (a uniform
  sector assembled from v and the step h, where it was built from node
  differences, say) keeps them about within their residuals, and a
  larger one may move them beyond r_A + r_B with no solve at fault.

It exits 1 if the files list different operations, or differ in any of
these respects but the third and the fourth, and 0 otherwise: levels
that moved within their residuals, and records that differ in their
residuals, floors or ratios alone, are only reported.  Only the
standard library is used.
"""

import argparse
import json
import sys

SHAPE = ("points", "route", "steps", "supports")


def parse(path):
    """label -> the matrices of its operation, each the dict of one
    route record, in file order."""
    with open(path, encoding="utf-8") as fh:
        ops = [json.loads(text) for text in fh if text.strip()]
    return {op["label"]: op["matrices"] for op in ops}


def ratio(num, den):
    return num / den if den else float("inf")


def shape(matrix):
    return (len(matrix["energies"]), *(matrix[key] for key in SHAPE))


def levels(matrix):
    return zip(matrix["energies"], matrix["residuals"], matrix["nodes"])


def describe(matrix):
    if matrix is None:
        return "none"
    count, points, route, steps, supports = shape(matrix)
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
        mats_a, mats_b = ops_a[label], ops_b[label]
        if list(map(shape, mats_a)) != list(map(shape, mats_b)):
            routes.append(label)
            print(f"route: {label}")
            for j in range(max(len(mats_a), len(mats_b))):
                a = describe(mats_a[j] if j < len(mats_a) else None)
                b = describe(mats_b[j] if j < len(mats_b) else None)
                if a != b:
                    print(f"  matrix {j}: {a} -> {b}")
    print(f"operations with route, support or step changes: {len(routes)} of {len(common)}")

    tags, moved, total, same, matrices = 0, [], 0, 0, 0
    for label in common:
        for j, (a, b) in enumerate(zip(ops_a[label], ops_b[label])):
            matrices += 1
            same += a == b
            for i, ((e_a, r_a, nodes_a), (e_b, r_b, nodes_b)) in enumerate(
                    zip(levels(a), levels(b))):
                name = f"{label} matrix {j} level {i}"
                total += 1
                if nodes_a != nodes_b:
                    tags += 1
                    print(f"nodes: {name}: {nodes_a} -> {nodes_b}")
                if e_a != e_b:
                    change = abs(e_b - e_a)
                    moved.append((ratio(change, abs(e_a)), ratio(change, r_a + r_b), name))
    print(f"node changes: {tags}")
    print(f"levels moved: {len(moved)} of {total}")
    if moved:
        rel = max(moved, key=lambda m: m[0])
        res = max(moved, key=lambda m: m[1])
        print(f"  largest relative |dE|: {rel[0]:.3g} ({rel[2]})")
        print(f"  largest |dE| / (r_A + r_B): {res[1]:.3g} ({res[2]})")
    print(f"matrix records identical in every field: {same} of {matrices}")
    beyond = [m for m in moved if m[1] > 1.0]
    for m in beyond:
        print(f"beyond the residuals: {m[2]}, |dE| / (r_A + r_B) = {m[1]:.3g}")
    print(f"levels moved by more than r_A + r_B: {len(beyond)}")
    return int(ops_a.keys() != ops_b.keys() or bool(routes) or tags > 0 or bool(beyond))


if __name__ == "__main__":
    sys.exit(main())
