"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/compare.py BASE.jsonl CHANGE.jsonl

For every workload and metric of BENCHMARK.json found in both sets, prints
each side's median and quartiles over its runs, the change of the median,
and the paired win fraction: runs of the two sides with the same workload,
trace flag and seed form a pair, and the fraction counts the pairs in which
the change is better, ties counting for neither.  It also prints each
side's failed ratio and every op whose output digest differs within a pair.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, trace) -> seed -> list of records."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["trace"])][rec["seed"]].append(rec)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stamps(groups) -> str:
    seen = {json.dumps(r["stamp"], sort_keys=True)
            for seeds in groups.values() for recs in seeds.values() for r in recs}
    return "; ".join(sorted(seen))


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, change = load(argv[0]), load(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"base:   {argv[0]} ({stamps(base)})")
    print(f"change: {argv[1]} ({stamps(change)})")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        pairs = [(a, b) for seed in sorted(set(base[key]) & set(change[key]))
                 for a, b in zip(base[key][seed], change[key][seed])]
        sides = [[r for recs in side[key].values() for r in recs] for side in (base, change)]
        print(f"\n{workload} (trace {trace}): {len(sides[0])} base runs, "
              f"{len(sides[1])} change runs, {len(pairs)} pairs")
        for label, recs in zip(("base", "change"), sides):
            attempted = sum(r["attempted"] for r in recs)
            failed = sum(r["failed"] for r in recs)
            print(f"  failed ratio {label}: {failed}/{attempted} = {failed / attempted:.4g}")
        print(f"  {'metric':48} {'unit':6} {'base median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6}")
        for name in sorted(set(sides[0][0]["metrics"]) & set(sides[1][0]["metrics"])):
            cols = []
            for recs in sides:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in recs])
                cols.append((med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]"))
            sign = 1 if better.get(name, "lower") == "higher" else -1
            wins = sum(1 for a, b in pairs
                       if sign * (b["metrics"][name]["value"] - a["metrics"][name]["value"]) > 0)
            rel = f"{(cols[1][0] - cols[0][0]) / cols[0][0]:+.1%}" if cols[0][0] else "n/a"
            win = f"{wins}/{len(pairs)}" if pairs else "-"
            unit = sides[0][0]["metrics"][name]["unit"]
            print(f"  {name:48} {unit:6} {cols[0][1]:>30} {cols[1][1]:>30} {rel:>8} {win:>6}")
        for a, b in pairs:
            for op in sorted(set(a["digests"]) & set(b["digests"])):
                if a["digests"][op] != b["digests"][op]:
                    print(f"  digest differs, seed {a['seed']}: {op}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
