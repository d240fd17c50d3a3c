"""Per-operation time shares from a traced run's spans file.

    python3 benchmarks/shares.py .bench_run/spans/stability_approx-seed0-0.jsonl

For each operation of the traced pass: its wall time (the sum of its root
spans), then every span name's inclusive time as a share of it (a name
nested in itself is counted once), and its self time share.
"""

from __future__ import annotations

import collections
import json
import sys


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def shares(spans: list) -> dict:
    """{op: (total seconds, {name: (inclusive s, self s)})}."""
    child = collections.defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for k, s in enumerate(spans):
        total, names = out.setdefault(s["op"], [0.0, collections.defaultdict(lambda: [0.0, 0.0])])
        dur = s["end"] - s["start"]
        p = s["parent"]
        if p < 0:
            out[s["op"]][0] += dur
        while p >= 0 and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p < 0:
            names[s["name"]][0] += dur
        names[s["name"]][1] += dur - child[k]
    return out


def main(argv=None) -> int:
    for path in (argv if argv is not None else sys.argv[1:]):
        print(path)
        for op, (total, names) in shares(load(path)).items():
            print(f"  op {op}: {total:.4f} s")
            for name, (incl, own) in sorted(names.items(), key=lambda kv: -kv[1][0]):
                if incl >= 0.01 * total:
                    print(f"    {name:50s} inclusive {incl / total:6.1%}  self {own / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
