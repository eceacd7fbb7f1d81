#!/usr/bin/env python3
"""Summarise paired A/B runs of the serving benchmark with a verdict.

    python3 scripts/ab_summary.py <runs-dir> <workload> <pairs>
    python3 scripts/ab_summary.py --self-test

`scripts/ab.sh` calls the first form once its runs are done: pair i of
<workload> left `<runs-dir>/<workload>-{parent,change}-<i>.txt`, each
holding the run record line and the result JSON line.

For every end-to-end metric in BENCHMARK.json and every wall-clock
field of the run record (`wall_*`) the table gives each side's
quartiles and median, the median change/parent ratio, the pairs the
change won (ties count for neither), a seeded-bootstrap 95 % interval of
the median of the per-pair change/parent ratios, and a verdict:

- gain: the change won at least 9/10 of the pairs and the interval lies
  wholly on the better side of 1;
- loss: the change lost at least 9/10 of the pairs and the interval lies
  wholly on the worse side of 1;
- unresolved: anything else.

Both conditions are paired, so drift that moves both sides of a pair
cancels. The last column is the unpaired half of the repository's claim
rule: whether the medians differ by more than the parent's
interquartile range. A claimed gain needs "gain" and "yes".

`--self-test` runs the rule on synthetic seeded pairs: an A/A table must
read unresolved everywhere, a planted 3 % slowdown must read loss and a
planted 3 % speed-up gain, and over many A/A tables the rule may call at
most 5 % of the cells (a fair coin wins 9 or 10 of 10 pairs one way or
the other 2.1 % of the time, and a wall twin moves with its metric).
"""

import json
import random
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")
WALL = ("throughput_rps", "p50_us", "cpu_us_per_req")
BOOTSTRAP_DRAWS = 2000
BOOTSTRAP_SEED = 20201
WIN_SHARE = 0.9


def metrics_of(benchmark):
    """(name, better, unit) for every end-to-end metric and wall twin."""
    rows = [(m["name"], m["better"], m["unit"]) for m in benchmark["end_to_end"]]
    return rows + [(f"wall_{n}", b, u) for n, b, u in rows if n in WALL]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap_interval(ratios, seed=BOOTSTRAP_SEED, draws=BOOTSTRAP_DRAWS):
    """95 % percentile interval of the median of `ratios`, resampling
    the pairs with replacement from a fixed seed."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(median(rng.choices(ratios, k=n)) for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def judge(parent, change, better):
    """Everything one table row says about one metric."""
    p_q, c_q = quartiles(parent), quartiles(change)
    higher = better == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    row = {
        "parent": p_q,
        "change": c_q,
        "ratio": c_q[1] / p_q[1] if p_q[1] else float("nan"),
        "won": won,
        "interval": None,
        "verdict": "unresolved",
        "gap": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
    }
    if len(ratios) < 2:
        return row
    lo, hi = bootstrap_interval(ratios)
    row["interval"] = (lo, hi)
    need = WIN_SHARE * len(parent)
    if won >= need and (lo > 1 if higher else hi < 1):
        row["verdict"] = "gain"
    elif lost >= need and (hi < 1 if higher else lo > 1):
        row["verdict"] = "loss"
    return row


def fmt(values):
    return " / ".join(f"{x:.4g}" for x in values)


def table(workload, pairs, metrics, value_of, runs):
    lines = [
        f"| {workload} | parent q1 / median / q3 | change q1 / median / q3 "
        "| change/parent | pairs won | 95 % interval | verdict | gap > parent IQR |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, better, unit in metrics:
        p = [value_of(r, name) for r in runs["parent"]]
        c = [value_of(r, name) for r in runs["change"]]
        row = judge(p, c, better)
        ci = "n/a" if row["interval"] is None else fmt(row["interval"])
        lines.append(
            f"| `{name}` ({unit}, {better}) | {fmt(row['parent'])} | {fmt(row['change'])} "
            f"| x{row['ratio']:.3f} | {row['won']}/{pairs} | {ci} | {row['verdict']} "
            f"| {'yes' if row['gap'] else 'no'} |"
        )
    return lines


def load(runs_dir, workload, side, i):
    text = (Path(runs_dir) / f"{workload}-{side}-{i}.txt").read_text()
    rec, res = text.splitlines()[-2:]
    return json.loads(rec.split(" ", 1)[1]), json.loads(res)


def value(run, name):
    rec, res = run
    return rec[name] if name.startswith("wall_") else res["metrics"][name]["value"]


def summarise(runs_dir, workload, pairs):
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    runs = {s: [load(runs_dir, workload, s, i) for i in range(pairs)] for s in SIDES}
    print("\n".join(table(workload, pairs, metrics_of(benchmark), value, runs)))
    for s in SIDES:
        ok = all(res["correct"] for _, res in runs[s])
        failed = sum(res["failed"] for _, res in runs[s])
        print(f"{s}: correct {ok}, failed {failed}")


def synthetic_runs(rng, pairs, slowdown):
    """Seeded pairs for the time metrics: each pair shares a machine
    drift (both sides of a pair run back to back), each run adds its own
    1 % noise, and the change runs `slowdown` times slower."""
    base = {"throughput_rps": 9000.0, "p50_us": 110.0, "cpu_us_per_req": 9.9}
    runs = {s: [] for s in SIDES}
    for _ in range(pairs):
        drift = rng.gauss(1.0, 0.02)
        for side in SIDES:
            slow = slowdown if side == "change" else 1.0
            run = {}
            for name, v in base.items():
                t = drift * slow * rng.gauss(1.0, 0.01)
                run[name] = v / t if name == "throughput_rps" else v * t
                run[f"wall_{name}"] = run[name] * rng.gauss(1.0, 0.005)
            runs[side].append(run)
    return runs


def self_test():
    metrics = metrics_of({"end_to_end": [
        {"name": "throughput_rps", "better": "higher", "unit": "1/s"},
        {"name": "p50_us", "better": "lower", "unit": "us"},
        {"name": "cpu_us_per_req", "better": "lower", "unit": "us"},
    ]})

    def verdicts(seed, slowdown, pairs=10):
        runs = synthetic_runs(random.Random(seed), pairs, slowdown)
        out = {}
        for name, better, _ in metrics:
            p = [r[name] for r in runs["parent"]]
            c = [r[name] for r in runs["change"]]
            out[name] = judge(p, c, better)["verdict"]
        return out

    failures = []
    cases = (("A/A", 1.0, "unresolved"), ("3 % slower", 1.03, "loss"), ("3 % faster", 1 / 1.03, "gain"))
    for label, slowdown, want in cases:
        got = verdicts(1, slowdown)
        print(f"self-test {label}: {got}")
        failures += [f"{label}: {m} reads {v}, not {want}" for m, v in got.items() if v != want]
    tables = 100
    called = sum(v != "unresolved" for seed in range(2, 2 + tables) for v in verdicts(seed, 1.0).values())
    cells = tables * len(metrics)
    print(f"self-test A/A over {tables} tables: {called}/{cells} cells called")
    if called > 0.05 * cells:
        failures.append(f"A/A calls {called}/{cells} cells")
    if judge([1.0, 1.0], [1.0, 1.0], "higher")["verdict"] != "unresolved":
        failures.append("identical pairs must read unresolved")
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    summarise(argv[1], argv[2], int(argv[3]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
