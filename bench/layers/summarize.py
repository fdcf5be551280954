#!/usr/bin/env python3
"""Turns bench_layers records into a result line, a merged report or a
comparison of two reports.

  summarize.py line RECORD BENCHMARK_JSON
      The result line of one run: the metrics BENCHMARK.json declares for
      the run's mode (end_to_end for --trace 0, per_layer for --trace 1).
  summarize.py merge OUT_JSON BENCHMARK_JSON RECORD...
      Writes every record into OUT_JSON and prints, per workload and
      metric, the median and quartiles over the records.
  summarize.py compare BENCHMARK_JSON BASE_JSON NEW_JSON
      Compares two merged reports: every end-to-end median of NEW may be
      worse than BASE's by at most the metric's bound, and every counter
      must be equal for each (workload, seed) both reports ran.  Exits 1
      otherwise.
"""
import json
import statistics
import sys

EXACT_UNITS = ("count", "bytes")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def fail(message):
    print(f"summarize.py: {message}", file=sys.stderr)
    sys.exit(1)


def declared(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def line(record_path, bench_path):
    record, bench = load(record_path), load(bench_path)
    metrics = {}
    for spec in declared(bench, record["trace"]):
        got = record["metrics"].get(spec["name"])
        if got is None:
            fail(f"{record_path} lacks the declared metric {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']} is in {got['unit']}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, bench):
    """{workload: {metric: row}} over every run of each workload."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    declared_names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            key = (run["workload"], name)
            values.setdefault(key, (metric["unit"], []))[1].append(metric["value"])
    summary = {}
    for (workload, name), (unit, vals) in sorted(values.items()):
        q1, med, q3 = quartiles(vals)
        summary.setdefault(workload, {})[name] = {
            "unit": unit, "n": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "bound": bounds.get(name), "declared": name in declared_names}
    return summary


def merge(out_path, bench_path, record_paths):
    bench = load(bench_path)
    runs = [load(p) for p in record_paths]
    summary = summarize(runs, bench)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"summary": summary, "runs": runs}, f, indent=1)
    print(f"{'workload':16} {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  unit")
    for workload, rows in summary.items():
        for name, row in sorted(rows.items(), key=lambda kv: (not kv[1]["declared"], kv[0])):
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            flag = " !" if row["bound"] is not None and row["spread"] > row["bound"] / 3 else ""
            print(f"{workload:16} {name:38} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:7.3f} {bound:>6}  {row['unit']}{flag}")
    failed = [f"{r['workload']} seed {r['seed']} trace {r['trace']}: {e}"
              for r in runs for e in r["errors"]]
    for message in failed:
        print(f"FAILED {message}")
    print(f"{len(runs)} runs, {len(failed)} oracle failures; report: {out_path}")
    if failed:
        sys.exit(1)


def compare(bench_path, base_path, new_path):
    bench, base, new = load(bench_path), load(base_path), load(new_path)
    problems = []
    print(f"{'workload':16} {'metric':20} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6}")
    for spec in bench["end_to_end"]:
        for workload, rows in sorted(base["summary"].items()):
            a = rows.get(spec["name"])
            b = new["summary"].get(workload, {}).get(spec["name"])
            if a is None or b is None:
                problems.append(f"{workload} {spec['name']}: missing")
                continue
            worse = (b["median"] - a["median"]) / a["median"]
            if spec["better"] == "higher":
                worse = -worse
            mark = ""
            if worse > spec["bound"]:
                mark = " REGRESSION"
                problems.append(f"{workload} {spec['name']} worse by {worse:.3f}")
            print(f"{workload:16} {spec['name']:20} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{worse:9.3f} {spec['bound']:6.2f}{mark}")
    counters = {}
    for report, side in ((base, 0), (new, 1)):
        for run in report["runs"]:
            for name, metric in run["metrics"].items():
                if metric["unit"] in EXACT_UNITS:
                    key = (run["workload"], run["seed"], run["trace"], name)
                    counters.setdefault(key, [None, None])[side] = metric["value"]
    compared = 0
    for key, (a, b) in sorted(counters.items()):
        if a is None or b is None:
            continue
        compared += 1
        if a != b:
            problems.append(f"counter {key}: {a} != {b}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{compared} counters compared, {len(problems)} problems")
    if problems:
        sys.exit(1)


def main(argv):
    if len(argv) == 4 and argv[1] == "line":
        line(argv[2], argv[3])
    elif len(argv) >= 5 and argv[1] == "merge":
        merge(argv[2], argv[3], argv[4:])
    elif len(argv) == 5 and argv[1] == "compare":
        compare(argv[2], argv[3], argv[4])
    else:
        fail(__doc__)


if __name__ == "__main__":
    main(sys.argv)
