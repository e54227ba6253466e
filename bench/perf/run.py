#!/usr/bin/env python3
"""Build and run the committed performance benchmark (see README.md here).

Run from anywhere inside a checkout of the repository:

  python3 bench/perf/run.py --workload paper-grid --seed 20170712 --seconds 15 --trace 0
      builds bench/perf/perf.exe, runs one workload and prints, as its last
      line, {"correct", "attempted", "failed", "metrics"} holding every
      end_to_end metric of BENCHMARK.json (every per_layer metric with
      --trace 1, whose spans go to .bench_out/<workload>-<seed>.trace.jsonl).
      The line before it is perf.exe's full record.

  python3 bench/perf/run.py --smoke
      every workload at toy size with tracing: each metric named in
      BENCHMARK.json must appear with its unit, the correctness gate must
      pass and the trace must reload with no skipped line.

  python3 bench/perf/run.py --series N --out FILE [--seed S] [--vary-seed]
      N interleaved rounds over every workload, each round running
      --trace 0 and --trace 1; appends every full record to FILE (JSON
      lines) and prints each metric's median and quartile spread.

  python3 bench/perf/run.py --check FILE [--baseline bench/perf/baseline.json]
      one verdict line per (metric, workload) for FILE's seed-20170712 runs:
      exact metrics and digests must equal the baseline's; measured metrics
      are judged against their bound (BENCHMARK.json's, else 10%).

  python3 bench/perf/run.py --record-baseline FILE [--baseline OUT]
      rewrites bench/perf/baseline.json (or OUT) from the seed-20170712
      records of a --series FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "perf", "perf.exe")
OUT = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline.json")
DEFAULT_SEED = 20170712
DEFAULT_BOUND = 0.10
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def local_env():
    """Keep the build's and the run's scratch files inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
                XDG_CACHE_HOME=os.path.join(OUT, "cache"))


def build():
    """Build perf.exe from source in this checkout, never from a shared cache."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bench/perf/perf.exe"],
        cwd=ROOT, env=local_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("dune build of bench/perf/perf.exe failed")


def perf(workload, seed, seconds, trace, smoke=False, expect_digest=None):
    """Run perf.exe once; returns (exit code, record, the lines before it)."""
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        # relative to the checkout, which is perf.exe's working directory
        trace_file = "%s-%d.trace.jsonl" % (workload, seed)
        args += ["--trace", os.path.join(os.path.basename(OUT), trace_file)]
    if smoke:
        args.append("--smoke")
    if expect_digest:
        args += ["--expect-digest", expect_digest]
    try:
        r = subprocess.run(args, cwd=ROOT, env=local_env(), stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perf.exe printed no record (exit %d)" % r.returncode)
    return r.returncode, record, lines[:-1]


def committed_digest(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(BASELINE):
        return None
    return load_json(BASELINE).get("digests", {}).get(workload)


def contract_run(a):
    names = [m["name"] for m in benchmark()["per_layer" if a.trace else "end_to_end"]]
    build()
    code, record, lines = perf(a.workload, a.seed, a.seconds, a.trace,
                               expect_digest=committed_digest(a.workload, a.seed))
    for line in lines:
        print(line)
    print(json.dumps(record))
    metrics = {}
    for name in names:
        if name not in record["metrics"]:
            fail("perf.exe reported no %s" % name)
        m = record["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if code == 0 and record["correct"] else 1)


def smoke(_a):
    spec = benchmark()
    wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    build()
    ok = True
    t0 = time.time()
    for w in spec["workloads"]:
        code, record, _ = perf(w["name"], DEFAULT_SEED, 0, True, smoke=True)
        problems = []
        if code != 0 or not record["correct"]:
            problems.append("correctness gate failed")
        for name, unit in wanted:
            m = record["metrics"].get(name)
            if m is None:
                problems.append("missing " + name)
            elif m["unit"] != unit:
                problems.append("%s in %s, not %s" % (name, m["unit"], unit))
        t = record.get("trace", {})
        if t.get("events", 0) == 0 or t.get("skipped", 1) != 0 or t.get("torn", True):
            problems.append("trace does not reload cleanly: %s" % t)
        print("%s %s%s" % ("PASS" if not problems else "FAIL", w["name"],
                            "" if not problems else ": " + "; ".join(problems)))
        ok = ok and not problems
    print("bench smoke %s in %.1f s" % ("passed" if ok else "FAILED", time.time() - t0))
    sys.exit(0 if ok else 1)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def series(a):
    spec = benchmark()
    build()
    records = []
    with open(a.out, "a") as out:
        for i in range(a.series):
            seed = a.seed + i if a.vary_seed else a.seed
            for w in spec["workloads"]:
                for trace in (False, True):
                    code, record, _ = perf(w["name"], seed, spec["run_seconds"], trace,
                                           expect_digest=committed_digest(w["name"], seed))
                    record["trace_run"] = trace
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    records.append(record)
                    print("round %d %s seed %d trace %d: exit %d"
                          % (i, w["name"], seed, trace, code), file=sys.stderr)
    for w in spec["workloads"]:
        for trace in (False, True):
            rs = [r for r in records if r["workload"] == w["name"] and r["trace_run"] == trace]
            if not rs:
                continue
            print("%s (trace %d, %d runs)" % (w["name"], trace, len(rs)))
            for name in rs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                print("  %-36s median %-12.6g spread %.4f" % (name, statistics.median(vals),
                                                             quartile_spread(vals)))


def verdict(base, new, bound, higher):
    """Compare two sets of runs of one measured metric (medians, quartiles)."""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return "unchanged" if mn == 0 else "unresolved", 0.0
    delta = (mn - mb) / abs(mb)
    worse = -delta if higher else delta
    better_all = (min(new) > max(base)) if higher else (max(new) < min(base))
    if worse > bound:
        return "regressed", delta
    if better_all and -worse > bound:
        return "improved", delta
    if max(quartile_spread(base), quartile_spread(new)) > bound:
        return "unresolved", delta
    return "unchanged", delta


def check(a):
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    base = load_json(a.baseline)
    with open(a.check) as f:
        new = [json.loads(line) for line in f if line.strip()]
    # exact metrics are only comparable on the baseline's seed
    new = [r for r in new if r["seed"] == base["seed"] and not r["smoke"]]
    if not new:
        fail("%s holds no run on seed %d" % (a.check, base["seed"]))
    old = base["records"]
    bad = False
    for w in sorted({r["workload"] for r in new}):
        for trace in (False, True):
            olds = [r for r in old if r["workload"] == w and r["trace_run"] == trace]
            news = [r for r in new if r["workload"] == w and r.get("trace_run", False) == trace]
            if not olds or not news:
                continue
            label = w + (" traced" if trace else "")
            if not trace:
                ok = {r["digest"] for r in news} == {base["digests"].get(w)}
                print("%-20s %-36s %s" % (label, "digest", "same" if ok else "CHANGED"))
                bad = bad or not ok
            for name in olds[0]["metrics"]:
                m = base["metrics"][name]
                b = [r["metrics"][name] for r in olds]
                n = [r["metrics"][name]["value"] for r in news if name in r["metrics"]]
                if not n:
                    print("%-20s %-36s MISSING" % (label, name))
                    bad = True
                elif m["exact"]:
                    same = all(v == b[0] for v in n) and all(v == b[0] for v in b)
                    print("%-20s %-36s %s" % (label, name, "same" if same else "CHANGED"))
                    bad = bad or not same
                else:
                    v, d = verdict(b, n, bounds.get(name, DEFAULT_BOUND), m["better"] == "higher")
                    print("%-20s %-36s %-10s %+.1f%%" % (label, name, v, 100 * d))
                    bad = bad or v == "regressed"
    sys.exit(1 if bad else 0)


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return "%d-core %s (%s), %s" % (os.cpu_count(), model, platform.machine(), platform.system())


def record_baseline(a):
    with open(a.record_baseline) as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if r["seed"] == DEFAULT_SEED and not r["smoke"]]
    digests = {}
    for r in records:
        if digests.setdefault(r["workload"], r["digest"]) != r["digest"]:
            fail("runs of %s disagree on the outcome digest" % r["workload"])
    meta = {}
    for r in records:
        for name, m in r["metrics"].items():
            meta.setdefault(name, {k: m[k] for k in ("unit", "exact", "better")})
    keep = ("workload", "seed", "trace_run", "rounds", "digest", "correct")
    lines = ["    " + json.dumps(dict({k: r[k] for k in keep}, metrics={
        name: m["value"] for name, m in r["metrics"].items()})) for r in records]
    with open(a.baseline, "w") as f:
        f.write('{\n  "seed": %d,\n  "host": %s,\n  "ocaml": %s,\n  "digests": %s,\n'
                '  "metrics": %s,\n  "records": [\n%s\n  ]\n}\n'
                % (DEFAULT_SEED, json.dumps(host()), json.dumps(records[0]["env"]["ocaml"]),
                   json.dumps(digests), json.dumps(meta), ",\n".join(lines)))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--series", type=int)
    p.add_argument("--out")
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--check")
    p.add_argument("--baseline", default=BASELINE)
    p.add_argument("--record-baseline")
    a = p.parse_args()
    if a.record_baseline:
        record_baseline(a)
    elif a.smoke:
        smoke(a)
    elif a.series:
        if not a.out:
            fail("--series needs --out FILE")
        series(a)
    elif a.check:
        check(a)
    elif a.workload:
        if a.seconds is None:
            a.seconds = benchmark()["run_seconds"]
        contract_run(a)
    else:
        p.print_usage(sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
