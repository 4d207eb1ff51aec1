#!/usr/bin/env python3
"""End-to-end PerfPlay benchmark (see README.md next to this file).

Builds the library, the CLI, the preload shim and the workload runner
into build-e2e/, runs each workload in a fresh runner process, checks
every answer, and prints every end-to-end metric with its unit.

    python3 bench/e2e/run.py                 # all six workloads, seed 1
    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --sets 2 --runs 10   # noise self-check
    python3 bench/e2e/run.py --traced        # per-layer self-time tables
    python3 bench/e2e/run.py --smoke         # 1/8 scale, parity only

With --workload the last stdout line is one JSON object: the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The exit code is non-zero when any answer check fails.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
RUNNER = os.path.join(BUILD, "perfplay_e2e")
WORKLOADS = ["mysql-pipeline", "parsec-pipeline", "table1-allpairs",
             "replay-sweep", "serve-open-loop", "record-lockloop"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the four targets up to date."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
        # The repository's CMakeLists links compile_commands.json into
        # the top-level source directory, which here is bench/e2e.
        link = os.path.join(HERE, "compile_commands.json")
        if os.path.islink(link):
            os.unlink(link)
    run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
              "build")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed")


def run_workload(workload, seed, seconds, trace, div=1, setups=3,
               ladder=False):
    """One workload in a fresh runner process; returns its raw result."""
    work = os.path.join(BUILD, "work", f"{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [RUNNER, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--div", str(div), "--setups", str(setups)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", "--spans", os.path.join(spans, workload + ".json")]
    if ladder:
        cmd += ["--ladder"]
    # Own session, so a timeout takes down the daemon and the recorded
    # programs the runner started along with it.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: runner exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_expected(seed):
    path = os.path.join(HERE, "expected", f"seed-{seed}.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def evaluate(raw, expected):
    """Turns a runner result into metrics plus the list of failed checks.

    A failed check the runner did not charge to single operations (a
    wrong expected answer, a trace that does not validate) fails every
    operation: raw["failed"] becomes raw["attempted"].
    """
    failures = [f"{name}: {c['detail']}" for name, c in raw["checks"].items()
                if not c["ok"]]
    want = expected.get(raw["workload"])
    if want is not None and want != raw["answers"]:
        failures.append("answers differ from " +
                        f"expected/seed-{int(raw['seed'])}.json")
    if failures and not raw["failed"]:
        raw["failed"] = raw["attempted"]
    e2e = {
        "latency_ms": statistics.median(raw["op_ms"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(raw["setup_s"]),
    }
    return e2e, failures


def stamp():
    """Environment header: what makes two runs comparable."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cal = json.loads(subprocess.run([RUNNER, "calibrate"], capture_output=True,
                                    text=True, check=True).stdout)
    return {
        "git_sha": sha,
        "compiler": cal["compiler"],
        "build_type": cal["build_type"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "effective_cpus": round(cal["effective_cpus"], 2),
    }


def print_stamp(env, daemon_workers=None):
    line = ", ".join(f"{k} {v}" for k, v in env.items())
    if daemon_workers:
        line += f", daemon workers {daemon_workers}"
    print(f"# {line}")


def daemon_workers(raw):
    """The worker count from the serve daemon's start-up line."""
    m = re.search(r"(\d+) worker\(s\)", raw["info"].get("daemon", ""))
    return m.group(1) if m else None


def write_results(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def contract_run(args, bench):
    """One workload, one JSON line: the form the benchmark is run in."""
    raw = run_workload(args.workload, args.seed, args.seconds, args.trace)
    env = stamp()
    print_stamp(env, daemon_workers(raw))
    e2e, failures = evaluate(raw, load_expected(args.seed))
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        metrics = {m["name"]: {"value": raw["layers"].get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    write_results(args.out, {"env": env, "raw": raw, "metrics": metrics})
    print(json.dumps({"correct": not failures,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 1 if failures else 0


def table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                        for i, (c, w) in enumerate(zip(r, widths))))


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def suite_run(args, bench):
    """Every workload: --runs seeds per set, --sets sets, one table."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    env = stamp()
    div, setups = (8, 1) if args.smoke else (1, 3)
    seconds = 0 if args.smoke else args.seconds
    seeds = [args.seed + i for i in range(args.runs)]
    workloads = [args.workload] if args.workload else WORKLOADS
    sets, all_failures, raws = [], [], []
    for s in range(args.sets):
        per = {}
        for w in workloads:
            for seed in seeds:
                t0 = time.time()
                # The rate ladder adds ~15 s; only a single plain run
                # climbs it.
                raw = run_workload(w, seed, seconds, False, div, setups,
                                 ladder=w == "serve-open-loop" and
                                 not args.smoke and args.sets * args.runs == 1)
                expected = {} if args.smoke else load_expected(seed)
                e2e, failures = evaluate(raw, expected)
                e2e["failed_frac"] = raw["failed"] / max(raw["attempted"], 1)
                all_failures += [f"{w} seed {seed}: {f}" for f in failures]
                per.setdefault(w, []).append((e2e, raw))
                raws.append({"set": s, "raw": raw, "metrics": e2e})
                print(f"  set {s + 1} {w} seed {seed}: "
                      f"{time.time() - t0:.1f} s wall, "
                      f"{len(raw['op_ms'])} ops, "
                      f"{'ok' if not failures else 'FAILED'}",
                      file=sys.stderr)
        sets.append(per)

    workers = next((daemon_workers(r) for e, r in
                    sets[0].get("serve-open-loop", [])), None)
    print_stamp(env, workers)
    names = list(units) + ["failed_frac"]
    units["failed_frac"] = "frac"
    if args.sets == 1:
        rows = []
        for w in workloads:
            runs = sets[0][w]
            row = [w] + [fmt(statistics.median(e[n] for e, _ in runs))
                         for n in names]
            info, layers = runs[0][1]["info"], runs[0][1]["layers"]
            extra = []
            if "serve.p99_ms" in layers:
                extra.append(f"p99 {layers['serve.p99_ms']:.1f} ms")
            if "serve_max_rps" in info:
                extra.append(f"serve_max_rps {info['serve_max_rps']:.0f}")
            if "record.slowdown" in layers:
                extra.append(f"slowdown {layers['record.slowdown']:.3f}x")
            n_ops = len(runs[0][1]["op_ms"])
            rows.append(row + [n_ops, "; ".join(extra)])
        table(rows, ["workload"] + [f"{n} ({units[n]})" for n in names] +
              ["ops", "notes"])
    else:
        rows = []
        for w in workloads:
            for n in names:
                meds, spreads = [], []
                for per in sets:
                    vals = [e[n] for e, _ in per[w]]
                    med = statistics.median(vals)
                    meds.append(med)
                    if len(vals) >= 2 and med:
                        q = statistics.quantiles(vals, n=4)
                        spreads.append((q[2] - q[0]) / med)
                bound = bounds.get(n)
                drift = (meds[-1] - meds[0]) / meds[0] if meds[0] else 0
                verdict = ("-" if bound is None else
                           "ok" if drift <= bound and
                           all(sp <= bound for sp in spreads) else "OVER")
                rows.append([w, n] + [fmt(m) for m in meds] +
                            [f"{drift:+.1%}",
                             " ".join(f"{sp:.1%}" for sp in spreads),
                             "-" if bound is None else f"{bound:.0%}",
                             verdict])
        table(rows, ["workload", "metric"] +
              [f"set {i + 1}" for i in range(args.sets)] +
              ["drift", "spread (IQR/median)", "bound", ""])
    write_results(args.out, {"env": env, "runs": raws})
    for f in all_failures:
        print(f"FAILED {f}", file=sys.stderr)
    return 1 if all_failures else 0


def traced_run(args, bench):
    """One traced run per workload: self-time table, coverage, tracing
    overhead, and the share of the layer each workload was chosen for."""
    env = stamp()
    print_stamp(env)
    failures = []
    for w in ([args.workload] if args.workload else WORKLOADS):
        traced = run_workload(w, args.seed, args.seconds, True)
        failures += [f"{w}: {f}" for f in
                     evaluate(traced, load_expected(args.seed))[1]]
        self_s = traced["self_s"]
        # Wall time of the traced operations (serve: each request's own
        # due-to-done time).
        phase = traced["traced_s"]
        covered = sum(self_s.values())
        overhead = traced["layers"].get("tracing_overhead_frac", 0)
        print(f"\n{w}: traced wall {phase:.3f} s, layers cover "
              f"{covered / phase:.1%}, tracing_overhead_frac "
              f"{overhead:+.4f}")
        table([[name, f"{v:.4f}", f"{v / phase:.1%}"]
               for name, v in sorted(self_s.items(), key=lambda kv: -kv[1])],
              ["layer", "self s", "share"])
        share = {
            "mysql-pipeline": ("transform.transform",),
            "table1-allpairs": ("detect.detect", "debug.report"),
        }.get(w)
        if share:
            part = sum(self_s.get(s, 0) for s in share)
            print(f"  {' + '.join(share)}: {part / phase:.1%} of wall")
        if w == "replay-sweep":
            sim = sum(v for k, v in self_s.items() if k.startswith("sim."))
            print(f"  sim.*: {sim / phase:.1%} of sweep time")
        if w == "record-lockloop":
            print(f"  record drops: {traced['layers']['record.drops']:.0f}")
        if abs(covered / phase - 1) > 0.05:
            failures.append(f"{w}: layers cover {covered / phase:.1%} of wall")
    print(f"\nspans: {os.path.join(BUILD, 'spans')}/<workload>.json")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--runs", type=int, default=1,
                   help="seeds per workload in each set")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=os.path.join(BUILD, "results.json"))
    args = p.parse_args()

    build()
    if args.traced:
        return traced_run(args, bench)
    if args.workload and not (args.sets > 1 or args.runs > 1 or args.smoke):
        return contract_run(args, bench)
    return suite_run(args, bench)


if __name__ == "__main__":
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{os.path.join(ROOT, need)} not found: run from a full "
                 "PerfPlay checkout")
    sys.exit(main())
