"""ddlink benchmark.

    python3 ddbench/run.py --workload link_desk --seed 7 --seconds 10 --trace 0
    python3 ddbench/run.py --workload all --seed 7 --seconds 10

Run from the root of a ddlink checkout; nothing needs building. Each
measurement runs in a fresh process (worker.py) with ``src`` on
PYTHONPATH and ``parallelism=1``, driving ddlink only through
``ddlink.harness.run``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
trials per second over ``--seconds`` of whole batches, set-up time
(process start to the first trial done; the median of five fresh
processes) and peak RSS. With ``--trace 1`` it reports the
per-layer metrics of a separate traced run. The last line printed is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the environment and details, which are also written to
``.ddbench_out/``.

With a list of workloads, or ``all`` (every workload in BENCHMARK.json),
it prints a table of every metric with its unit instead, plus the median
trial latency, the p90 where at least ten trials lie beyond it, and the
failed fraction.
"""

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = Path(".ddbench_out")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_child(mode, workload, seed, seconds, deadline):
    """Run worker.py to completion. Returns its JSON result with
    ``setup_s``: the time from starting the process to its ``ready``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    lines = queue.Queue()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)

    def pump():
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.strip()))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_at, last = None, None
    try:
        while True:
            at, line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                break
            if line == "ready" and ready_at is None:
                ready_at = at
            elif line:
                last = line
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise BenchError(f"{workload} {mode} run did not end in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0 or ready_at is None or last is None:
        raise BenchError(f"{workload} {mode} run failed (exit {proc.returncode})")
    result = json.loads(last)
    result["setup_s"] = ready_at - start
    return result


def measure(workload, seed, seconds, trace):
    """All runs of one workload; returns (result line, details)."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        runs = [run_child("trace", workload, seed, seconds, deadline)]
        metrics = runs[0]["trace"]["metrics"]
    else:
        runs = [run_child("measure", workload, seed, seconds, deadline)]
        runs += [run_child("probe", workload, seed, seconds, deadline)
                 for _ in range(SETUP_SAMPLES - 1)]
        main = runs[0]
        metrics = {k: main[k] for k in ("trials_per_s", "trial_ms_p50",
                                        "trial_ms_p90", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": all(r["correct"] for r in runs),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, runs


def select(metrics, declared):
    """The declared metrics, each with its unit, in declared order."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def table(name, result, runs, declared):
    main = runs[0]
    print(f"\n{name}: {main.get('trials', 0)} trials in "
          f"{main.get('batches', 0)} batches, correct={result['correct']}")
    for m in declared:
        print(f"  {m['name']:<40} {result['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
    n = main.get("trials", 0)
    if n:
        p90 = (f"{main['trial_ms_p90']:>14.6g} ms" if n >= 100
               else "omitted: fewer than ten trials beyond it")
        print(f"  {'trial_ms_p50':<40} {main['trial_ms_p50']:>14.6g} ms (n={n})")
        print(f"  {'trial_ms_p90':<40} {p90} (n={n})")
    print(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} trials)")
    for p in result.get("problems", []):
        print(f"  problem: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload, a comma-separated list, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/ddlink/__init__.py").is_file() or not Path("configs").is_dir():
        print("error: run from the root of a ddlink checkout "
              "(src/ddlink and configs/ not found)", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for name in names:
        try:
            result, runs = measure(name, args.seed, args.seconds, args.trace)
            result["metrics"] = select(result["metrics"], declared)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result_line = dict(result)
        result["problems"] = [p for r in runs for p in r["problems"]]
        details = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result, "runs": runs}
        out = OUT_DIR / f"{name}-s{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(details, indent=1))
        ok = ok and result["correct"]
        if len(names) > 1:
            table(name, result, runs, declared)
            continue
        for p in result["problems"]:
            print(f"problem: {p}", file=sys.stderr)
        print(json.dumps({"env": runs[0]["env"], "details": str(out)}))
        print(json.dumps(result_line))
    return 0 if ok or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
