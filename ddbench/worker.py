"""One measurement process for one workload.

Started by run.py from the root of a ddlink checkout, with ``src`` on
PYTHONPATH. It imports ddlink, builds the workload's spec from its
committed config, runs the warm-up trial (a batch with recorded rows, so
every run checks the program against the seed commit), prints
``ready`` and then, depending on ``--mode``:

* ``probe``: stops; run.py times process start to ``ready`` (set-up).
* ``measure``: times every trial call for ``--seconds`` of whole batches.
* ``trace``: the same for half the time, then runs the same batches
  again with every public ddlink function traced.
* ``record``: runs the workload's reference batches at its default seed
  and prints their rows, for reference.json.

The last line it prints is one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from checks import check_rows, check_trial, rows_digest
from tracer import Tracer, package_modules, public_functions, rebound
from workloads import WORKLOADS, batch_seed

REFERENCE = Path(__file__).with_name("reference.json")
TRIAL_FNS = ("link_trial", "sync_trial", "mu_trial")
OUT_DIR = Path(".ddbench_out")


def load_ddlink(root):
    import ddlink
    src = (root / "src").resolve()
    if Path(ddlink.__file__).resolve().parent.parent != src:
        raise SystemExit(f"ddlink was imported from {ddlink.__file__}, "
                         f"not from {src}")
    return ddlink


def workload_spec(w):
    """The spec ``ddlink run <config>`` would build, with the workload's
    overrides applied to the parsed config."""
    from ddlink.cli import REFERENCE_SCALE
    from ddlink.config import load_config, spec_from_config
    cfg = load_config(w.config)
    cfg.update(w.overrides)
    if w.reference_scale:
        cfg["frame.M"], cfg["frame.N"] = REFERENCE_SCALE
    return spec_from_config(cfg)


class Runner:
    """Runs batches through ``ddlink.harness.run``, timing each trial call
    and checking each trial and each batch's rows."""

    def __init__(self, ddlink, spec, batch_trials):
        self.ddlink = ddlink
        self.spec = spec
        self.batch_trials = batch_trials
        self.trial_ns = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.check_s = 0.0
        self._batch = []

    def _timed(self, fn):
        batch, clock = self._batch, time.perf_counter_ns

        def timed_trial(*args, **kwargs):
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                batch.append((clock() - start, None))
                raise
            batch.append((clock() - start, out))
            return out
        return timed_trial

    @contextmanager
    def timing(self):
        """Time the trial entry points as ddlink.harness looks them up."""
        h = self.ddlink.harness
        fns = [getattr(h, name) for name in TRIAL_FNS]
        with rebound(self.ddlink, {fn: self._timed(fn) for fn in fns}):
            yield

    def note(self, text):
        if len(self.problems) < 10:
            self.problems.append(text)

    def batch(self, spec, expected=None):
        """One ``harness.run`` call; ``expected`` is the recorded
        results.csv text or its digest. Returns the csv text."""
        self._batch.clear()
        try:
            rows = self.ddlink.harness.run(spec)
        except Exception as exc:  # counted as failed trials; the run goes on
            traceback.print_exc()
            n = max(1, len(self._batch))
            self.attempted += n
            self.failed += n
            self.note(f"seed {spec.seed}: {type(exc).__name__}: {exc}")
            return None
        t0 = time.perf_counter()
        self.trial_ns.extend(ns for ns, _ in self._batch)
        self.attempted += len(self._batch)
        bad = 0
        for _, out in self._batch:
            reason = check_trial(spec.kind, out)
            if reason:
                bad += 1
                self.note(f"seed {spec.seed}: {reason}")
        text = self.ddlink.harness.rows_to_csv(rows)
        reason = check_rows(spec, rows)
        if reason is None and expected is not None and expected not in (
                text, rows_digest(text)):
            reason = "rows differ from the rows recorded at the seed commit:\n" + text
        if reason:
            bad = len(self._batch)
            self.note(f"seed {spec.seed}: {reason}")
        self.failed += bad
        self._batch.clear()
        self.check_s += time.perf_counter() - t0
        return text

    def window(self, seed, seconds=None, batches=None, reference=()):
        """Whole batches for ``seconds`` (or exactly ``batches``), from
        batch 0 of ``seed``. Returns (batches run, seconds of trials and
        harness, checks excluded)."""
        self.trial_ns.clear()
        self.check_s = 0.0
        b = 0
        start = time.perf_counter()
        while True:
            spec = replace(self.spec, seed=batch_seed(seed, b),
                           trials=self.batch_trials)
            self.batch(spec, reference[b] if b < len(reference) else None)
            b += 1
            if batches is not None:
                if b >= batches:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        return b, time.perf_counter() - start - self.check_s


def environment(root, seed):
    import numpy
    import scipy

    def blas(mod):
        try:
            b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (KeyError, TypeError):
            return "unknown"

    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": threads or "unset (OpenBLAS starts one thread per cpu)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_sha1": tree_digest(root / "src"),
        "seed": seed,
        "parallelism": "1 (harness.run in this process, no worker pool)",
    }


def git_commit(root):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def tree_digest(path):
    h = hashlib.sha1()
    for p in sorted(path.rglob("*.py")):
        h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def trace_metrics(ddlink, summary, untraced_ns, traced_ns):
    """Per-layer figures of one traced window, for every ddlink layer and
    every public function whether called or not."""
    n = max(summary["trials"], 1)
    counts = summary["counts"]

    def frac(num, base):
        return counts.get(num, 0) / counts[base] if counts.get(base) else 0.0

    m = {"trace.trials": summary["trials"],
         "trace.overhead_frac": traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0}
    layers = [mod.__name__.rsplit(".", 1)[-1] for mod in package_modules(ddlink)[1:]]
    for layer in layers:
        m[f"{layer}.self_ms_per_trial"] = summary["layer_self_ns"].get(layer, 0) / 1e6 / n
        m[f"{layer}.calls_per_trial"] = summary["layer_calls"].get(layer, 0) / n
    for name in public_functions(ddlink):
        calls = summary["fn_calls"].get(name, 0)
        m[f"{name}.ms_per_call"] = summary["fn_ns"][name] / 1e6 / calls if calls else 0.0
    m["channel.dd_matrix_mb_per_trial"] = counts.get("channel.dd_matrix_bytes", 0) / 1e6 / n
    m["equalize.lsmr_iterations_mean"] = frac("equalize.lsmr_iterations",
                                              "equalize.iterative_solves")
    for name, num, base in (
            ("chanest.empty_frac", "chanest.empty", "chanest.estimates"),
            ("equalize.converged_frac", "equalize.converged", "equalize.iterative_solves"),
            ("sync.offset_clamped_frac", "sync.offset_clamped", "sync.estimates"),
            ("channel.spread_over_cp_frac", "channel.spread_over_cp", "channel.drawn")):
        m[name] = frac(num, base)
        m[f"{name}.base"] = counts.get(base, 0)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", required=True,
                    choices=("probe", "measure", "trace", "record"))
    args = ap.parse_args(argv)
    root = Path.cwd()
    w = WORKLOADS[args.workload]

    ddlink = load_ddlink(root)
    spec = workload_spec(w)
    default_seed = spec.seed
    seed = default_seed if args.seed is None else args.seed
    runner = Runner(ddlink, spec, w.batch_trials)

    ref = {}
    if args.mode != "record":
        ref = json.loads(REFERENCE.read_text()).get(w.name, {})
        if ref.get("seed") != default_seed or ref.get("batch_trials") != w.batch_trials:
            runner.note(f"no recorded rows for {w.name} at seed {default_seed}")
            ref = {}
    warm = replace(spec, seed=batch_seed(default_seed, 0), trials=1,
                   snr_db=spec.snr_db[:1])
    with runner.timing():
        warm_text = runner.batch(warm, ref.get("warmup"))
    print("ready", flush=True)

    result = {}
    if args.mode == "record":
        with runner.timing():
            texts = [runner.batch(replace(spec, seed=batch_seed(default_seed, b),
                                          trials=w.batch_trials))
                     for b in range(w.reference_batches)]
        result["reference"] = {"seed": default_seed, "batch_trials": w.batch_trials,
                               "warmup": warm_text,
                               "batches": [rows_digest(t) for t in texts]}
    elif args.mode in ("measure", "trace"):
        reference = ref.get("batches", ()) if seed == default_seed else ()
        seconds = args.seconds if args.mode == "measure" else args.seconds / 2
        with runner.timing():
            batches, wall = runner.window(seed, seconds=seconds, reference=reference)
        times = np.array(runner.trial_ns or [0], dtype=float) / 1e6
        result.update({
            "trials": len(runner.trial_ns), "batches": batches, "window_s": wall,
            "trials_per_s": len(runner.trial_ns) / wall,
            "trial_ms_p50": float(np.percentile(times, 50)),
            "trial_ms_p90": float(np.percentile(times, 90)),
        })
        if args.mode == "trace":
            untraced_ns = sum(runner.trial_ns)
            tracer = Tracer()
            with tracer.installed(ddlink), runner.timing():
                runner.window(seed, batches=batches, reference=reference)
            summary = tracer.summary()
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{w.name}-s{seed}.csv"
            tracer.write_spans(spans)
            result["trace"] = {
                "metrics": trace_metrics(ddlink, summary, untraced_ns,
                                         sum(runner.trial_ns)),
                "edges": summary["edges"], "spans": str(spans),
                "span_count": len(tracer.spans)}

    result.update({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(root, seed),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
