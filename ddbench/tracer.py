"""Outside-in tracing of a Python package by rebinding its public functions.

Every public module-level function of every module in the package is
replaced, in every module namespace that binds it, by a wrapper that
records a span: the function's name, its start and end, the span that
was open when it was called, and the trial it belongs to. The layer of
a span is the name of the module that defines the function, so a
function added to a module later is traced under that module with no
change here. Calls that do not go through a module attribute (a
function kept in a dict, a call from inside a class) are not seen.

Spans are kept in memory and summarized, or written out, at the end.
"""

import importlib
import inspect
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager

# Trial entry points of ddlink.harness; each call is one trial.
TRIAL_ENTRIES = ("harness.link_trial", "harness.sync_trial", "harness.mu_trial")


def package_modules(package):
    """The package itself and every module directly inside it."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(package):
    """``{"module.function": function}`` for every public module-level
    function defined in a module of ``package``."""
    out = {}
    for mod in package_modules(package)[1:]:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


@contextmanager
def rebound(package, wrappers):
    """Rebind functions in every module namespace of ``package``.

    ``wrappers`` maps each original function to its replacement. Every
    module attribute that is an original, under any name, is replaced,
    and all of them are put back on exit.
    """
    by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
    undo = []
    try:
        for mod in package_modules(package):
            for name, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    undo.append((mod, name, obj))
        yield
    finally:
        for mod, name, obj in reversed(undo):
            setattr(mod, name, obj)


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_estimate_channel(counts, fn, args, kwargs, result):
    counts["chanest.estimates"] += 1
    counts["chanest.empty"] += bool(result.is_empty)


def _observe_equalize_iterative(counts, fn, args, kwargs, result):
    counts["equalize.iterative_solves"] += 1
    counts["equalize.converged"] += bool(result.converged)
    counts["equalize.lsmr_iterations"] += int(result.iterations)


def _observe_estimate_sync(counts, fn, args, kwargs, result):
    # The link harness clamps the estimated offset into the record; count
    # the estimates it would have to clamp.
    a = _bind(fn, args, kwargs)
    frame = a["frame"]
    offset = result.total_offset(frame.M)
    counts["sync.estimates"] += 1
    counts["sync.offset_clamped"] += not (
        0 <= offset <= len(a["record"]) - frame.frame_len)


def _observe_build_dd_matrix(counts, fn, args, kwargs, result):
    m = result.matrix
    counts["channel.dd_matrix_bytes"] += m.shape[0] * m.shape[1] * m.itemsize


OBSERVERS = {
    "chanest.estimate_channel": _observe_estimate_channel,
    "equalize.equalize_iterative": _observe_equalize_iterative,
    "sync.estimate_sync": _observe_estimate_sync,
    "channel.build_dd_matrix": _observe_build_dd_matrix,
}


def _is_drawn_channel(layer, parent_layer, result):
    """A channel realization returned by the channel layer to a caller
    outside it (so a profile draw nested in another draw counts once)."""
    return (layer == "channel" and parent_layer != "channel"
            and hasattr(result, "n_spread") and hasattr(result, "taps"))


class Tracer:
    """Span recorder. Spans are tuples
    ``(name_index, start_ns, end_ns, parent_index, trial)``; a span
    outside any trial has trial -1, and the root has parent -1."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self.n_trials = 0
        self._stack = []       # indices of open spans
        self._layers = []      # layers of open spans
        self._trial = -1

    def wrap(self, qualname, fn):
        name_index = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(".", 1)[0]
        observe = OBSERVERS.get(qualname)
        is_trial = qualname in TRIAL_ENTRIES
        spans, stack, layers, counts = self.spans, self._stack, self._layers, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            parent_layer = layers[-1] if layers else None
            if is_trial:
                self._trial = self.n_trials
                self.n_trials += 1
            trial = self._trial
            index = len(spans)
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (name_index, start, end, parent, trial)
                if is_trial:
                    self._trial = -1
            if observe is not None:
                observe(counts, fn, args, kwargs, result)
            if _is_drawn_channel(layer, parent_layer, result):
                counts["channel.drawn"] += 1
                counts["channel.spread_over_cp"] += (
                    result.n_spread > result.frame.cp_len + 1)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package):
        """Trace every public function of ``package`` inside the block."""
        fns = public_functions(package)
        with rebound(package, {fn: self.wrap(q, fn) for q, fn in fns.items()}):
            yield self

    def summary(self):
        """Per-layer self time and calls, per-function inclusive time and
        calls, and caller->callee edges, over the spans inside trials.

        A span's self time is its duration minus its children's, so the
        self times of a trial's spans, the trial's own ``harness`` share
        included, sum to the trial's duration exactly.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self, layer_calls = Counter(), Counter()
        fn_ns, fn_calls, edges = Counter(), Counter(), Counter()
        trial_ns = 0
        for i, (ni, start, end, parent, trial) in enumerate(self.spans):
            if trial < 0:
                continue
            name = self.names[ni]
            layer = name.split(".", 1)[0]
            layer_self[layer] += end - start - child_ns[i]
            layer_calls[layer] += 1
            fn_ns[name] += end - start
            fn_calls[name] += 1
            if name in TRIAL_ENTRIES:
                trial_ns += end - start
            else:
                edges[f"{self.names[self.spans[parent][0]]}>{name}"] += 1
        return {"trials": self.n_trials, "trial_ns": trial_ns,
                "layer_self_ns": dict(layer_self), "layer_calls": dict(layer_calls),
                "fn_ns": dict(fn_ns), "fn_calls": dict(fn_calls),
                "edges": dict(edges), "counts": dict(self.counts)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,trial\n")
            for ni, start, end, parent, trial in self.spans:
                fh.write(f"{self.names[ni]},{start},{end},{parent},{trial}\n")
