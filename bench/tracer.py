"""Span tracing of the charm package's public functions, installed from
outside the package, and the per-layer metrics computed from the spans.

A span is (name, variant, start, end, parent, run id, items, failed). The
worker keeps spans in memory and writes them out when it ends. All calls
happen on one thread, so the child spans of a span never overlap and the
time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from pathlib import Path

GAPPY_DIR = "gappy"  # directory name the ingest workload gives its gappy copy


def _data_variant(path):
    """`gappy` for files in the benchmark's gappy copy, else `clean`."""
    path = Path(path)
    return "gappy" if GAPPY_DIR in (path.name, path.parent.name) else "clean"


def _rows_in_file(args, loaded):
    return (loaded.stream.n + loaded.dropped_rows, loaded.stream.n)


def _windows_seen(args, result):
    data, _, r = args[:3]
    return (len(data) // r, len(result[1]))


# (module, attribute, variant(tracer, args) or None, items(args, result) or None)
TARGETS = (
    ("synth", "gen_dataset", None, None),
    ("synth", "to_labeled_segments", None, None),
    ("synth", "write_dataset", None, lambda a, r: (sum(len(s.data) for s in a[0]),)),
    ("dataset", "load_stream", lambda t, a: _data_variant(a[0]), _rows_in_file),
    ("dataset", "segment_by_high_label", None, None),
    ("dataset", "make_fixed_length_samples", None, None),
    ("dataset", "loso_split", None, None),
    ("cli", "load_data_dir", lambda t, a: _data_variant(a[0]), None),
    ("cli", "fixed_length_dataset", None, None),
    ("preprocess", "fit_normalizer", None, None),
    ("preprocess", "normalize", None, None),
    ("preprocess", "window", None, None),
    ("neurocore", "softmax", None, None),
    ("neurocore", "log_softmax", None, None),
    ("neurocore", "weighted_cross_entropy", None, None),
    ("neurocore", "softmax_ce_grad", None, None),
    ("neurocore", "dropout_mask", None, None),
    ("neurocore", "Stack.forward", lambda t, a: t.role(a[0]), None),
    ("neurocore", "Stack.backward", lambda t, a: t.role(a[0]), None),
    ("neurocore", "Adam.step", lambda t, a: t.enclosing_variant("traineval.train"), None),
    ("model", "CharmModel.forward", None, None),
    ("model", "CharmModel.loss_and_grads", None, None),
    ("model", "CharmModel.embed_windows", None, lambda a, r: (len(a[1]),)),
    ("model", "MlpModel.forward", None, None),
    ("model", "MlpModel.loss_and_grads", None, None),
    ("model", "save_checkpoint", None, None),
    ("model", "load_checkpoint", None, None),
    ("traineval", "train", lambda t, a: a[1], None),
    ("traineval", "evaluate", None, None),
    ("embed", "label_pure_windows", None, _windows_seen),
    ("embed", "pca_fit", None, None),
    ("embed", "pca_transform", None, None),
    ("embed", "export_embedding", None, lambda a, r: (len(a[0]),)),
    ("embed", "silhouette_score", None, None),
)

NAME, VARIANT, START, END, PARENT, RUN, ITEMS, FAILED = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._open = []    # indices of the spans now running, innermost last
        self._roles = {}   # id(Stack) -> "low" | "high" | "mlp"
        self._models = []  # keeps registered models alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def call(self, name, variant, fn, args, kwargs, items):
        span = [name, variant, time.perf_counter_ns(), 0,
                self._open[-1] if self._open else -1, self.run_id, None, False]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = time.perf_counter_ns()
            self._open.pop()
        if items is not None:
            span[ITEMS] = items(args, result)
        return result

    def role(self, stack):
        return self._roles.get(id(stack), "other")

    def enclosing_variant(self, name):
        for i in reversed(self._open):
            if self.spans[i][NAME] == name:
                return self.spans[i][VARIANT]
        return None

    def _register(self, model):
        self._models.append(model)
        if hasattr(model, "stack"):
            self._roles[id(model.stack)] = "mlp"
        else:
            self._roles[id(model.low)] = "low"
            self._roles[id(model.high)] = "high"

    # -- installation ------------------------------------------------------

    def install(self, package="charm"):
        """Wrap every TARGETS entry at each name a caller looks it up by:
        the defining module and every package module that imported it."""
        for module_name, *_ in TARGETS:
            importlib.import_module(f"{package}.{module_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == package or k.startswith(package + ".")]
        for module_name, attr, variant, items in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, variant, items))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, variant, items)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        model = sys.modules[f"{package}.model"]
        for cls in (model.CharmModel, model.MlpModel):
            cls.__init__ = self._registering(cls.__init__)

    def _wrap(self, fn, name, variant, items):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            v = variant(self, args) if variant is not None else None
            return self.call(name, v, fn, args, kwargs, items)
        return traced

    def _registering(self, init):
        @functools.wraps(init)
        def registering(model, *args, **kwargs):
            init(model, *args, **kwargs)
            self._register(model)
        return registering

    # -- output ------------------------------------------------------------

    def write(self, path):
        """One tab-separated line per span; times in ns from the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\trun\tparent\tname\tvariant\tstart_ns\tend_ns\tfailed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[RUN]}\t{s[PARENT]}\t{s[NAME]}\t{s[VARIANT] or ''}\t"
                         f"{s[START] - t0}\t{s[END] - t0}\t{int(s[FAILED])}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics. Each is (name, unit, better, quantity, key, arg):
#   calls      median over iterations of the calls made in one iteration
#   self_ms    median over iterations of the self time spent in one iteration
#   failures   median over iterations of the calls that raised in one iteration
#   us_per_call / ms   median duration of one call, setup calls included
#   rate       items[arg] summed over all calls / seconds spent in them
#   ratio      sum of items[arg[0]] / sum of items[arg[1]]
#   us_per_step  (train self time + loss_and_grads + Adam.step) / Adam steps
# A key is a span name, or a span name and variant joined by a dot.

LAYER_METRICS = (
    ("neurocore.Adam.step.calls", "count", "lower", "calls", "neurocore.Adam.step", None),
    ("neurocore.Adam.step.us_per_call", "us", "lower", "us_per_call", "neurocore.Adam.step", None),
    ("neurocore.Adam.step.charm.us_per_call", "us", "lower", "us_per_call", "neurocore.Adam.step.charm", None),
    ("neurocore.Adam.step.mlp.us_per_call", "us", "lower", "us_per_call", "neurocore.Adam.step.mlp", None),
    ("neurocore.Stack.forward.low.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.forward.low", None),
    ("neurocore.Stack.forward.high.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.forward.high", None),
    ("neurocore.Stack.forward.mlp.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.forward.mlp", None),
    ("neurocore.Stack.backward.low.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.backward.low", None),
    ("neurocore.Stack.backward.high.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.backward.high", None),
    ("neurocore.Stack.backward.mlp.us_per_call", "us", "lower", "us_per_call", "neurocore.Stack.backward.mlp", None),
    ("neurocore.dropout_mask.self_ms", "ms", "lower", "self_ms", "neurocore.dropout_mask", None),
    ("neurocore.softmax_ce_grad.self_ms", "ms", "lower", "self_ms", "neurocore.softmax_ce_grad", None),
    ("model.CharmModel.loss_and_grads.self_ms", "ms", "lower", "self_ms", "model.CharmModel.loss_and_grads", None),
    ("model.CharmModel.loss_and_grads.us_per_call", "us", "lower", "us_per_call", "model.CharmModel.loss_and_grads", None),
    ("model.MlpModel.loss_and_grads.self_ms", "ms", "lower", "self_ms", "model.MlpModel.loss_and_grads", None),
    ("model.CharmModel.forward.us_per_call", "us", "lower", "us_per_call", "model.CharmModel.forward", None),
    ("model.CharmModel.embed_windows.windows_per_s", "1/s", "higher", "rate", "model.CharmModel.embed_windows", 0),
    ("model.save_checkpoint.ms", "ms", "lower", "ms", "model.save_checkpoint", None),
    ("model.load_checkpoint.ms", "ms", "lower", "ms", "model.load_checkpoint", None),
    ("traineval.train.self_ms", "ms", "lower", "self_ms", "traineval.train", None),
    ("traineval.train.charm.us_per_step", "us", "lower", "us_per_step", "traineval.train.charm", None),
    ("traineval.evaluate.ms", "ms", "lower", "ms", "traineval.evaluate", None),
    ("preprocess.normalize.self_ms", "ms", "lower", "self_ms", "preprocess.normalize", None),
    ("synth.gen_dataset.ms", "ms", "lower", "ms", "synth.gen_dataset", None),
    ("synth.write_dataset.rows_per_s", "1/s", "higher", "rate", "synth.write_dataset", 0),
    ("dataset.load_stream.clean.calls", "count", "lower", "calls", "dataset.load_stream.clean", None),
    ("dataset.load_stream.gappy.calls", "count", "lower", "calls", "dataset.load_stream.gappy", None),
    ("dataset.load_stream.clean.rows_per_s", "1/s", "higher", "rate", "dataset.load_stream.clean", 0),
    ("dataset.load_stream.gappy.rows_per_s", "1/s", "higher", "rate", "dataset.load_stream.gappy", 0),
    ("dataset.load_stream.gappy.rows_kept_ratio", "ratio", "higher", "ratio", "dataset.load_stream.gappy", (1, 0)),
    ("dataset.segment_by_high_label.self_ms", "ms", "lower", "self_ms", "dataset.segment_by_high_label", None),
    ("cli.load_data_dir.self_ms", "ms", "lower", "self_ms", "cli.load_data_dir", None),
    ("embed.label_pure_windows.windows_per_s", "1/s", "higher", "rate", "embed.label_pure_windows", 0),
    ("embed.label_pure_windows.kept_ratio", "ratio", "higher", "ratio", "embed.label_pure_windows", (1, 0)),
    ("embed.pca_fit.ms", "ms", "lower", "ms", "embed.pca_fit", None),
    ("embed.export_embedding.rows_per_s", "1/s", "higher", "rate", "embed.export_embedding", 0),
    ("embed.silhouette_score.ms", "ms", "lower", "ms", "embed.silhouette_score", None),
    ("embed.silhouette_score.failures", "count", "lower", "failures", "embed.silhouette_score", None),
)

# Computed by run.py from the traced and untraced workers of one run.
OVERHEAD_METRIC = ("bench.trace.overhead_ratio", "ratio", "lower")


class _Stats:
    def __init__(self):
        self.durations = []  # ns, every call
        self.per_run = {}    # run id -> [calls, self ns, failures]
        self.items = None

    def add(self, span, self_ns):
        self.durations.append(span[END] - span[START])
        run = self.per_run.setdefault(span[RUN], [0, 0, 0])
        run[0] += 1
        run[1] += self_ns
        run[2] += span[FAILED]
        if span[ITEMS] is not None:
            if self.items is None:
                self.items = [0] * len(span[ITEMS])
            for i, v in enumerate(span[ITEMS]):
                self.items[i] += v


def layer_metrics(spans, iterations):
    """Per-layer metrics of LAYER_METRICS from one worker's spans.
    `iterations` lists the run ids of the measured iterations."""
    child_ns = [0] * len(spans)
    step_ns = {}  # train span index -> [ns in loss_and_grads + Adam.step, steps]
    for s in spans:
        p = s[PARENT]
        if p < 0:
            continue
        child_ns[p] += s[END] - s[START]
        if s[NAME] in ("model.CharmModel.loss_and_grads", "neurocore.Adam.step"):
            acc = step_ns.setdefault(p, [0, 0])
            acc[0] += s[END] - s[START]
            acc[1] += s[NAME] == "neurocore.Adam.step"

    stats = {}
    for i, s in enumerate(spans):
        self_ns = s[END] - s[START] - child_ns[i]
        stats.setdefault(s[NAME], _Stats()).add(s, self_ns)
        if s[VARIANT] is not None:
            stats.setdefault(f"{s[NAME]}.{s[VARIANT]}", _Stats()).add(s, self_ns)

    def per_iteration(st, field):
        return statistics.median(st.per_run.get(r, (0, 0, 0))[field] for r in iterations)

    out = {}
    for name, unit, _, quantity, key, arg in LAYER_METRICS:
        st = stats.get(key)
        value = 0.0
        if st is None:
            pass
        elif quantity == "calls":
            value = per_iteration(st, 0)
        elif quantity == "self_ms":
            value = per_iteration(st, 1) / 1e6
        elif quantity == "failures":
            value = per_iteration(st, 2)
        elif quantity == "us_per_call":
            value = statistics.median(st.durations) / 1e3
        elif quantity == "ms":
            value = statistics.median(st.durations) / 1e6
        elif quantity == "rate":
            value = st.items[arg] / (sum(st.durations) / 1e9)
        elif quantity == "ratio":
            value = st.items[arg[0]] / st.items[arg[1]] if st.items[arg[1]] else 0.0
        elif quantity == "us_per_step":
            per_step = []
            for i, s in enumerate(spans):
                if s[NAME] == "traineval.train" and s[VARIANT] == key.rsplit(".", 1)[1]:
                    ns, steps = step_ns.get(i, (0, 0))
                    self_ns = s[END] - s[START] - child_ns[i]
                    if steps:
                        per_step.append((self_ns + ns) / steps)
            value = statistics.median(per_step) / 1e3 if per_step else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
