"""In-memory span tracer and the wrappers that place it at seqbundle's layer boundaries.

Each public function is wrapped at the name its caller looks up, so no file of
the package changes: ``cli.load_dataset`` rather than ``dataio.load_dataset``,
because ``cli`` binds it at import time; ``neuralkit.matmul`` on the package,
because the models call ``nk.matmul`` through the package attribute; methods
on their classes, because callers reach them through instances.

Layer boundaries record full spans (name, start, end, parent span, run id).
Calls that happen up to hundreds of thousands of times per run (autodiff ops,
per-session validation, feature rows, count-model lookups) are kernels: they
are aggregated as counters on the enclosing span, so their time still counts
against that span's self time without one record per call.
"""

from __future__ import annotations

import json
import logging
import time
from collections import defaultdict
from pathlib import Path

# Autodiff op -> op kind reported as neuralkit.<kind>.
OP_KINDS = {
    "matmul": "matmul",
    "causal_softmax": "softmax",
    "softmax_rows": "softmax",
    "layer_norm": "layer_norm",
    "add": "pointwise",
    "mul": "pointwise",
    "scale": "pointwise",
    "relu": "pointwise",
    "tanh": "pointwise",
    "sigmoid": "pointwise",
    "transpose": "reshape",
    "concat_cols": "reshape",
    "concat_rows": "reshape",
    "slice_cols": "reshape",
    "take_rows": "reshape",
    "cross_entropy_mean": "loss",
}
OP_LAYERS = tuple(sorted({f"neuralkit.{kind}" for kind in OP_KINDS.values()}))

# The amount a kernel counter accumulates besides calls and seconds.
KERNEL_AMOUNT = {"neuralkit.matmul": "madds", "dataio.features": "rows"}


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "attrs", "kernels")

    def __init__(self, span_id: int, name: str, parent: int | None, run: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: dict[str, float] = {}
        self.kernels: dict[str, list] = {}

    def to_json(self) -> dict:
        return {
            "run": self.run,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "kernels": self.kernels,
        }


class Tracer:
    """Spans of the traced passes, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.run_id = ""
        self.enabled = False

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.run_id)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True))
                fh.write("\n")


def _span_wrapper(tracer: Tracer, name: str, fn, measure=None):
    def wrapped(*args, **kwargs):
        # A writer that calls another writer of the same layer is one span.
        if not tracer.enabled or (tracer.stack and tracer.stack[-1].name == name):
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure is not None:
            for key, value in measure(args, result).items():
                span.attrs[key] = span.attrs.get(key, 0) + value
        return result

    return wrapped


def _kernel_wrapper(tracer: Tracer, name: str, fn, amount=None):
    perf_counter = time.perf_counter

    def wrapped(*args, **kwargs):
        if not tracer.enabled or not tracer.stack:
            return fn(*args, **kwargs)
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        cell = tracer.stack[-1].kernels.get(name)
        if cell is None:
            cell = tracer.stack[-1].kernels[name] = [0, 0.0, 0]
        cell[0] += 1
        cell[1] += elapsed
        if amount is not None:
            cell[2] += amount(args, result)
        return result

    return wrapped


def _size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _tree_size(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Instrumentation:
    """Installs the wrappers for a traced pass and restores the originals after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.warnings = WarningCounter()
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def span(self, owner, attr: str, name: str, measure=None) -> None:
        self._patch(owner, attr, lambda fn: _span_wrapper(self.tracer, name, fn, measure))

    def kernel(self, owner, attr: str, name: str, amount=None) -> None:
        self._patch(owner, attr, lambda fn: _kernel_wrapper(self.tracer, name, fn, amount))

    def install(self) -> None:
        from seqbundle import artifacts, baselines, cli, dataio, evalkit, reports, synthgen
        from seqbundle import neuralkit as nk
        from seqbundle.neuralkit import autodiff
        from seqbundle.seqmodels import models, predictors

        self.span(cli, "load_dataset", "dataio.load", lambda a, r: {
            "sessions": len(r.sessions), "bytes": _size(a[0]) + _size(a[1])})
        self.span(cli, "split_dataset", "dataio.split")
        for attr in ("write_playlists_jsonl", "write_sessions_jsonl", "write_prompts_jsonl"):
            self.span(cli, attr, "dataio.write", lambda a, r: {"bytes": _size(a[0])})
        self.kernel(dataio, "validate_session", "domain.validate")
        self.kernel(dataio.FeaturePipeline, "fit", "dataio.features",
                    lambda a, r: sum(len(s.events) for s in a[1]))
        self.kernel(dataio.FeaturePipeline, "matrix", "dataio.features", lambda a, r: r.shape[0])
        self.kernel(dataio.FeaturePipeline, "labels", "dataio.features", lambda a, r: len(r))
        self.span(synthgen, "generate", "synthgen.generate",
                  lambda a, r: {"sessions": len(r.sessions)})

        self.span(cli, "fit_markov", "baselines.fit")
        self.span(cli, "fit_zero_order", "baselines.fit")
        for cls in (baselines.MarkovPredictor, baselines.ZeroOrderPredictor):
            self.kernel(cls, "predict_session", "baselines.predict_session")
            self.kernel(cls, "next_probs", "baselines.next_probs")

        for op, kind in OP_KINDS.items():
            amount = None
            if op == "matmul":
                amount = lambda a, r: a[0].data.shape[0] * a[0].data.shape[1] * a[1].data.shape[1]
            self.kernel(nk, op, f"neuralkit.{kind}", amount)
        self.span(autodiff.Tensor, "backward", "neuralkit.backward")
        self.span(nk, "adam_step", "neuralkit.adam")

        self.span(cli, "train_model", "seqmodels.train", lambda a, r: {
            "events": sum(m.shape[0] - 1 for m in a[1]) * a[3].epochs})
        for cls in (models.MLPModel, models.LSTMModel, models.TransformerModel):
            self.span(cls, "forward", "seqmodels.forward",
                      lambda a, r: {"rows": len(a[1])})
        self.span(predictors.NeuralPredictor, "predict_session", "seqmodels.predict_session",
                  lambda a, r: {
                      "scored": len(a[1].events) - 1,
                      "encoder_scored": 0 if a[0].is_causal else len(a[1].events) - 1})
        self.span(predictors.NeuralPredictor, "next_probs", "seqmodels.next_probs")

        self.span(cli, "evaluate_dataset", "evalkit.evaluate")
        self.span(cli, "summarize_dataset", "evalkit.summarize")
        self.span(evalkit, "rollout_session", "evalkit.rollout",
                  lambda a, r: {"events": len(r.events)})
        self.span(cli, "session_attention_profile", "attention.profile")

        self.span(artifacts, "save_predictor", "artifacts.save_predictor",
                  lambda a, r: {"bytes": _tree_size(r)})
        self.span(artifacts, "load_predictor", "artifacts.load_predictor",
                  lambda a, r: {"bytes": _tree_size(a[0])})
        self.span(artifacts, "write_manifest", "artifacts.manifest",
                  lambda a, r: {"bytes": _size(r)})
        self.span(artifacts, "sha256_file", "artifacts.sha256",
                  lambda a, r: {"bytes": _size(a[0])})
        written = lambda a, r: {"bytes": _size(r), "files": 1}
        for attr in ("write_json", "write_csv", "write_hit_rates_csv", "write_confusion_csv",
                     "write_demand_csv", "write_cdf_csv", "write_summary_csv", "write_svg"):
            self.span(reports, attr, "reports.write", written)
        self.span(artifacts, "write_json", "reports.write", written)

        self.warnings.count = 0
        logging.getLogger(baselines.__name__).addHandler(self.warnings)

    def remove(self) -> None:
        from seqbundle import baselines

        logging.getLogger(baselines.__name__).removeHandler(self.warnings)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls, seconds, self seconds and counters of one traced pass.

    Self time is a span's duration minus the part its child spans and its
    kernel counters cover. The two waste ratios and ops per train event are
    derived from which spans enclose which.
    """
    by_id = {s.id: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start

    def enclosing(span: Span, name: str) -> Span | None:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return by_id[parent]
            parent = by_id[parent].parent
        return None

    table: dict[str, float] = defaultdict(float)
    train_ops = 0
    rollout_rows = 0.0
    encoder_rows = 0.0
    for s in spans:
        duration = s.end - s.start
        kernel_s = sum(cell[1] for cell in s.kernels.values())
        table[f"{s.name}.calls"] += 1
        table[f"{s.name}.s"] += duration
        table[f"{s.name}.self_s"] += duration - child_s[s.id] - kernel_s
        for key, value in s.attrs.items():
            table[f"{s.name}.{key}"] += value
        for name, (calls, seconds, amount) in s.kernels.items():
            table[f"{name}.calls"] += calls
            table[f"{name}.s"] += seconds
            if name in KERNEL_AMOUNT:
                table[f"{name}.{KERNEL_AMOUNT[name]}"] += amount
        ops = sum(cell[0] for name, cell in s.kernels.items() if name in OP_LAYERS)
        if ops and (s.name == "seqmodels.train" or enclosing(s, "seqmodels.train")):
            train_ops += ops
        if s.name == "seqmodels.forward":
            if enclosing(s, "seqmodels.next_probs"):
                rollout_rows += s.attrs["rows"]
            owner = enclosing(s, "seqmodels.predict_session")
            if owner is not None and owner.attrs["encoder_scored"]:
                encoder_rows += s.attrs["rows"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    table["neuralkit.ops_per_train_event"] = ratio(train_ops, table["seqmodels.train.events"])
    table["seqmodels.rollout_rows_per_event"] = ratio(
        rollout_rows, table["seqmodels.next_probs.calls"])
    table["seqmodels.encoder_rows_per_scored_row"] = ratio(
        encoder_rows, table["seqmodels.predict_session.encoder_scored"])
    return dict(table)
