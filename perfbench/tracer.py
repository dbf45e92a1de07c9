"""Spans around calls into each skelact module, for the traced run.

The tracer replaces module and class attributes with timing wrappers while
it is installed and restores them afterwards; no file of the program is
changed. A name bound with ``from ... import`` is patched in the module
that imported it, since that is where the caller looks it up. Wrappers
only call through, so a traced run computes the same bytes as an untraced
one.

A span records name, start, end, parent span and run id (the traced pass
it belongs to). Spans stay in memory until ``write`` is called. Backward
time per op and per block comes from wrapping the ``backward_fn`` handed
to ``Tensor.__init__`` while an op or block span is open.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

# The public autodiff ops, in the order of skelact/autodiff.py.
OPS = ("add", "mul", "relu", "matmul_last", "transpose", "reshape", "reduce_sum",
       "mean", "temporal_subsample", "temporal_conv", "batch_norm_batch",
       "batch_norm_given", "dropout")
BLOCKS = 10

# (span name, module, attribute) for plain call-through wrappers.
TIMED = (
    ("manifest.load", "skelact.manifest", "DatasetManifest.load"),
    ("manifest.build_protocol", "skelact.manifest", "build_protocol"),
    ("manifest.build_protocol", "skelact.cli", "build_protocol"),
    ("graph.build", "skelact.model", "build_graph"),
    ("graph.build", "skelact.model", "partition_spatial"),
    ("sequence.load", "skelact.train", "load_sequence"),
    ("sequence.convert", "skelact.train", "convert_layout"),
    ("sequence.to_model_input", "skelact.train", "to_model_input"),
    ("pipeline.select_persons", "skelact.pipeline", "select_persons"),
    ("pipeline.pad", "skelact.pipeline", "pad_sequence"),
    ("pipeline.track", "skelact.train", "track"),
    ("pipeline.normalize", "skelact.train", "normalize_centralize"),
    ("pipeline.augment", "skelact.train", "augment_combined"),
    ("train.from_manifest", "skelact.train", "SequenceDataset.from_manifest"),
    ("train.loop", "skelact.train", "train_loop"),
    ("train.cross_entropy", "skelact.train", "cross_entropy"),
    ("train.sgd", "skelact.train", "SGD.step"),
    ("train.evaluate", "skelact.train", "evaluate"),
    ("train.evaluate", "skelact.cli", "evaluate"),
    ("model.save_weights", "skelact.cli", "save_weights"),
    ("model.load_weights", "skelact.cli", "load_weights"),
    ("model.load_weights", "skelact.train", "load_weights"),
    ("metrics.total", "skelact.train", "top_k_accuracy"),
) + tuple(
    ("metrics.total", "skelact.cli", name)
    for name in ("classwise_table", "confusion_matrix", "pearson",
                 "sequence_confidence", "spearman", "top_k_accuracy")
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = ["cli.prepare_s", "cli.train_s", "cli.eval_s", "cli.analyze_s",
             "manifest.load_s", "manifest.build_protocol_s", "graph.build_s",
             "keypoints.parse_s", "keypoints.parse_calls", "keypoints.parse_mb",
             "sequence.load_self_s", "sequence.convert_s",
             "sequence.to_model_input_s", "sequence.to_model_input_calls",
             "pipeline.select_persons_s", "pipeline.track_s", "pipeline.normalize_s",
             "pipeline.augment_s", "pipeline.augment_calls",
             "train.from_manifest_s", "train.steps", "train.step_s_p50",
             "train.cross_entropy_s", "train.sgd_s", "train.evaluate_s",
             "train.loop_self_s",
             "model.forward_train_s", "model.forward_eval_s",
             "model.save_weights_s", "model.load_weights_s"]
    for kind in ("fwd_s", "bwd_s", "nodes"):
        names += [f"model.block{i}.{kind}" for i in range(BLOCKS)]
    for op in OPS:
        names += [f"autodiff.{op}.fwd_s", f"autodiff.{op}.bwd_s", f"autodiff.{op}.calls"]
    names += ["autodiff.backward_s", "autodiff.backward_self_s",
              "autodiff.tensors_per_step", "autodiff.alloc_mb_per_step",
              "metrics.total_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith(("_s", "_s_p50")):
        return "s"
    if name.endswith(("_mb", "_mb_per_step")):
        return "MB"
    return "count"


class Tracer:
    """Collects spans and counters while installed; inactive otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run, block]
        self.run = 0
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._mode: str | None = None  # "train" or "eval" inside a network forward
        self._block: int | None = None
        self._op: str | None = None
        self._block_index: dict[int, int] = {}
        self.parse_bytes = 0
        self.forwards = Counter()      # mode -> network forward calls
        self.block_calls = Counter()   # (mode, block) -> block forward calls
        self.tensors = Counter()       # (mode, block) -> tensors constructed
        self.tensor_bytes = Counter()  # (mode, block) -> data + grad bytes

    @property
    def active(self) -> bool:
        return bool(self._undo)

    # ------------------------------------------------------------ spans

    def _open(self, name: str, block: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run, block])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def _span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        return self._span(name) if self.active else nullcontext()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, module: str, path: str, make) -> None:
        """Replace ``module.path`` by ``make(original function)``."""
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent[f"{module}.{path}"] = "not found in this version of skelact"
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def install(self, run: int) -> None:
        """Patch every traced name; spans recorded from now on carry ``run``."""
        self.run = run
        for name, module, path in TIMED:
            self._patch(module, path, functools.partial(self._timed, name))
        self._patch("skelact.sequence", "parse_keypoint_frame", self._wrap_parse)
        self._patch("skelact.model", "StgcnNetwork.forward", self._wrap_network)
        self._patch("skelact.model", "StgcnNetwork.__call__", self._wrap_network)
        self._patch("skelact.model", "StgcnBlock.forward", self._wrap_block)
        for op in OPS:
            self._patch("skelact.autodiff", op, functools.partial(self._wrap_op, op))
        self._patch("skelact.autodiff", "Tensor.__init__", self._wrap_tensor_init)
        self._patch("skelact.autodiff", "Tensor.backward",
                    functools.partial(self._timed, "autodiff.backward"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap_parse(self, fn):
        timed = self._timed("keypoints.parse", fn)

        @functools.wraps(fn)
        def wrapper(data, *args, **kwargs):
            self.parse_bytes += len(data)
            return timed(data, *args, **kwargs)
        return wrapper

    def _wrap_network(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(net, *args, **kwargs):
            bound = signature.bind(net, *args, **kwargs)
            mode = "train" if bound.arguments.get("training") else "eval"
            self._block_index = {id(block): i for i, block in enumerate(net.blocks)}
            self.forwards[mode] += 1
            outer, self._mode = self._mode, mode
            index = self._open(f"model.forward_{mode}")
            try:
                return fn(net, *args, **kwargs)
            finally:
                self._close(index)
                self._mode = outer
        return wrapper

    def _wrap_block(self, fn):
        @functools.wraps(fn)
        def wrapper(block, *args, **kwargs):
            number = self._block_index.get(id(block))
            self.block_calls[(self._mode, number)] += 1
            outer, self._block = self._block, number
            index = self._open(f"model.block{number}.fwd", number)
            try:
                return fn(block, *args, **kwargs)
            finally:
                self._close(index)
                self._block = outer
        return wrapper

    def _wrap_op(self, op: str, fn):
        name = f"autodiff.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._op = self._op, op
            index = self._open(name, self._block)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                self._op = outer
        return wrapper

    def _wrap_tensor_init(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(tensor, *args, **kwargs):
            bound = signature.bind(tensor, *args, **kwargs)
            if bound.arguments.get("backward_fn") is not None:
                bound.arguments["backward_fn"] = self._wrap_backward(
                    bound.arguments["backward_fn"])
            fn(*bound.args, **bound.kwargs)
            key = (self._mode, self._block)
            self.tensors[key] += 1
            grad = getattr(tensor, "grad", None)
            self.tensor_bytes[key] += tensor.data.nbytes + (
                grad.nbytes if grad is not None else 0)
        return wrapper

    def _wrap_backward(self, backward_fn):
        name = f"autodiff.{self._op or 'other'}.bwd"
        block = self._block

        def wrapper(grad):
            index = self._open(name, block)
            try:
                return backward_fn(grad)
            finally:
                self._close(index)
        return wrapper

    # ------------------------------------------------------------ results

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, run, block in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run,
                                         "block": block}) + "\n")

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics averaged per traced pass.

        Times and call counts are per pass. ``train.step_s_p50`` is the
        median step from a training forward to the end of its SGD step.
        Per-step figures and block node counts come from training forwards
        when the pass trains, from evaluation forwards otherwise.
        """
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        block_bwd = defaultdict(float)
        covered = defaultdict(float)
        steps, step_start = [], None
        for name, start, end, parent, _, block in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent, _, block) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[index]
            calls[name] += 1
            if name.endswith(".bwd") and block is not None:
                block_bwd[block] += end - start
            if name == "model.forward_train":
                step_start = start
            elif name == "train.sgd" and step_start is not None:
                steps.append(end - step_start)
                step_start = None

        mode = "train" if self.forwards["train"] else "eval"
        per = 1.0 / max(passes, 1)
        m = {
            "cli.prepare_s": total["cli.prepare"], "cli.train_s": total["cli.train"],
            "cli.eval_s": total["cli.eval"], "cli.analyze_s": total["cli.analyze"],
            "manifest.load_s": total["manifest.load"],
            "manifest.build_protocol_s": total["manifest.build_protocol"],
            "graph.build_s": total["graph.build"],
            "keypoints.parse_s": total["keypoints.parse"],
            "keypoints.parse_calls": calls["keypoints.parse"],
            "keypoints.parse_mb": self.parse_bytes / 1e6,
            "sequence.load_self_s": own["sequence.load"],
            "sequence.convert_s": total["sequence.convert"],
            "sequence.to_model_input_s": total["sequence.to_model_input"],
            "sequence.to_model_input_calls": calls["sequence.to_model_input"],
            "pipeline.select_persons_s": total["pipeline.select_persons"],
            "pipeline.track_s": total["pipeline.track"],
            "pipeline.normalize_s": total["pipeline.normalize"],
            "pipeline.augment_s": total["pipeline.augment"],
            "pipeline.augment_calls": calls["pipeline.augment"],
            "train.from_manifest_s": total["train.from_manifest"],
            "train.steps": len(steps),
            "train.cross_entropy_s": total["train.cross_entropy"],
            "train.sgd_s": total["train.sgd"],
            "train.evaluate_s": total["train.evaluate"],
            "train.loop_self_s": own["train.loop"],
            "model.forward_train_s": total["model.forward_train"],
            "model.forward_eval_s": total["model.forward_eval"],
            "model.save_weights_s": total["model.save_weights"],
            "model.load_weights_s": total["model.load_weights"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.backward_self_s": own["autodiff.backward"],
            "metrics.total_s": total["metrics.total"],
        }
        for i in range(BLOCKS):
            m[f"model.block{i}.fwd_s"] = total[f"model.block{i}.fwd"]
            m[f"model.block{i}.bwd_s"] = block_bwd[i]
        for op in OPS:
            m[f"autodiff.{op}.fwd_s"] = total[f"autodiff.{op}.fwd"]
            m[f"autodiff.{op}.bwd_s"] = total[f"autodiff.{op}.bwd"]
            m[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}.fwd"]
        m = {name: value * per for name, value in m.items()}

        m["train.step_s_p50"] = statistics.median(steps) if steps else 0.0
        forwards = self.forwards[mode]
        in_forward = [key for key in self.tensors if key[0] == mode]
        m["autodiff.tensors_per_step"] = (
            sum(self.tensors[k] for k in in_forward) / forwards if forwards else 0.0)
        m["autodiff.alloc_mb_per_step"] = (
            sum(self.tensor_bytes[k] for k in in_forward) / 1e6 / forwards
            if forwards else 0.0)
        for i in range(BLOCKS):
            count = self.block_calls[(mode, i)]
            m[f"model.block{i}.nodes"] = self.tensors[(mode, i)] / count if count else 0.0
        return {name: float(m[name]) for name in metric_names()}
