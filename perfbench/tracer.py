"""Outside-in span tracer for the benchmark's traced run.

It replaces, from outside the package, the module attributes and class
methods that ``trafficmoe`` looks up at call time, so no file under
``src/`` needs to know it exists. Spans stay in memory as
``[name, start, end, parent, op]`` and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Every boundary the traced run reports, as (metric name, owner, attribute).
# The owner is "module" or "module:Class"; the function found there is
# wrapped wherever a trafficmoe module holds a reference to it, which also
# covers names copied by ``from .x import f``.
BOUNDARIES = [
    ("cli.main", "cli", "main"),
    ("flows.parse_capture", "flows", "parse_capture"),
    ("flows.reassemble_sessions", "flows", "reassemble_sessions"),
    ("flows.filter_micro_flows", "flows", "filter_micro_flows"),
    ("flows.write_flows", "flows", "write_flows"),
    ("flows.read_flows", "flows", "read_flows"),
    ("tokenization.Vocabulary.load", "tokenization:Vocabulary", "load"),
    ("tokenization.serialize_flow", "tokenization", "serialize_flow"),
    ("tokenization.tokenize", "tokenization", "tokenize"),
    ("tokenization.write_corpus", "tokenization", "write_corpus"),
    ("training.train", "training", "train"),
    ("training.batch_arrays", "training", "batch_arrays"),
    ("training.ntp_loss", "training", "ntp_loss"),
    ("training.classification_loss", "training", "classification_loss"),
    ("model.forward", "model:TrafficModel", "forward"),
    ("model.attention", "model:TrafficModel", "_attention_block"),
    ("model.moe", "model:TrafficModel", "_moe_block"),
    ("model.router", "model", "route_tokens"),
    ("model.swiglu", "model", "swiglu"),  # reported as shared_expert / routed_experts
    ("model.rmsnorm", "model", "rmsnorm"),
    ("model.load_balance_loss", "model", "load_balance_loss"),
    ("tensor.matmul", "tensor", "matmul"),
    ("tensor.softmax_lastdim", "tensor", "softmax_lastdim"),
    ("tensor.cross_entropy_logits", "tensor", "cross_entropy_logits"),
    ("tensor.gather_rows", "tensor", "gather_rows"),
    ("tensor.scatter_rows", "tensor", "scatter_rows"),
    ("tensor.backward", "tensor:Tensor", "backward"),
    ("tensor.adamw_step", "tensor:AdamW", "step"),
    ("evaluation.predict_classes", "evaluation", "predict_classes"),
]

SHARED, ROUTED = "model.shared_expert", "model.routed_experts"
SPAN_NAMES = [name for name, _, _ in BOUNDARIES if name != "model.swiglu"] + [SHARED, ROUTED]
COUNTERS = [
    ("tensor.matmul.gflop", "GFLOP", "lower"),
    ("tensor.alloc_mb", "MB", "lower"),
    ("model.valid_token_frac", "ratio", "higher"),
    ("training.step_ms_p50", "ms", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_ms"] = ("ms", "lower")
    for name, unit, better in COUNTERS:
        units[name] = (unit, better)
    return units


class Tracer:
    """Span recorder. Spans are taken only while ``op`` is not None."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.valid_tokens = 0
        self.token_slots = 0
        self._shared_seen: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "model.swiglu":
            # The first swiglu inside each _moe_block is the shared expert.
            def resolve():
                parent = tracer.stack[-1] if tracer.stack else -1
                if parent >= 0 and tracer.spans[parent][0] == "model.moe" and parent not in tracer._shared_seen:
                    tracer._shared_seen.add(parent)
                    return SHARED
                return ROUTED
        else:
            def resolve():
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name == "model.forward":
                tracer._count_tokens(*args[1:], **kwargs)
            span = tracer._enter(resolve())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        return wrapper

    def _count_tokens(self, ids, valid_mask=None, mode="lm"):
        ids = np.atleast_2d(np.asarray(ids))
        self.token_slots += ids.size
        self.valid_tokens += ids.size if valid_mask is None else int(np.count_nonzero(valid_mask))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; ``uninstall`` restores the originals."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("trafficmoe.")}
        for name, owner, attr in BOUNDARIES:
            mod_name, _, cls_name = owner.partition(":")
            holder = modules[f"trafficmoe.{mod_name}"]
            if cls_name:
                cls = getattr(holder, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                self._patch(cls, attr, replacement)
                continue
            original = getattr(holder, attr)
            replacement = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def step_times_ms(self) -> list[float]:
        """Per training step: from ``model.forward`` start to ``AdamW.step`` end."""
        steps, forward_start = [], {}
        for name, start, end, parent, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != "training.train":
                continue
            if name == "model.forward":
                forward_start[parent] = start
            elif name == "tensor.adamw_step" and parent in forward_start:
                steps.append((end - forward_start.pop(parent)) * 1e3)
        return steps

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Calls and self milliseconds per operation, for every span name."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_ms[span[0]] += own * 1e3
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = self_ms[name] / n_ops
        steps = self.step_times_ms()
        out["training.step_ms_p50"] = statistics.median(steps) if steps else 0.0
        out["model.valid_token_frac"] = self.valid_tokens / self.token_slots if self.token_slots else 0.0
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start and end (s), parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
