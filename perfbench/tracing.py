"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install`` replaces public functions and methods of the ``wconv``
modules with timing wrappers, at the place where their callers look the
name up (``wconv.network.conv2d_weighted``, ``DenoiseNet.forward``, ...).
Every call becomes a span with a name, a parent and start/end times, kept
in memory; ``Tracer.restore`` puts the originals back.  The layers are the
package modules, named by the first component of each span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "experiments", "directl", "network", "conv", "spectral")

CONV_FUNCTIONS = ("conv2d", "conv2d_weighted", "conv2d_transposed_weighted",
                  "grad_weights", "grad_input")
SPECTRAL_FUNCTIONS = ("circular_weighted_conv", "circular_conv_fft",
                      "check_convolution_theorem", "check_commutativity",
                      "check_differentiability", "check_density_identity",
                      "check_density_identity_constant", "check_young")

# (owner, attribute, span name): the owner is a wconv module or class, the
# attribute the name its callers look up at call time.
TARGETS = (
    [("wconv.cli", "_atomic_write", "cli.write"),
     ("wconv.cli", "gen_dataset", "experiments.gen_dataset"),
     ("wconv.cli", "optimize_density", "experiments.optimize_density"),
     ("wconv.cli", "sgd_train", "network.sgd_train"),
     ("wconv.cli", "run_verification", "spectral.run_verification"),
     ("wconv.experiments", "minimize", "directl.minimize"),
     ("wconv.experiments", "sgd_train", "network.sgd_train"),
     ("wconv.directl", "select_potentially_optimal",
      "directl.select_potentially_optimal"),
     ("wconv.directl", "trisect", "directl.trisect"),
     ("wconv.network:DenoiseNet", "forward", "network.DenoiseNet.forward"),
     ("wconv.network:DenoiseNet", "backward", "network.DenoiseNet.backward"),
     ("wconv.network:BatchNorm2d", "forward", "network.BatchNorm2d.forward"),
     ("wconv.network:BatchNorm2d", "backward", "network.BatchNorm2d.backward")]
    + [("wconv.network", name, f"conv.{name}") for name in CONV_FUNCTIONS]
    + [("wconv.spectral", name, f"spectral.{name}") for name in SPECTRAL_FUNCTIONS]
)
# Each objective built by this factory is traced as one DIRECT evaluation.
OBJECTIVE_FACTORY = ("wconv.experiments", "_training_objective")
OBJECTIVE_SPAN = "experiments.objective"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _conv_flops(fn):
    """Op count of one conv call from ``wconv.conv.flop_count``, which counts
    one image and one input channel, scaled by batch x in_channels."""
    from wconv.conv import flop_count
    signature = inspect.signature(fn)

    def count(args, kwargs, result) -> int:
        a = signature.bind(*args, **kwargs).arguments
        weighted = a.get("density") is not None
        if fn.__name__ in ("conv2d", "conv2d_weighted"):
            weights = a["kernel"].weights
            bsz, _, rows, cols = result.shape
        elif fn.__name__ == "conv2d_transposed_weighted":
            weights = a["kernel"].weights
            bsz, _, rows, cols = a["y"].shape
        elif fn.__name__ == "grad_weights":
            weights = result.weights
            bsz, _, rows, cols = a["upstream"].shape
        else:
            weights = a["kernel"].weights
            bsz, _, rows, cols = a["upstream"].shape
        filters, cin, k, _ = weights.shape
        return flop_count(rows, cols, filters, k, weighted) * bsz * cin
    return count


def _bytes_written(args, kwargs, result) -> int:
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode("utf-8"))


def _finite(args, kwargs, result) -> bool:
    return math.isfinite(result)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        def traced(name):
            def make(fn):
                if name.startswith("conv."):
                    return self.wrap(fn, name, _conv_flops(fn))
                return self.wrap(fn, name, _bytes_written if name == "cli.write" else None)
            return make

        for owner, attr, name in TARGETS:
            self._replace(_resolve(owner), attr, traced(name))

        def traced_factory(factory):
            @functools.wraps(factory)
            def build(*args, **kwargs):
                return self.wrap(factory(*args, **kwargs), OBJECTIVE_SPAN, _finite)
            return build
        self._replace(_resolve(OBJECTIVE_FACTORY[0]), OBJECTIVE_FACTORY[1],
                      traced_factory)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "info": s.info} for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], reps: int, directl_counts: dict) -> dict:
    """Per-layer metrics, per traced run, as {name: (value, unit)}.

    ``directl_counts`` holds the iteration and evaluation counts that the
    traced runs' deterministic trace.csv files report.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, o in zip(spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + s.seconds
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + o

    def total(name):
        return by_name.get(name, 0.0) / reps

    def count(pred):
        return sum(1 for s in spans if pred(s)) / reps

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    conv = [s for s in spans if s.layer == "conv"]
    conv_s = sum(s.seconds for s in conv)
    evals = [s for s in spans if s.name == OBJECTIVE_SPAN]
    train_self = sum(o for s, o in zip(spans, own) if s.name == "network.sgd_train")
    m = {
        "conv.fwd_s": (sum(s.seconds for s in conv if parent_name(s)
                           == "network.DenoiseNet.forward") / reps, "s"),
        "conv.bwd_s": (sum(s.seconds for s in conv if parent_name(s)
                           == "network.DenoiseNet.backward") / reps, "s"),
        "conv.calls": (len(conv) / reps, "count"),
        "conv.gflop_per_s": (sum(s.info for s in conv) / 1e9 / conv_s
                             if conv_s > 0 else 0.0, "GFLOP/s"),
    }
    for name in CONV_FUNCTIONS:
        m[f"conv.{name}_s"] = (total(f"conv.{name}"), "s")
    m.update({
        "network.forward_s": (total("network.DenoiseNet.forward"), "s"),
        "network.backward_s": (total("network.DenoiseNet.backward"), "s"),
        "network.bn.fwd_s": (total("network.BatchNorm2d.forward"), "s"),
        "network.bn.bwd_s": (total("network.BatchNorm2d.backward"), "s"),
        "network.steps": (count(lambda s: s.name == "network.DenoiseNet.backward"),
                          "count"),
        "network.train_self_s": (train_self / reps, "s"),
        "directl.iterations": (directl_counts["iterations"] / reps, "count"),
        "directl.evals": (directl_counts["evals"] / reps, "count"),
        "directl.evals_per_iter.mean": (directl_counts["evals_per_iter_mean"],
                                        "count"),
        "directl.evals_per_iter.max": (directl_counts["evals_per_iter_max"], "count"),
        "directl.eval_s": (sum(s.seconds for s in evals) / len(evals)
                           if evals else 0.0, "s"),
        "directl.useful_eval_ratio": (sum(1 for s in evals if s.info) / len(evals)
                                      if evals else 0.0, "ratio"),
        "spectral.circular_weighted_conv_s": (
            total("spectral.circular_weighted_conv"), "s"),
        "spectral.circular_weighted_conv.calls": (
            count(lambda s: s.name == "spectral.circular_weighted_conv"), "count"),
        "spectral.differentiability_s": (total("spectral.check_differentiability"),
                                         "s"),
        "experiments.gen_dataset_s": (total("experiments.gen_dataset"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.out_bytes": (sum(s.info for s in spans if s.name == "cli.write") / reps,
                          "bytes"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / reps, "s")
    m["trace.spans"] = (len(spans) / reps, "count")
    return m
