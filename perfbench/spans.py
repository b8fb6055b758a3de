"""Span recorder and in-place instrumentation of the aerosurrogate modules.

Tracing lives entirely in the benchmark: `install` replaces the public
functions of each module, in every aerosurrogate module that holds a
reference to them, with wrappers that record spans or counters, and the
returned callable puts the originals back. The program's source is not
touched, and an untraced run executes none of this code.

Two kinds of record are kept, both in memory until the run ends:

* Spans, for the layer boundaries: name, start, end, parent span, op id
  and whether the call raised. Every span lies inside a root span ("op"
  for a timed operation, "setup" for one set-up pass); calls made outside
  a root, such as the benchmark's own output checks, are not recorded.
* Counters, for the autodiff primitives, which run thousands of times per
  op: calls, forward time and backward time (measured by wrapping the
  `_backward` closure of each node a primitive returns). Counters are
  attributed to the root that is open and are not spans, so the self time
  of a span such as `model.forward_graph` still contains the autodiff
  forward work it does itself (embedding, pooling, heads).

The walk that counts `autodiff.graph_nodes` runs just before the
`autodiff.backward` span opens, so its cost lands in the caller's self
time (`training.train_step.self_ms`) and in the tracing overhead.
"""

from collections import defaultdict
from dataclasses import dataclass
import functools
import json
import os
import sys
import time

# (module, function, span name). Names are the layer metrics' prefixes.
SPANS = [
    ("datagen", "generate_records", "datagen.generate"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "predict_denormalized", "model.predict_denormalized"),
    ("model", "forward_graph", "model.forward_graph"),
    ("physatt", "attention_block_t", "physatt.attention_block"),
    ("training", "train_step", "training.train_step"),
    ("training", "adam_step", "training.adam_step"),
    ("sampling", "estimate_curvature", "sampling.estimate_curvature"),
    ("sampling", "sample_adaptive", "sampling.sample_adaptive"),
    ("pointcloud", "load_sample", "pointcloud.load_sample"),
    ("pointcloud", "save_sample", "pointcloud.save_sample"),
]
BACKWARD_SPAN = "autodiff.backward"
SPAN_NAMES = [name for _, _, name in SPANS] + [BACKWARD_SPAN]

# Spans that run during set-up; their metrics are per set-up pass, every
# other span's are per timed op.
SETUP_SPANS = ("datagen.generate", "model.load_checkpoint")

# The autodiff operations that create graph nodes with a backward closure.
PRIMITIVES = ["add", "sub", "mul", "div", "matmul", "sum_", "exp", "tanh",
              "sqrt", "maximum_const", "getitem", "concat", "reshape",
              "transpose"]
# Composites built from the primitives; only their forward time is kept.
COMPOSITES = ["softmax", "gelu", "layer_norm"]

_SAMPLE_FILES = ("surface.txt", "volume.txt", "pressure.txt", "velocity.txt",
                 "cd.txt")

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = [
    ("op.ms", "ms"), ("op.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.self_time_gap", "ratio"),
    ("trace.spans_per_op", "count"),
    ("autodiff.backward.ms", "ms"), ("autodiff.graph_nodes", "count"),
    *[(f"autodiff.{p}.{k}", u) for p in PRIMITIVES
      for k, u in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"))],
    *[(f"autodiff.{c}.fwd_ms", "ms") for c in COMPOSITES],
    ("physatt.attention_block.ms", "ms"), ("physatt.attention_block.flop", "flop"),
    ("physatt.attention_block.gflop_per_s", "GFLOP/s"),
    ("model.forward_graph.ms", "ms"), ("model.forward_graph.self_ms", "ms"),
    ("model.predict_denormalized.ms", "ms"), ("model.load_checkpoint.ms", "ms"),
    ("training.train_step.ms", "ms"), ("training.train_step.self_ms", "ms"),
    ("training.adam_step.ms", "ms"),
    ("sampling.estimate_curvature.ms", "ms"), ("sampling.sample_adaptive.ms", "ms"),
    ("sampling.sample_adaptive.self_ms", "ms"),
    ("pointcloud.load_sample.ms", "ms"), ("pointcloud.save_sample.ms", "ms"),
    ("pointcloud.bytes_read", "B"), ("pointcloud.bytes_written", "B"),
    ("datagen.generate.ms", "ms"),
    *[(f"{s}.failed", "count") for s in SPAN_NAMES],
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str
    failed: bool = False


class Recorder:
    """Spans and per-root counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.root_counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, op_id: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            op_id = self.spans[parent].op_id
        else:
            self.counters.clear()
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is None:
            self.root_counters[idx] = dict(self.counters)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "op": s.op_id, "failed": s.failed}) + "\n")


def _span_wrapper(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, failed=True)
            raise
        rec.close(idx)
        if after is not None:
            after(rec.counters, args, kwargs, out)
        return out
    return wrapper


def _primitive_wrapper(rec: Recorder, name: str, fn):
    counters = rec.counters
    calls, fwd, bwd = (f"autodiff.{name}.calls", f"autodiff.{name}.fwd_ms",
                       f"autodiff.{name}.bwd_ms")

    def timed(backward):
        def run(g):
            t0 = time.perf_counter()
            backward(g)
            counters[bwd] += time.perf_counter() - t0
        return run

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        counters[fwd] += time.perf_counter() - t0
        counters[calls] += 1
        if out._backward is not None:
            out._backward = timed(out._backward)
        return out
    return wrapper


def _composite_wrapper(rec: Recorder, name: str, fn):
    counters = rec.counters
    fwd = f"autodiff.{name}.fwd_ms"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        counters[fwd] += time.perf_counter() - t0
        return out
    return wrapper


def graph_nodes(root) -> int:
    """Number of distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def attention_block_flop(x, p) -> int:
    """Matmul FLOPs (2 per multiply-add) of one physics-attention block on
    x of shape (N, C), from the shapes alone: slice projection, token
    aggregation, Q/K/V/O projections, token attention, deslicing and FFN.
    Elementwise work is not counted."""
    n, c = x.shape
    m, h, f = p.slices, p.heads, p.ffn_w1.shape[1]
    return (2 * n * c * h * m      # slice logits
            + 2 * n * m * c        # token aggregation, all heads
            + 8 * m * c * c        # q, k, v, o projections
            + 4 * m * m * c        # logits and attn @ v, all heads
            + 2 * n * m * c        # deslice, all heads
            + 4 * n * c * f)       # FFN


def _sample_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in _SAMPLE_FILES)


def _after_attention_block(counters, args, kwargs, out):
    counters["physatt.attention_block.flop"] += attention_block_flop(
        args[0].value, args[1])


def _after_load(counters, args, kwargs, out):
    counters["pointcloud.bytes_read"] += _sample_bytes(args[0])


def _after_save(counters, args, kwargs, out):
    counters["pointcloud.bytes_written"] += _sample_bytes(args[1])


_AFTER = {"physatt.attention_block": _after_attention_block,
          "pointcloud.load_sample": _after_load,
          "pointcloud.save_sample": _after_save}


def install(rec: Recorder):
    """Wrap the traced functions in place; returns a callable that undoes
    it. Every alias of a function in an aerosurrogate module is replaced,
    so calls through `from .x import f` names are traced too."""
    from aerosurrogate import autodiff

    mods = [m for name, m in sys.modules.items()
            if name == "aerosurrogate" or name.startswith("aerosurrogate.")]
    undo = []

    def replace(original, wrapped):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))

    for module, func, name in SPANS:
        original = getattr(sys.modules[f"aerosurrogate.{module}"], func)
        replace(original, _span_wrapper(rec, name, original, _AFTER.get(name)))
    for name in PRIMITIVES:
        original = getattr(autodiff, name)
        replace(original, _primitive_wrapper(rec, name, original))
    for name in COMPOSITES:
        original = getattr(autodiff, name)
        replace(original, _composite_wrapper(rec, name, original))

    backward = autodiff.Tensor.backward
    traced_backward = _span_wrapper(rec, BACKWARD_SPAN, backward)

    @functools.wraps(backward)
    def counted_backward(self):
        if rec.active:
            rec.counters["autodiff.graph_nodes"] += graph_nodes(self)
        return traced_backward(self)

    autodiff.Tensor.backward = counted_backward
    undo.append((autodiff.Tensor, "backward", backward))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def summarize(rec: Recorder) -> dict:
    """Per-layer figures from the recorded spans and counters.

    For a span name X: X.ms is its total duration, X.self_ms its duration
    less the part of it that its child spans cover, X.failed the calls
    that raised. Times and counts are means per root: per set-up pass for
    SETUP_SPANS, per timed op otherwise. Also returns the root ("op")
    figures and the largest gap between a root's duration and the sum of
    the self times in its tree, which is zero up to rounding only when
    every span lies inside its parent.
    """
    spans = rec.spans
    child_ms = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for i, s in enumerate(spans):
        root_of[i] = i if s.parent is None else root_of[s.parent]
        if s.parent is not None:
            p = spans[s.parent]
            child_ms[s.parent] += max(0.0, min(s.end, p.end)
                                      - max(s.start, p.start)) * 1e3
    self_ms = [(s.end - s.start) * 1e3 - child_ms[i] for i, s in enumerate(spans)]

    roots = {i: s for i, s in enumerate(spans) if s.parent is None}
    tree_self = defaultdict(float)
    for i in range(len(spans)):
        tree_self[root_of[i]] += self_ms[i]
    worst_gap = max((abs(tree_self[i] - (s.end - s.start) * 1e3)
                     / max((s.end - s.start) * 1e3, 1e-12)
                     for i, s in roots.items()), default=0.0)

    n_roots = defaultdict(int)
    for s in roots.values():
        n_roots[s.name] += 1
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        kind = spans[root_of[i]].name
        if s.parent is None:
            totals[f"{kind}.ms"] += (s.end - s.start) * 1e3
            totals[f"{kind}.self_ms"] += self_ms[i]
            continue
        if (kind == "setup") != (s.name in SETUP_SPANS):
            continue
        totals[f"{s.name}.ms"] += (s.end - s.start) * 1e3
        totals[f"{s.name}.self_ms"] += self_ms[i]
        totals[f"{s.name}.failed"] += s.failed
    for i, counters in rec.root_counters.items():
        if spans[i].name != "op":
            continue
        for key, val in counters.items():
            totals[key] += val * 1e3 if key.endswith("_ms") else val

    out = {}
    for key, val in totals.items():
        kind = "setup" if key.startswith(SETUP_SPANS + ("setup.",)) else "op"
        out[key] = val / max(1, n_roots[kind])
    flop, ms = out.get("physatt.attention_block.flop", 0.0), \
        out.get("physatt.attention_block.ms", 0.0)
    out["physatt.attention_block.gflop_per_s"] = flop / ms / 1e6 if ms > 0 else 0.0
    out["trace.self_time_gap"] = worst_gap
    out["trace.spans_per_op"] = sum(
        1 for i in range(len(spans)) if spans[root_of[i]].name == "op"
    ) / max(1, n_roots["op"])
    return out
