"""Per-layer tracing from outside the package.

Spans are recorded by wrapping public functions and methods of the
flowcodec modules at the names their callers look them up under
(module globals for functions, class attributes for methods).  Nothing
inside the package changes.  Each hook is optional: a name that is gone
is skipped and reported as absent, so refactors of the internals leave
the benchmark running.  `Tracer.installed()` puts every original back on
exit and checks that it did.

Self time of a span is its duration minus the time covered by its child
spans; the sum of self times over all spans equals the time covered by
the outermost spans, so self times plus `other_s` account for the traced
wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter, defaultdict

import numpy as np

# Span name per hook: (span, module, attribute path).  Functions are
# hooked in the namespace of the module that calls them.
HOOKS = [
    ("codec.self", "flowcodec", "encode_image"),
    ("codec.self", "flowcodec", "decode_image"),
    ("codec.self", "flowcodec.codec", "decode_latents"),
    ("entropy.logistic", "flowcodec.codec", "logistic_bin_prob"),
    ("entropy.logistic", "flowcodec.entropy", "logistic_bin_prob"),
    ("entropy.prior", "flowcodec.entropy", "FactorizedPrior.bin_prob"),
    ("rangecoder.table_build", "flowcodec.codec", "build_freq_table"),
    ("rangecoder.encode", "flowcodec.codec", "RangeEncoder.encode_symbol"),
    ("rangecoder.encode", "flowcodec.codec", "RangeEncoder.finish"),
    ("rangecoder.decode", "flowcodec.codec", "RangeDecoder.decode_symbol"),
    ("flow.forward", "flowcodec.flow", "FlowModel.forward"),
    ("flow.inverse", "flowcodec.flow", "FlowModel.inverse"),
    ("flow.conditioning", "flowcodec.flow", "FlowModel.reconstruct_features"),
    ("flow.conditioning", "flowcodec.flow", "FlowModel.conditioning_params"),
    ("conv.forward", "flowcodec.flow", "conv2d"),
    ("tensor.backward", "flowcodec.tensor", "Tensor.backward"),
    ("training.rd_loss", "flowcodec.training", "rd_loss"),
    ("training.nll_metric", "flowcodec.training", "nll_loss"),
    ("training.optimizer", "flowcodec.training", "AdaMax.step"),
    ("training.sample_batch", "flowcodec.training", "sample_batch"),
]

# Spans whose self times partition the traced wall time, with the
# metric each is reported as.  conv.backward spans are made per call
# around the backward closure that conv2d returns.
SELF_METRICS = {
    "codec.self": "codec.self_s",
    "entropy.logistic": "entropy.logistic_s",
    "entropy.prior": "entropy.prior_s",
    "rangecoder.table_build": "rangecoder.table_build_s",
    "rangecoder.encode": "rangecoder.encode_s",
    "rangecoder.decode": "rangecoder.decode_s",
    "flow.forward": "flow.forward_s",
    "flow.inverse": "flow.inverse_s",
    "flow.conditioning": "flow.conditioning_s",
    "conv.forward": "conv.forward_s",
    "conv.backward": "conv.backward_s",
    "tensor.backward": "tensor.backward_other_s",
    "training.rd_loss": "training.rd_loss_s",
    "training.nll_metric": "training.nll_metric_s",
    "training.optimizer": "training.optimizer_s",
    "training.sample_batch": "training.sample_batch_s",
}

# Every per-layer metric with its unit.  Times are self times except
# tensor.backward_s, which includes the conv backward spans inside it.
UNITS = {
    "rangecoder.table_build_s": "s",
    "rangecoder.tables_built": "count",
    "rangecoder.table_symbols_p50": "count",
    "rangecoder.encode_s": "s",
    "rangecoder.decode_s": "s",
    "rangecoder.escapes": "count",
    "rangecoder.coded_over_table_bits": "ratio",
    "entropy.logistic_s": "s",
    "entropy.logistic_calls": "count",
    "entropy.prior_s": "s",
    "codec.self_s": "s",
    "codec.coded_symbols": "count",
    "codec.z0_bytes": "B",
    "codec.z1_bytes": "B",
    "codec.z2_bytes": "B",
    "flow.forward_s": "s",
    "flow.inverse_s": "s",
    "flow.conditioning_s": "s",
    "conv.forward_calls": "count",
    "conv.forward_s": "s",
    "conv.backward_s": "s",
    "conv.gflop": "GFLOP",
    "conv.im2col_mb": "MB",
    "tensor.backward_s": "s",
    "tensor.backward_other_s": "s",
    "training.rd_loss_s": "s",
    "training.nll_metric_s": "s",
    "training.optimizer_s": "s",
    "training.sample_batch_s": "s",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def resolve(module: str, path: str):
    """(owner, attribute name, original) for a hook, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.table_widths: list[int] = []
        self.absent: list[str] = []
        self.broken: list[str] = []  # counters dropped because their observer failed
        self._stack: list[list] = []  # [span name, start, child time]
        self._paused = False

    # -- spans -------------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped in a span named `name`.  `observe(args, result)`
        runs after the span closes, so its cost is charged to the caller's
        span as tracing overhead, not to this layer.  An observer that
        fails, because the internals it reads have changed, is reported
        in `broken` and dropped; the span stays."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal observe
            if self._paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            self._stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self.self_s[name] += duration - frame[2]
                self.total_s[name] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            if observe is not None:
                try:
                    observe(args, result)
                except Exception as exc:
                    self.broken.append(f"{name}: {type(exc).__name__}: {exc}")
                    observe = None
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- hooks ---------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every present hook; restore all originals on exit."""
        patched = []
        try:
            for name, module, path in HOOKS:
                found = resolve(module, path)
                if found is None:
                    self.absent.append(f"{module}.{path}")
                    continue
                owner, attr, original = found
                observe = getattr(self, "_observe_" + path.replace(".", "_"), None)
                setattr(owner, attr, self.span(name, original, observe))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            for owner, attr, original in patched:
                current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
                if current is not original:
                    raise RuntimeError(f"trace hook {owner.__name__}.{attr} was not restored")

    # -- counters taken at the hooks ---------------------------------------------------

    def _observe_build_freq_table(self, args, table) -> None:
        self.counts["rangecoder.tables_built"] += 1
        self.table_widths.append(len(args[0]))

    def _observe_RangeEncoder_encode_symbol(self, args, _) -> None:
        _, table, k = args
        self.counts["codec.coded_symbols"] += 1
        if table.k_min <= k <= table.k_max:
            freq = int(table.freqs[k - table.k_min])
            ideal = -math.log2(freq / float(table.cum[-1]))
        else:
            self.counts["rangecoder.escapes"] += 1
            freq = int(table.freqs[-1])
            ideal = -math.log2(freq / float(table.cum[-1])) + 32.0  # raw 4-byte value
        self.counts["rangecoder.ideal_bits"] += ideal

    def _observe_RangeEncoder_finish(self, _, payload) -> None:
        self.counts["rangecoder.payload_bits"] += 8 * len(payload)

    def _observe_logistic_bin_prob(self, args, _) -> None:
        self.counts["entropy.logistic_calls"] += 1

    def _observe_conv2d(self, args, out) -> None:
        x, kernel = args[0], args[1]
        n, cin, h, w = x.shape
        cout, _, kh, kw = kernel.shape
        itemsize = np.dtype(x.dtype).itemsize
        flop = 2.0 * n * h * w * cout * cin * kh * kw
        self.counts["conv.forward_calls"] += 1
        self.counts["conv.flop"] += flop
        self.counts["conv.im2col_bytes"] += n * h * w * cin * kh * kw * itemsize
        backward = getattr(out, "_backward", None)
        if backward is None:
            return

        def observe_backward(_args, _result):
            # input and kernel gradients: two matmuls of the forward's size,
            # over im2col views of the output gradient and of the input
            self.counts["conv.flop"] += 2.0 * flop
            self.counts["conv.im2col_bytes"] += n * h * w * (cin + cout) * kh * kw * itemsize

        out._backward = self.span("conv.backward", backward, observe_backward)

    # -- report ------------------------------------------------------------------------

    def metrics(self, cycles: int, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics per cycle of the workload's input set."""
        per = 1.0 / cycles
        out = {metric: self.self_s.get(span, 0.0) * per for span, metric in SELF_METRICS.items()}
        out["other_s"] = (wall_s - sum(self.self_s.values())) * per
        out["trace.wall_s"] = wall_s * per
        out["trace.overhead_s"] = wall_s * per - untraced_wall_s
        out["tensor.backward_s"] = self.total_s.get("tensor.backward", 0.0) * per
        for name in ("rangecoder.tables_built", "rangecoder.escapes", "codec.coded_symbols",
                     "entropy.logistic_calls", "conv.forward_calls"):
            out[name] = self.counts[name] * per
        out["rangecoder.table_symbols_p50"] = (
            float(np.median(self.table_widths)) if self.table_widths else 0.0
        )
        ideal = self.counts["rangecoder.ideal_bits"]
        out["rangecoder.coded_over_table_bits"] = (
            self.counts["rangecoder.payload_bits"] / ideal if ideal else 0.0
        )
        out["conv.gflop"] = self.counts["conv.flop"] * per / 1e9
        out["conv.im2col_mb"] = self.counts["conv.im2col_bytes"] * per / 1e6
        return out
