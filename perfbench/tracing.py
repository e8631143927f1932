"""Call tracing from outside the program.

``Tracer.install`` replaces public functions of mmsentry with wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  The program looks these functions up through module or class
attributes at call time, so calls made inside the program (``process_burst``
calling ``range_profile``, the model calling ``layers.conv2d_forward``) are
recorded too.  Spans stay in memory; ``summary`` turns them into per-function
call counts and self times, where self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

# (module path, owner attribute or "", function attribute, reported name)
TRACED = [
    ("mmsentry.stream", "", "decode_frame", "stream.decode_frame"),
    ("mmsentry.stream", "", "decode_burst_payload", "stream.decode_burst_payload"),
    ("mmsentry.stream", "FrameReader", "read_frame", "stream.FrameReader.read_frame"),
    ("mmsentry.dsp", "", "process_burst", "dsp.process_burst"),
    ("mmsentry.dsp", "", "range_profile", "dsp.range_profile"),
    ("mmsentry.dsp", "", "complex_range_doppler", "dsp.complex_range_doppler"),
    ("mmsentry.dsp", "", "ard", "dsp.ard"),
    ("mmsentry.transdope.model", "SlidingClassifier", "push", "model.SlidingClassifier.push"),
    ("mmsentry.transdope.model", "", "embed_frame", "model.embed_frame"),
    ("mmsentry.transdope.model", "", "classify_tokens", "model.classify_tokens"),
    ("mmsentry.transdope.model", "", "forward_batch", "model.forward_batch"),
    ("mmsentry.transdope.training", "", "pretrain_time_convs", "training.pretrain_time_convs"),
    ("mmsentry.transdope.training", "", "train", "training.train"),
    ("mmsentry.transdope.training", "", "evaluate", "training.evaluate"),
    ("mmsentry.transdope.checkpoint", "", "load_model", "checkpoint.load_model"),
    ("mmsentry.dataset_io", "", "read_dataset", "dataset_io.read_dataset"),
    ("mmsentry.scene_sim", "", "generate_dataset", "scene_sim.generate_dataset"),
] + [
    ("mmsentry.transdope.layers", "", fn, "layers." + fn)
    for fn in (
        "conv2d_forward",
        "conv2d_backward",
        "relu_forward",
        "relu_backward",
        "maxpool2_forward",
        "maxpool2_backward",
        "linear_forward",
        "linear_backward",
        "layer_norm_forward",
        "layer_norm_backward",
        "softmax",
        "softmax_backward",
        "attention_forward",
        "attention_backward",
        "token_conv_forward",
        "token_conv_backward",
    )
]

# Root spans a workload opens.  Layer figures cover set-up and the measured
# loop.  Under the "check" root only the calls the check makes itself count
# (forward_batch in the stream_inproc cross-check), not the layers beneath
# them, so layer figures describe the measured path alone.
MEASURED_ROOTS = ("setup", "measure")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._paused = False

    def install(self):
        for module_path, owner_name, attr, name in TRACED:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter_ns()

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span grouping everything a workload does in one phase."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (checks that would skew the figures)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, total self time (ms), median self time (us).

        Every function in TRACED has a row, in TRACED order; one that was not
        called has 0 calls and 0 self time.
        """
        child_ns = [0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        self_us: dict[str, list[float]] = {name: [] for *_, name in TRACED}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                continue
            root_name = self.spans[root[i]][0]
            if root_name in MEASURED_ROOTS or (root_name == "check" and parent == root[i]):
                self_us[name].append((end - start - child_ns[i]) / 1e3)
        return {
            name: {
                "calls": len(values),
                "self_ms": sum(values) / 1e3,
                "self_us_p50": statistics.median(values) if values else 0.0,
            }
            for name, values in self_us.items()
        }

    def dump(self, path):
        """Write every span, then the summary, as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "summary": self.summary()}, fh)


class NoTracer:
    """Stand-in with the same phase interface when tracing is off."""

    def phase(self, name: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()
