"""Spans around the calls that ``zeroset.orchestration`` makes into each layer.

The tracer replaces, for the duration of a ``with installed(tracer):``
block, the layer functions that the per-path driver looks up in its module
namespace (and ``MarkedPointSet.count`` on its class) by wrappers that
record one span per call: layer name, path ordinal, start, end, the index
of the enclosing span, and the minor page faults and kernel CPU time spent
inside it.  Calls into numpy's and scipy's FFT functions are counted by the
bytes of their input and output arrays.  Spans stay in memory.  Nothing
in the program is edited.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

# name in zeroset.orchestration -> layer that owns it
LAYER_OF = {
    "sample": "generators.sample",
    "estimate_local_time": "localtime.estimate",
    "invert_profile": "localtime.invert",
    "window_exceedance_counts": "pointprocess.analysis",
    "jumps_to_empp": "pointprocess.analysis",
    "rescale_empp": "pointprocess.analysis",
    "count_heavy_subintervals": "pointprocess.analysis",
}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

# span fields
NAME, PATH, START, END, PARENT, MINFLT, STIME = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.path = -1
        self.fft_bytes = 0
        self.jumps: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "generators.sample":
                self.path += 1
            ru = resource.getrusage(resource.RUSAGE_SELF)
            span = [name, self.path, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, ru.ru_minflt, ru.ru_stime]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                ru = resource.getrusage(resource.RUSAGE_SELF)
                span[MINFLT] = ru.ru_minflt - span[MINFLT]
                span[STIME] = ru.ru_stime - span[STIME]
                self._stack.pop()
            if name == "localtime.invert":
                self.jumps.append(result.n_jumps)
            return result

        return traced

    def count_fft(self, fn):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + span[END] - span[START] - child[i]
        return totals

    def sums(self, name: str, field: int) -> float:
        return sum(span[field] for span in self.spans if span[NAME] == name)


@contextmanager
def installed(tracer: Tracer):
    """Route the driver's layer calls and all FFT calls through the tracer."""
    import numpy.fft
    import scipy.fft

    from zeroset import generators, orchestration, pointprocess

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for attr, layer in LAYER_OF.items():
        patch(orchestration, attr, tracer.wrap(layer, getattr(orchestration, attr)))
    patch(pointprocess.MarkedPointSet, "count",
          tracer.wrap("pointprocess.analysis", pointprocess.MarkedPointSet.count))
    for module in (numpy.fft, scipy.fft):
        for attr in FFT_NAMES:
            original = getattr(module, attr)
            patch(module, attr, tracer.count_fft(original))
            # names bound by "from ... import" in the sampler module
            for gname, value in list(vars(generators).items()):
                if value is original:
                    patch(generators, gname, tracer.count_fft(original))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
