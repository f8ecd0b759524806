"""Outside-in layer tracing for the benchmark.

The benchmark attributes time to layers without touching the package:
each layer's entry points are replaced, by ``setattr`` on the module or
class attribute the caller resolves at call time, with a wrapper that
records a span ``(layer, start, end, parent)``.  Spans stay in memory
until the run ends.  A layer's self time is its spans' duration minus
the part covered by their child spans, so self times never double-count
and their sum is the traced share of the wall time.

A target that no longer resolves raises :class:`TargetError` naming its
dotted path: a renamed function must fail the benchmark, not quietly
attribute less time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

#: layer name -> the ``"module:attribute.path"`` entry points it covers.
#: A function imported by name is patched where its caller looks it up
#: (``draw_jammer_wave`` in each driver module), a method on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "link": (
        "repro.core.link:LinkSimulator.run_packet",
        "repro.core.link:LinkSimulator.run_packets",
        "repro.core.link:LinkSimulator.run_packets_batched",
    ),
    "transmitter": (
        "repro.core.transmitter:BHSSTransmitter.transmit",
        "repro.core.transmitter:BHSSTransmitter.transmit_batch",
    ),
    "jamming": (
        "repro.core.link:draw_jammer_wave",
        "repro.protocol.session:draw_jammer_wave",
        "repro.network.simulator:draw_jammer_wave",
    ),
    "rng": (
        "repro.core.link:child_rng",
        "repro.protocol.session:child_rng",
        "repro.network.simulator:child_rng",
    ),
    "channel": (
        "repro.channel.link_medium:Medium.combine",
        "repro.channel.link_medium:Medium.superpose",
    ),
    "receiver": (
        "repro.core.receiver:BHSSReceiver.receive",
        "repro.core.receiver:BHSSReceiver.receive_batch",
    ),
    "control.decide": (
        "repro.core.control:ControlLogic.decide",
        "repro.core.control:ControlLogic.decide_batch",
    ),
    "control.psd": (
        "repro.core.control:welch_psd",
        "repro.core.control:welch_psd_batch",
        "repro.core.control:occupied_bandwidth",
        "repro.core.control:occupied_bandwidth_batch",
    ),
    "control.design": (
        "repro.core.control:ControlLogic.lowpass_for",
        "repro.core.control:ControlLogic.excision_for",
        "repro.core.control:ControlLogic.excision_for_batch",
        "repro.core.control:ControlLogic._expected_shape",
    ),
    "dsp.filter": (
        "repro.core.receiver:apply_fir",
        "repro.core.receiver:apply_fir_batch",
    ),
    "phy.demod": (
        "repro.phy.qpsk:ChipModulator.demodulate",
        "repro.phy.qpsk:ChipModulator.demodulate_batch",
    ),
    "spread.despread": (
        "repro.spread.dsss:SixteenAryDSSS.despread",
        "repro.spread.dsss:SixteenAryDSSS.despread_batch",
    ),
    "phy.frame": (
        "repro.core.coding:FrameCoder.decode",
        "repro.phy.frame:FrameFormat.parse",
    ),
    "paths.score": ("repro.core.paths:RxPath.score",),
    "spec.build": (
        "repro.scenario.spec:Scenario.from_dict",
        "repro.scenario.spec:Scenario.build",
        "repro.protocol.spec:SessionSpec.from_dict",
        "repro.network.spec:NetworkSpec.from_dict",
    ),
    "runtime.executor": ("repro.runtime.executor:ParallelExecutor.map_spec",),
    "cache.get": ("repro.runtime.cache:ResultCache.get",),
    "cache.put": ("repro.runtime.cache:ResultCache.put",),
    "protocol": ("repro.protocol.session:simulate_session",),
    "network": (
        "repro.network.simulator:NetworkSimulator.__init__",
        "repro.network.simulator:NetworkSimulator.run_link",
    ),
}


class TargetError(LookupError):
    """A patch target did not resolve; the message names its dotted path."""


def resolve(target: str) -> tuple[object, str, object]:
    """``(owner, attribute name, raw attribute)`` of a ``module:path`` target.

    A method must be defined on the named class itself, not inherited,
    so that restoring the raw attribute leaves the class as it was.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetError(f"{target}: cannot import {module_name} ({exc})") from None
    *parents, name = path.split(".")
    for part in parents:
        try:
            owner = getattr(owner, part)
        except AttributeError:
            raise TargetError(f"{target}: {part!r} not found") from None
    namespace = vars(owner)
    if name not in namespace:
        raise TargetError(f"{target}: {name!r} not found")
    return owner, name, namespace[name]


class Tracer:
    """Records layer spans while its patches are installed.

    ``observers`` maps a layer to ``fn(counts, result)``, called after
    each of the layer's calls so that outcome counts (filter decisions,
    cache hits) are taken where the work happens.  Not thread-safe: one
    tracer instruments one single-threaded run.
    """

    def __init__(self, observers: dict[str, Callable[[Counter, object], None]] | None = None):
        self.observers = observers or {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def take(self) -> tuple[list[tuple[str, float, float, int]], Counter]:
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        observe = self.observers.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._open
            parent = stack[-1] if stack else -1
            record = self.spans
            index = len(record)
            record.append((layer, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[index] = (layer, start, end, parent)
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def _wrap_raw(self, layer: str, raw: object) -> object:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(layer, raw.__func__))
        if not callable(raw):
            raise TargetError(f"{layer}: {raw!r} is not callable")
        return self.wrap(layer, raw)

    @contextmanager
    def installed(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> Iterator["Tracer"]:
        """Patch every target of ``layers`` for the duration of the block."""
        patched: list[tuple[object, str, object]] = []
        try:
            for layer, targets in layers.items():
                for target in targets:
                    owner, name, raw = resolve(target)
                    setattr(owner, name, self._wrap_raw(layer, raw))
                    patched.append((owner, name, raw))
            yield self
        finally:
            for owner, name, raw in reversed(patched):
                setattr(owner, name, raw)


def layer_totals(spans: list[tuple[str, float, float, int]]) -> dict[str, tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` over a list of spans."""
    covered = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, tuple[float, int]] = {}
    for (layer, start, end, _parent), child in zip(spans, covered):
        seconds, calls = totals.get(layer, (0.0, 0))
        totals[layer] = (seconds + (end - start) - child, calls + 1)
    return totals
