"""Tracing from outside the program: spans, counters and a per-layer clock.

Nothing under ``src/`` knows about this module.  :class:`Tracer` patches the
public entry points of each ``repro`` layer on their classes, so it must be
installed before any scenario, service or client is built — components keep
bound methods, and an object built earlier would keep calling the unwrapped
function.  :meth:`Tracer.restore` puts every original back.

Two recorders share one tracer:

* **Spans** (name, start, end, parent, id) for the coarse boundaries: an
  experiment, a ``Simulator.run`` call, a scenario build, and every fleet
  call (client POST and poll, ``FleetService.submit``, ``JobJournal.append``,
  ``run_fleet_async``, ``SubprocessExecutor.run_shard``, ``merge_fleet``).
  Each thread keeps its own parent stack, and every span carries the job or
  request id it served.
* **A layer clock** for the simulation hot path, where a million frames a
  simulated second make one span per call too costly to keep.  Each wrapped
  method belongs to a layer (sim, phy, mac, transport, core, net); entering
  a different layer charges the time since the last switch to the layer
  being left.  A call into the layer already running costs one comparison.
  The clock is only correct on one thread, which is where simulations run.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layer of every class whose methods the clock wraps, by module.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "phy": ("repro.phy.medium", "repro.phy.error", "repro.phy.propagation"),
    "mac": ("repro.mac.dcf", "repro.mac.policy", "repro.mac.stats", "repro.mac.autorate"),
    # The network-layer glue (per-node routing, wired links) moves each
    # packet between MAC and agents, so it is charged to transport.
    "transport": (
        "repro.transport.tcp",
        "repro.transport.udp",
        "repro.net.node",
        "repro.net.wired",
    ),
    "core": (
        "repro.core.greedy",
        "repro.core.detection.nav",
        "repro.core.detection.spoof",
        "repro.core.detection.fake",
    ),
    "net": ("repro.net.scenario",),
}

#: Modules whose public methods are detector calls (``core.detector_calls``).
DETECTOR_MODULES = frozenset(
    {"repro.core.detection.nav", "repro.core.detection.spoof", "repro.core.detection.fake"}
)

SIM_PUSHES = ("schedule", "schedule_at", "call_after", "call_at")


def layer_of(fn: Any) -> str:
    """The layer a scheduled callback belongs to ("other" if unwrapped)."""
    return getattr(fn, "_bench_layer", "other")


class Tracer:
    """Spans, counters and the per-layer clock of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self.counts: Counter[str] = Counter()
        self.layer_s: defaultdict[str, float] = defaultdict(float)
        self._stack = ["host"]
        self._last = [clock()]
        self._patches: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # --------------------------------------------------------------- spans --

    def _parents(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident: str | None = None, nest: bool = True) -> int:
        """Open a span.  ``nest=False`` keeps it off the thread's parent
        stack: a coroutine's span must not adopt the spans that other tasks
        open on the same loop thread while it awaits."""
        parents = self._parents()
        span = {
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": parents[-1] if parents else None,
            "id": ident,
            "thread": threading.get_ident(),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if nest:
            parents.append(index)
        return index

    def end(self, index: int, ident: str | None = None) -> None:
        span = self.spans[index]
        span["end"] = self.clock()
        if ident is not None:
            span["id"] = ident
        parents = self._parents()
        if parents and parents[-1] == index:
            parents.pop()

    @contextmanager
    def span(self, name: str, ident: str | None = None) -> Iterator[int]:
        index = self.begin(name, ident)
        try:
            yield index
        finally:
            self.end(index)

    def closed(self, name: str) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.closed(name)]

    # -------------------------------------------------------- layer clock --

    def enter(self, layer: str) -> None:
        now = self.clock()
        self.layer_s[self._stack[-1]] += now - self._last[0]
        self._last[0] = now
        self._stack.append(layer)

    def leave(self) -> None:
        now = self.clock()
        self.layer_s[self._stack.pop()] += now - self._last[0]
        self._last[0] = now

    def layer_wrapper(self, fn: Callable, layer: str, extra: str | None = None) -> Callable:
        """Wrap ``fn`` so its time is charged to ``layer``.

        Every entry from another layer counts as one ``<layer>.calls``;
        ``extra`` names a counter bumped on every call.
        """
        stack, layer_s, last, counts, clock = (
            self._stack,
            self.layer_s,
            self._last,
            self.counts,
            self.clock,
        )
        calls = f"{layer}.calls"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if extra is not None:
                counts[extra] += 1
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            now = clock()
            layer_s[stack[-1]] += now - last[0]
            last[0] = now
            stack.append(layer)
            counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                layer_s[stack.pop()] += now - last[0]
                last[0] = now

        functools.update_wrapper(wrapper, fn)
        wrapper._bench_layer = layer  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------ patching --

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_layers(self) -> None:
        """Wrap every method of the layer classes, and the engine itself."""
        import importlib

        for layer, modules in LAYER_MODULES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                for cls in vars(module).values():
                    if not inspect.isclass(cls) or cls.__module__ != module_name:
                        continue
                    for attr, value in list(vars(cls).items()):
                        if not inspect.isfunction(value):
                            continue
                        if attr.startswith("__") and attr != "__init__":
                            continue
                        extra = (
                            "core.detector_calls"
                            if module_name in DETECTOR_MODULES and not attr.startswith("_")
                            else None
                        )
                        self.patch(cls, attr, self.layer_wrapper(value, layer, extra))
        self._install_engine()
        self._install_phy_counts()

    def _install_engine(self) -> None:
        from repro.sim.engine import Event, Simulator

        counts = self.counts
        self.patch(Simulator, "run", self.layer_wrapper(Simulator.__dict__["run"], "sim"))
        for name in SIM_PUSHES:
            original = Simulator.__dict__[name]

            def push(sim: Any, when: float, fn: Callable, *args: Any, _orig=original, _name=name) -> Any:
                counts["sim.pushes"] += 1
                if _name.startswith("schedule"):
                    counts[f"{layer_of(fn)}.timers_armed"] += 1
                return _orig(sim, when, fn, *args)

            self.patch(Simulator, name, self.layer_wrapper(functools.wraps(original)(push), "sim"))

        cancel = Event.__dict__["cancel"]

        def cancel_wrapper(event: Any) -> None:
            if event.fn is not None and not event.cancelled:
                counts[f"{layer_of(event.fn)}.timers_cancelled"] += 1
            cancel(event)

        self.patch(Event, "cancel", functools.wraps(cancel)(cancel_wrapper))

        fire = Event.__dict__["_fire"]

        def fire_wrapper(event: Any) -> None:
            counts[f"{layer_of(event.fn)}.timers_fired"] += 1
            fire(event)

        self.patch(Event, "_fire", functools.wraps(fire)(fire_wrapper))

    def _install_phy_counts(self) -> None:
        from repro.phy.medium import Medium, Radio

        counts = self.counts
        transmit = Medium.__dict__["transmit"]  # already the layer wrapper

        def transmit_wrapper(medium: Any, sender: Any, frame: Any, duration: float) -> None:
            counts["phy.transmissions"] += 1
            transmit(medium, sender, frame, duration)
            counts["phy.reach"] += len(medium._reach.get(sender, ()))

        self.patch(Medium, "transmit", functools.wraps(transmit)(transmit_wrapper))
        for cls, attr, key in (
            (Medium, "_deliver", "phy.deliveries"),
            (Radio, "_on_tx_start", "phy.hearers"),
        ):
            inner = cls.__dict__[attr]

            def counted(*args: Any, _inner=inner, _key=key) -> Any:
                counts[_key] += 1
                return _inner(*args)

            self.patch(cls, attr, functools.wraps(inner)(counted))

    def install_spans(self, owner: Any, attr: str, name: str, ident: Callable[..., str | None]) -> None:
        """Record a span around ``owner.attr``; ``ident(*args)`` gives its id.

        Coroutine functions get an async wrapper whose span lasts until the
        coroutine finishes, not until it is created.
        """
        original = owner.__dict__[attr]
        tracer = self

        if asyncio.iscoroutinefunction(original):

            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer.begin(name, ident(*args, **kwargs), nest=False)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.end(index)

            replacement: Callable = functools.wraps(original)(async_wrapper)
        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer.begin(name, ident(*args, **kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                return result

            replacement = functools.wraps(original)(wrapper)
        self.patch(owner, attr, replacement)

    # -------------------------------------------------------------- output --

    def write(self, path: Path) -> None:
        """Write spans, counters and layer times as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")
            handle.write(json.dumps({"layer_s": dict(self.layer_s)}, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"i": index, **span}, sort_keys=True) + "\n")
