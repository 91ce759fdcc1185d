"""Span tracing of the simulator's public calls, installed from outside `src/`.

`install(tracer)` replaces public functions and methods of `tssdnsim` with
wrappers that open a span on entry and close it on exit. Spans nest strictly
(the simulator is single-threaded and synchronous), so a span's self time is
its duration minus the durations of its direct children. Callbacks handed to
the public `Simulator.schedule` are wrapped too, and their dispatch spans are
named by the callback's qualified name; that is how private callbacks such as
`EgressPort._on_tx_done` are seen without touching them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

DISPATCH = "dispatch:"


class Tracer:
    """Spans in memory as columns: name id, start, end, parent index (-1 = root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("l")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("l")
        self._open: list[int] = []        # indices of open spans, innermost last
        self._child_ns: list[int] = []    # child duration summed per open span
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.truthy: Counter = Counter()
        self.flow_entries_max = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span with name id `nid`."""
        starts, open_, child_ns = self.start_col, self._open, self._child_ns
        idx = len(starts)
        self.name_col.append(nid)
        self.parent_col.append(open_[-1] if open_ else -1)
        self.end_col.append(0)
        open_.append(idx)
        child_ns.append(0)
        starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.end_col[idx] = end
            open_.pop()
            duration = end - starts[idx]
            self.self_ns[nid] += duration - child_ns.pop()
            self.total_ns[nid] += duration
            self.calls[nid] += 1
            if child_ns:
                child_ns[-1] += duration

    def wrap(self, name: str, fn, count_truthy: bool = False):
        """`fn` with every call recorded as a span called `name`."""
        nid = self.name_id(name)
        call, truthy = self.call, self.truthy

        def traced(*args, **kwargs):
            result = call(nid, fn, *args, **kwargs)
            if count_truthy and result:
                truthy[nid] += 1
            return result

        return functools.wraps(fn)(traced)

    def get(self, counter: Counter, name: str) -> int:
        nid = self._ids.get(name)
        return counter[nid] if nid is not None else 0

    def with_prefix(self, counter: Counter, prefix: str) -> dict:
        return {n: counter[i] for n, i in self._ids.items() if n.startswith(prefix)}

    def write(self, path) -> None:
        """Write every span as CSV: id, name, start_ns, end_ns, parent id."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name_col, self.start_col,
                                                   self.end_col, self.parent_col)):
                fh.write(f"{i},{names[nid]},{s},{e},{p}\n")


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every `tssdnsim` module that imported it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "tssdnsim" or mod_name.startswith("tssdnsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every simulator layer with spans."""
    from tssdnsim import (config, control, engine, frames, hosts, metrics, scenario,
                          shaping, switching)

    methods = [
        (engine.Simulator, "run_until", "engine.run_until", False),
        (engine.Simulator, "schedule", "engine.schedule", False),
        (engine.Event, "cancel", "engine.cancel", False),
        (shaping.EgressPort, "enqueue", "shaping.enqueue", True),
        (switching.Switch, "handle_frame", "switching.handle_frame", False),
        (switching.FlowTable, "lookup", "switching.lookup", True),
        (control.ControlChannel, "send_to_controller", "control.send_to_controller", False),
        (control.ControlChannel, "send_to_switch", "control.send_to_switch", False),
        (control.ControlChannel, "packet_in", "control.packet_in", False),
        (control.Controller, "on_message", "control.on_message", False),
        (hosts.Host, "handle_frame", "hosts.handle_frame", False),
        (metrics.MetricsSink, "record", "metrics.record", False),
    ]
    for cls, attr, name, count_truthy in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count_truthy))

    functions = [
        (config.load_config, "config.load_config"),
        (scenario.run_scenario, "scenario.run_scenario"),
        (scenario.emit_outputs, "metrics.emit_outputs"),
        (frames.make_frame, "frames.make_frame"),
    ]
    for fn, name in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn))

    # Every scheduled callback is dispatched inside a span named after it.
    schedule = engine.Simulator.schedule
    dispatch_ids: dict = {}
    call = tracer.call

    def schedule_traced_callback(self, fire_at, callback, label=""):
        qualname = callback.__qualname__
        nid = dispatch_ids.get(qualname)
        if nid is None:
            nid = dispatch_ids[qualname] = tracer.name_id(DISPATCH + qualname)
        return schedule(self, fire_at, lambda: call(nid, callback), label)

    engine.Simulator.schedule = functools.wraps(schedule)(schedule_traced_callback)

    install_entry = switching.FlowTable.install

    def install_counted(self, match, priority, actions):
        entry = install_entry(self, match, priority, actions)
        tracer.flow_entries_max = max(tracer.flow_entries_max, len(self.entries))
        return entry

    switching.FlowTable.install = functools.wraps(install_entry)(install_counted)
