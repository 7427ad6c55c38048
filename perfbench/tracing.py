"""In-memory span tracing of rplap layers, installed from outside the program.

A `Tracer` replaces a function at every name its callers look it up by (the
defining module, every ``rplap`` module that imported it by name, or a class
attribute for methods) with a wrapper that records one span per call: name,
start, end and the span that was open when it was called.  Optional hooks add
work counts from the call's arguments or result.  Spans stay in memory and are
written out once, at the end of a run.
"""

from array import array
import json
import sys
import time


class Tracer:
    """Records spans and counts; `install` and `uninstall` patch the program."""

    def __init__(self):
        self.names = []          # span name per name id
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.root = array("l")   # outermost open span (the run phase) per span
        self.counts = {}         # (root span index, counter name) -> total
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.root.append(self._stack[0] if self._stack else index)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, value=1):
        """Add `value` to a counter, attributed to the open run phase."""
        key = (self._stack[0] if self._stack else -1, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name):
        """Context manager recording one span, e.g. a run phase or a verdict."""
        return _Span(self, name)

    def wrap(self, name, function, hook=None):
        """Traced version of `function`; `hook(tracer, args, kwargs, result)`."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, name, owner, attribute, hook=None, rebind=True):
        """Wrap `owner.attribute`; with `rebind`, also every rplap module name
        bound to the same object, so callers that imported it by name see the
        wrapper too."""
        original = getattr(owner, attribute)
        traced = self.wrap(name, original, hook)
        targets = [(owner, attribute)]
        if rebind:
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "rplap" or module_name.startswith("rplap.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original and (module, key) != (owner, attribute):
                        targets.append((module, key))
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, traced)
        return traced

    def uninstall(self):
        """Restore every patched name, most recent first."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time its direct children cover.

        Calls run on one thread, so children of one span never overlap and
        the covered time is the sum of their durations.
        """
        size = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(size)]
        for i in range(size):
            parent = self.parent[i]
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def per_phase(self, phase_names):
        """Layer totals normalised to one run of each phase.

        Returns {layer: {"calls": c, "self_s": s}} plus {counter: total}, where
        each phase named in `phase_names` (e.g. "setup", "pass") contributes
        its totals divided by how many times it ran.  Spans outside those
        phases are ignored.
        """
        runs = {phase: 0 for phase in phase_names}
        phase_of_root = {}
        for i in range(len(self.start)):
            if self.parent[i] < 0:
                name = self.names[self.name_id[i]]
                if name in runs:
                    runs[name] += 1
                    phase_of_root[i] = name
        own = self.self_times()
        # sum per phase first and divide once, so that counts stay exact
        calls, seconds, counted = {}, {}, {}
        for i in range(len(self.start)):
            phase = phase_of_root.get(self.root[i])
            if phase is None or self.parent[i] < 0:
                continue
            key = (self.names[self.name_id[i]], phase)
            calls[key] = calls.get(key, 0) + 1
            seconds[key] = seconds.get(key, 0.0) + own[i]
        for (root, counter), value in self.counts.items():
            phase = phase_of_root.get(root)
            if phase is not None:
                counted[counter, phase] = counted.get((counter, phase), 0) + value
        layers, counters = {}, {}
        for (name, phase), total in calls.items():
            entry = layers.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            entry["calls"] += total / runs[phase]
            entry["self_s"] += seconds[name, phase] / runs[phase]
        for (counter, phase), total in counted.items():
            counters[counter] = counters.get(counter, 0.0) + total / runs[phase]
        return layers, counters

    def write(self, path):
        """Write every span, columnar, as one JSON document."""
        payload = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "root": self.root.tolist(),
            "counts": [
                {"root": root, "counter": counter, "value": value}
                for (root, counter), value in sorted(self.counts.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False
