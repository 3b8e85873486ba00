"""Span tracing installed from outside the program.

`Tracer.prepare` wraps every public function of the traced modules and
every cached property of their classes, and returns a `Patch` that rebinds
each wrapper in every namespace that holds the original (package
`__init__`, `from`-imports in sibling modules, module-level dispatch
dicts).  Calls made through those names then record a span:
(name, start, end, parent).  Spans stay in memory until the run ends.

Spans use integer nanoseconds from one monotonic clock, so a parent's
self time (duration minus the durations of its direct children) is exact
and never negative when the spans nest properly.
"""

import functools
import inspect
import time
from functools import cached_property

NAME, START, END, PARENT = range(4)
OPEN = -1


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), OPEN, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def prepare(self, modules, namespaces):
        """Wrap the public functions defined in `modules` and the cached
        properties of their classes.  Returns a `Patch` that puts the
        wrappers into every namespace of `namespaces` holding an original,
        and into the module-level dicts there (a dispatch table such as
        `cli._COMMANDS` holds functions as values)."""
        wrappers = {}
        props = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, prop in vars(obj).items():
                        if isinstance(prop, cached_property):
                            props.append((obj, attr, prop, f"{short}.{attr}"))
        patch = Patch()
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patch.add(functools.partial(setattr, ns, name), obj, wrappers[obj])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            patch.add(functools.partial(obj.__setitem__, key),
                                      value, wrappers[value])
        for cls, attr, prop, label in props:
            traced = cached_property(self.wrap(label, prop.func))
            traced.__set_name__(cls, attr)
            patch.add(functools.partial(setattr, cls, attr), prop, traced)
        return patch


class Patch:
    """Bindings to switch between original and traced objects.  The
    wrappers are made once, so every interval between `apply` and `revert`
    records into the same tracer."""

    def __init__(self):
        self.bindings = []  # (setter, original, replacement)

    def add(self, setter, original, replacement):
        self.bindings.append((setter, original, replacement))

    def apply(self):
        for setter, _, replacement in self.bindings:
            setter(replacement)

    def revert(self):
        for setter, original, _ in reversed(self.bindings):
            setter(original)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child_total = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_total[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child_total)]


def accounting_errors(spans, names):
    """Violations of span accounting, as readable strings (empty when sound):
    an unclosed span, a child outside its parent's interval, or a negative
    self time."""
    errors = []
    for i, span in enumerate(spans):
        label = f"span {i} ({names[span[NAME]]})"
        if span[END] == OPEN or span[END] < span[START]:
            errors.append(f"{label} is not closed")
            continue
        p = span[PARENT]
        if p >= 0 and not (
            spans[p][START] <= span[START] and span[END] <= spans[p][END]
        ):
            errors.append(f"{label} lies outside its parent span {p}")
    if not errors:
        for i, st in enumerate(self_times(spans)):
            if st < 0:
                errors.append(f"span {i} ({names[spans[i][NAME]]}) has self time {st} ns")
    return errors


def aggregate(spans, names):
    """{name: (calls, self_ns)} over all spans."""
    totals = {}
    for span, st in zip(spans, self_times(spans)):
        name = names[span[NAME]]
        calls, self_ns = totals.get(name, (0, 0))
        totals[name] = (calls + 1, self_ns + st)
    return totals
