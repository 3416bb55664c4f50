"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces functions with timing wrappers.  A function that
other modules imported by name (``from .pressure_law import pressure_eval``)
is rebound in every one of those modules too, otherwise calls made through
the imported name would escape the span.  :meth:`Tracer.restore` puts every
original object back.

Spans nest on one stack.  A span's self time is its duration minus the time
covered by its direct child spans; since the program is single threaded the
children never overlap, so that is the sum of their durations.  Closed spans
are folded into per-name totals at once, so memory stays flat however many
calls a run makes.

This module imports only the standard library: the job imports it before it
starts the clock on ``import poroscale``.
"""

import sys
import time
from dataclasses import dataclass

WRAPPED_FLAG = "_perfbench_original"


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0      # duration of the spans not nested in one of the same name


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.open = {}           # name -> number of open spans of that name
        self._stack = []         # open spans: [name, start, time covered by children]
        self._patches = []       # (owner, attribute, original), in patch order

    # -- spans -------------------------------------------------------------
    def enter(self, name):
        self.open[name] = self.open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        """Close the innermost span; returns its duration."""
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        self.open[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = NameStats()
        st.calls += 1
        st.self_s += dur - covered
        if not self.open[name]:
            st.busy_s += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def is_open(self, name):
        return self.open.get(name, 0) > 0

    def get(self, name):
        return self.stats.get(name, NameStats())

    # -- wrappers ----------------------------------------------------------
    def wrap(self, name, fn, after=None):
        """Return a wrapper that spans each call of ``fn``.

        ``after(args, kwargs, result, duration)`` runs once the span has
        closed, so the hook's own cost is not charged to ``name``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        setattr(wrapper, WRAPPED_FLAG, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr, name, after=None, rebind_prefix=None):
        """Wrap ``owner.attr`` and every module-level alias of it.

        Aliases are looked for in the already imported modules whose name
        starts with ``rebind_prefix``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self.wrap(name, original, after)
        sites = [(owner, attr)]
        if rebind_prefix:
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not mod_name.startswith(rebind_prefix):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original and (mod, alias) != (owner, attr):
                        sites.append((mod, alias))
        for obj, alias in sites:
            self._patches.append((obj, alias, original))
            setattr(obj, alias, wrapper)

    def restore(self):
        while self._patches:
            obj, alias, original = self._patches.pop()
            setattr(obj, alias, original)

    def patched_sites(self):
        return [(obj, alias) for obj, alias, _ in self._patches]
