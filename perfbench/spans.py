"""Call spans for the traced run, recorded from outside the program.

A :class:`Tracer` replaces a function or method with a wrapper at the place
its caller looks the name up (a module global such as
``spamcal.estimate.pair_column``, or a class attribute such as
``NoiseModel.column``). Each wrapper counts calls and adds up wall time,
and also the part of that time spent in other wrapped calls nested inside
it, so that a layer's self time is its total minus its children's. Names
the program no longer has are skipped; ``installed`` lists the spans in place.
:meth:`Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.nested = defaultdict(float)
        self.counters = defaultdict(int)
        self.installed = set()
        self._open = []  # time spent in wrapped children, per open span
        self._replaced = []  # (owner, attr, original or None if inherited)

    def _wrap(self, span: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls[span] += 1
                self.total[span] += dt
                self.nested[span] += self._open.pop()
                if self._open:
                    self._open[-1] += dt
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def install(self, owner, attr: str, span: str, on_result=None):
        """Wrap ``owner.attr`` (module function, method or classmethod)."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        self._replaced.append((owner, attr, raw if attr in vars(owner) else None))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(span, raw.__func__, on_result))
        else:
            wrapped = self._wrap(span, raw, on_result)
        setattr(owner, attr, wrapped)
        self.installed.add(span)

    def uninstall(self):
        """Put back every function this tracer replaced, last first."""
        while self._replaced:
            owner, attr, raw = self._replaced.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def count(self, name: str, value: float = 1):
        self.counters[name] += value

    def self_time(self, span: str) -> float:
        return self.total[span] - self.nested[span]
