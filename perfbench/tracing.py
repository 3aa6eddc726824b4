"""Spans around the calls into treelabel's public functions.

The modules bind most functions by from-import (``estimator.dp_up``,
``intervals.postorder``, ``solve.solve_dp``, the package namespace), so a
wrapper on the defining module alone would miss most calls. ``install``
therefore replaces every binding of each traced function in every loaded
``treelabel`` module, plus the class attributes for methods, and
``uninstall`` puts every original back. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# <module>.<function> or <module>.<Class>.<method>, relative to treelabel.
TRACED = (
    "newick.parse_newick",
    "newick.parse_newick_tuples",
    "newick.serialize_labeled",
    "newick.serialize_tuple_labeled",
    "tree.build_tree",
    "tree.postorder",
    "tree.preorder",
    "tree.is_binary",
    "costs.LeafLabeling.for_tree",
    "costs.eval_total",
    "solve.choose_algorithm",
    "solve.solve_scalar",
    "dp.dp_up",
    "dp.dp_down",
    "intervals.bottom_up_intervals",
    "intervals.top_down_labels",
    "estimator.TreeLabeler.fit",
    "estimator.TreeLabeler.to_newick",
    "tuples.solve_ktuple",
    "cli.main",
)

# Fields of one span record, a list so the wrapper can fill in the end time.
NAME, PARENT, OP, START, END = range(5)


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "treelabel" or name.startswith("treelabel."))
    ]


class Tracer:
    """Records one span per traced call and per benchmark operation.

    A span is ``[name, parent span id, operation id, start, end]``; its id is
    its index in ``spans``. Operations are root spans named by their kind.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.op_kinds: list = []
        self._stack: list = []
        self._patches: list = []  # (holder, attribute, original)
        self._wrappers: set = set()

    # -- wrappers ------------------------------------------------------ #

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, len(self.op_kinds) - 1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        functools.update_wrapper(traced, fn)
        self._wrappers.add(traced)
        return traced

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, replacement)

    def install(self) -> None:
        """Wrap every binding of every TRACED function across treelabel.*."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = []
        for dotted in TRACED:
            module_name, *path = dotted.split(".")
            owner = importlib.import_module(f"treelabel.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            targets.append((dotted, owner, path[-1]))
        modules = _package_modules()
        for dotted, owner, name in targets:
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                self._patch(owner, name, classmethod(self._wrap(dotted, raw.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, name, self._wrap(dotted, raw))
            else:
                wrapper = self._wrap(dotted, raw)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, then check that nothing is left wrapped."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        self.assert_restored()

    def assert_restored(self) -> None:
        """Raise if any treelabel module or class still holds a wrapper."""
        wrapper_ids = {id(w) for w in self._wrappers}
        for mod in _package_modules():
            for holder in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for attr, value in vars(holder).items():
                    if id(getattr(value, "__func__", value)) in wrapper_ids:
                        raise RuntimeError(f"{holder.__name__}.{attr} is still wrapped")

    # -- operations ---------------------------------------------------- #

    @contextmanager
    def operation(self, kind: str):
        """One benchmark operation: a root span that traced calls nest under."""
        self.op_kinds.append(kind)
        rec = [kind, -1, len(self.op_kinds) - 1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def per_operation(self) -> list:
        """Per operation: (kind, duration, {name: [self seconds, calls]})."""
        own = self.self_times()
        ops = [(kind, 0.0, {}) for kind in self.op_kinds]
        for sid, rec in enumerate(self.spans):
            kind, duration, table = ops[rec[OP]]
            if rec[PARENT] < 0:
                ops[rec[OP]] = (kind, rec[END] - rec[START], table)
            entry = table.setdefault(rec[NAME], [0.0, 0])
            entry[0] += own[sid]
            entry[1] += 1
        return ops

    def as_records(self) -> list:
        return [
            {"id": sid, "name": rec[NAME], "parent": rec[PARENT], "op": rec[OP],
             "start": rec[START], "end": rec[END]}
            for sid, rec in enumerate(self.spans)
        ]
