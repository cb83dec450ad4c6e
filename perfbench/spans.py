"""In-memory span tracer installed around the calls into wasnloc's layers.

The package is not instrumented itself: the tracer wraps the public
functions of each layer module at every place they are bound (the package
modules import names from one another, so ``signals.simulate_rir`` and
``rir.simulate_rir`` are separate bindings of one function) and restores
the originals when it is removed. A span records its name, start, end, the
span open around it (its parent), a group id shared by the spans of one
example or training step, and counts taken from the call's arguments.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rebind import rebound


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _mics_from_pairs(p: int) -> int:
    return int(round((1 + np.sqrt(1 + 8 * p)) / 2))


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


# (module, function, span name, counts taken from the call's arguments)
TARGETS = [
    ("scenes", "sample_scene", "scenes.sample_scene", None),
    ("signals", "provide_source_signal_with_id", "signals.provide_source_signal", None),
    ("signals", "auralize", "signals.auralize", lambda a, k: {"mics": a[0].m}),
    ("rir", "simulate_rir", "rir.simulate_rir", None),
    ("signals", "add_noise", "signals.add_noise", None),
    ("signals", "write_wav", "signals.write_wav", None),
    ("features", "extract_frame", "features.extract_frame", None),
    ("features", "gcc_phat", "features.gcc_phat", None),
    ("features", "slf_project", "features.slf_project", None),
    ("features", "theoretical_tdoa_grid", "features.theoretical_tdoa_grid", None),
    ("relnet", "raw_pair_features", "relnet.raw_pair_features", lambda a, k: {"pairs": _pairs(a[1].m)}),
    ("relnet", "relnet_forward_features", "relnet.relnet_forward_features",
     lambda a, k: {"m": _mics_from_pairs(np.asarray(a[1]).shape[0])}),
    ("relnet", "gnn_localize", "relnet.gnn_localize", lambda a, k: {"m": a[2].m}),
    ("relnet", "mae_loss", "relnet.mae_loss", None),
    ("relnet", "save_checkpoint", "relnet.save_checkpoint", None),
    ("relnet", "load_checkpoint", "relnet.load_checkpoint", None),
    ("classical", "tdoa_localize", "classical.tdoa_localize", lambda a, k: {"m": a[1].m}),
    ("classical", "slf_localize", "classical.slf_localize", lambda a, k: {"m": a[1].m}),
    ("mlp", "adam_step", "mlp.adam_step",
     lambda a, k: {"bytes": 6 * sum(p.nbytes for p in a[1]) + sum(np.asarray(g).nbytes for g in a[2])}),
    ("dataset", "generate_dataset", "dataset.generate_dataset", None),
    ("dataset", "generate_example", "dataset.generate_example", None),
    ("dataset", "write_feature_cache", "dataset.write_feature_cache", None),
    ("dataset", "load_split_features", "dataset.load_split_features", None),
    ("dataset", "load_example_dir", "dataset.load_example_dir", None),
    ("dataset", "example_features", "dataset.example_features", None),
    ("training", "train", "training.train", None),
    # Private, wrapped only so that validation passes get their own group.
    ("training", "_dataset_loss", "training.validation", None),
    ("evaluate", "evaluate", "evaluate.evaluate", lambda a, k: {"method": a[0]}),
]

# A span with one of these names starts a new group (one example, one
# validation pass); the group also ends when it closes, as it does after
# each Adam step, which is the last call of a training step.
UNIT_SPANS = frozenset(
    {
        "dataset.generate_example",
        "dataset.load_example_dir",
        "dataset.example_features",
        "training.validation",
        "localize.slf",
        "localize.gnn",
    }
)
STEP_END_SPANS = frozenset({"mlp.adam_step"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    group: int
    phase: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``installed()`` wraps the layer functions meanwhile."""

    def __init__(self):
        self.phase = ""  # label copied into each span: "setup<k>", "prep" or "measure"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._group = 0
        self._unit_depth = 0
        self.skipped: set[str] = set()  # targets the package does not bind

    @contextmanager
    def span(self, name: str, **counts):
        if name in UNIT_SPANS:
            if self._unit_depth == 0:
                self._group += 1
            self._unit_depth += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._group, self.phase, counts))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
            if name in UNIT_SPANS:
                self._unit_depth -= 1
                if self._unit_depth == 0:
                    self._group += 1
            elif name in STEP_END_SPANS and self._unit_depth == 0:
                self._group += 1

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter else {}
            with self.span(name, **counts):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, mlps: dict | None = None):
        """Wrap every binding of the TARGETS functions, plus the forward and
        backward methods of the given ``{"f": Mlp, "g": Mlp}`` instances. A
        target the package no longer has is skipped and named in ``skipped``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wasnloc" or n.startswith("wasnloc.")]
        bindings = []
        for mod_name, attr, span_name, counter in TARGETS:
            try:
                fn = getattr(importlib.import_module(f"wasnloc.{mod_name}"), attr, None)
            except ImportError:
                fn = None
            if fn is None:
                self.skipped.add(f"wasnloc.{mod_name}.{attr}")
                continue
            wrapped = self.wrap(fn, span_name, counter)
            bindings += [(mod, attr, lambda _, w=wrapped: w) for mod in modules if mod.__dict__.get(attr) is fn]
        for label, net in (mlps or {}).items():
            shapes = [w.shape for w, _ in net.layers]
            flops_per_row = 2 * sum(a * b for a, b in shapes)
            fwd = lambda a, k, f=flops_per_row: {"rows": _rows(a[0]), "flops": f * _rows(a[0])}
            bwd = lambda a, k, f=flops_per_row: {"rows": _rows(a[1]), "flops": 2 * f * _rows(a[1])}
            bindings.append((net, "forward", lambda fn, c=fwd, n=f"mlp.forward_{label}": self.wrap(fn, n, c)))
            bindings.append((net, "backward", lambda fn, c=bwd: self.wrap(fn, "mlp.backward", c)))
        with rebound(bindings, self.skipped):
            yield self

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        rows = [
            [s.name, s.phase, s.start, s.end, s.parent, s.group, o, s.counts]
            for s, o in zip(self.spans, own)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "phase", "start", "end", "parent", "group", "self", "counts"], "spans": rows}, fh)
