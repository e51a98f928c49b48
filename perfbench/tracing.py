"""Span tracing of the program from outside: wrappers around public callables.

:func:`install` replaces public functions and methods of each layer
(``repro.nn``, ``repro.arith.kernels``, ``repro.attacks`` ...) with wrappers
that record one span per call: ``(id, parent, name, start, end, attrs)``.
Nothing inside ``src/`` changes; :meth:`Patcher.restore` puts every original
object back.

Spans are kept in memory per process and written to
``<spool>/spans.<pid>.ndjson`` when the process ends: the traced entry point
(:mod:`shim`) flushes the main process, and forked pool workers flush through
a ``multiprocessing`` finalizer.  Span ids embed the pid, so a worker's first
span can name the span that was open in the parent when it forked.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: span ids are ``pid * ID_SCALE + n``: unique across the processes of a run
ID_SCALE = 10**9

#: repro layer classes -> the label their forward/backward spans carry
NN_CLASS_LABELS = {
    "Conv2d": "conv",
    "ApproxConv2d": "approx_conv",
    "QuantConv2d": "quant_conv",
    "MaxPool2d": "pool",
    "Linear": "dense",
    "QuantLinear": "dense",
    "ApproxLinear": "approx_dense",
    "BatchNorm2d": "bn",
    "ReLU": "act",
    "QuantReLU": "act",
}


class Tracer:
    """In-memory span buffer of one process (re-armed in forked children)."""

    def __init__(self, spool_dir: Optional[str] = None):
        self.spool_dir = spool_dir
        self.spans: List[tuple] = []
        self.pid = os.getpid()
        self.fork_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs):
        """Context manager recording one span (for code the shim runs itself)."""
        return _ManualSpan(self, name, attrs or None)

    def wrap(
        self,
        fn: Callable,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a string or ``args -> str``; ``before(args)`` returns state
        handed to ``after(args, result, state)``, which returns the span's
        attributes (merged over the static ``attrs``).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack()
            parent = stack[-1] if stack else tracer.fork_parent
            sid = tracer.pid * ID_SCALE + next(tracer._ids)
            label = name(args) if callable(name) else name
            state = before(args) if before is not None else None
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = attrs
                if after is not None:
                    extra = {**(attrs or {}), **(after(args, result, state) or {})}
                tracer.spans.append((sid, parent, label, start, end, extra))

        return traced

    def flush(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Append this process's spans (and optional metadata) to its spool file."""
        if self.spool_dir is None:
            return
        record = {"pid": self.pid, "spans": self.spans}
        if meta is not None:
            record["meta"] = meta
        path = Path(self.spool_dir) / f"spans.{self.pid}.ndjson"
        with open(path, "a") as out:
            out.write(json.dumps(record) + "\n")
        self.spans = []

    def after_fork_in_child(self) -> None:
        """Start a fresh buffer in a forked child, parented to the forking span."""
        stack = self.stack()
        if stack:
            self.fork_parent = stack[-1]
        stack.clear()
        self.spans = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)

    def arm_worker_flush(self) -> None:
        """``multiprocessing`` after-fork hook: flush when the worker exits."""
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def follow_forks(self) -> None:
        """Trace forked children too (process-wide hooks: call once per process)."""
        os.register_at_fork(after_in_child=self.after_fork_in_child)
        mp_util.register_after_fork(self, Tracer.arm_worker_flush)


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        stack = self.tracer.stack()
        self.parent = stack[-1] if stack else self.tracer.fork_parent
        self.sid = self.tracer.pid * ID_SCALE + next(self.tracer._ids)
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = perf_counter()
        self.tracer.stack().pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, self.start, end, self.attrs))


class Patcher:
    """Records every replaced attribute / registry entry so it can be restored."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def setattr(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(self, fn: Callable, replacement: Callable) -> int:
        """Rebind every ``repro`` module global that is ``fn`` (``from x import``)."""
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.setattr(module, attr, replacement)
                    count += 1
        return count

    def register(self, registry, name: str, factory: Any) -> None:
        """Swap one registry entry's factory through the public ``register``."""
        entry = registry.get(name)
        original, metadata = entry.factory, dict(entry.metadata)
        registry.register(name, factory, metadata=metadata, overwrite=True)
        self._undo.append(
            lambda: registry.register(name, original, metadata=metadata, overwrite=True)
        )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _nn_label(direction: str):
    def name(args) -> str:
        for cls in type(args[0]).__mro__:
            label = NN_CLASS_LABELS.get(cls.__name__)
            if label is not None:
                return f"nn.{label}.{direction}"
        return f"nn.other.{direction}"

    return name


def _counter_delta(counters):
    """``before``/``after`` pair attaching a ProcessCounters delta to the span."""

    def before(_args):
        return counters.snapshot()

    def after(_args, _result, mark):
        return {k: v for k, v in counters.delta(mark).items() if v}

    return before, after


def install(tracer: Tracer) -> Patcher:
    """Wrap each layer's public callables; returns the :class:`Patcher` to undo it."""
    import repro.attacks  # noqa: F401  (registers every attack class)
    import repro.cli  # noqa: F401
    import repro.core.substitute as substitute
    import repro.datasets as datasets
    import repro.nn as nn
    import repro.nn.functional as functional
    import repro.pipeline.catalog  # noqa: F401
    import repro.pipeline.handlers as handlers
    from repro.arith.kernels import KERNEL_STATS, FallbackGemmKernel, FusedLutGemmKernel
    from repro.attacks.base import QUERY_STATS, Attack, Classifier
    from repro.core import evaluation
    from repro.experiments.zoo import ZOO
    from repro.nn.network import Sequential
    from repro.parallel import plan
    from repro.parallel.engine import ParallelEngine
    from repro.pipeline.cells import CellKind
    from repro.pipeline.runner import EXPERIMENT_KINDS, ExperimentResult
    from repro.store import ArtifactStore

    patcher = Patcher()
    wrap = tracer.wrap

    # repro.nn: every layer class's own forward/backward, labelled by the
    # instance's class so inherited methods (ApproxConv2d.backward) count
    # under the subclass
    for cls_name in NN_CLASS_LABELS:
        cls = getattr(nn, cls_name)
        for method, direction in (("forward", "fwd"), ("backward", "bwd")):
            if method in vars(cls):
                patcher.setattr(cls, method, wrap(vars(cls)[method], _nn_label(direction)))
    for fn_name in ("im2col", "col2im"):
        fn = getattr(functional, fn_name)
        patcher.patch_function(fn, wrap(fn, f"nn.{fn_name}"))
    for cls in (nn.SGD, nn.Adam):
        patcher.setattr(cls, "step", wrap(vars(cls)["step"], "nn.optim.step"))
    for fn, name in (
        (nn.train_classifier, "train.classifier"),
        (substitute.train_substitute, "train.substitute"),
        (datasets.generate_digits, "datasets.generate"),
        (datasets.generate_objects, "datasets.generate"),
        (evaluation.select_correctly_classified, "evaluation.select_victims"),
        (plan.build_plan, "pipeline.plan"),
        (plan.cache_outlook, "pipeline.plan"),
    ):
        patcher.patch_function(fn, wrap(fn, name))
    patcher.setattr(Sequential, "load", wrap(vars(Sequential)["load"], "zoo.model_load"))

    # repro.experiments.zoo: registry entries (what Runner.zoo resolves) and
    # the module globals entries call each other through
    for entry_name in ZOO.names():
        original = ZOO.get(entry_name).factory
        traced = wrap(original, "zoo.entry", attrs={"entry": entry_name})
        patcher.register(ZOO, entry_name, traced)
        patcher.patch_function(original, traced)

    # repro.arith.kernels: counter deltas give calls, MACs and cache hits
    before, after = _counter_delta(KERNEL_STATS)
    for cls, name in ((FusedLutGemmKernel, "kernels.fused"), (FallbackGemmKernel, "kernels.fallback")):
        patcher.setattr(
            cls, "__call__", wrap(vars(cls)["__call__"], name, before=before, after=after)
        )

    # repro.attacks / repro.core.evaluation
    query_before, query_after = _counter_delta(QUERY_STATS)
    patcher.setattr(
        Attack,
        "generate",
        wrap(
            vars(Attack)["generate"],
            "attacks.generate",
            before=query_before,
            after=lambda args, result, mark: {"attack": args[0].name, **query_after(args, result, mark)},
        ),
    )
    for method in ("predict_logits", "predict_proba", "predict"):
        patcher.setattr(Classifier, method, wrap(vars(Classifier)[method], "classifier.predict"))
    for method in (
        "loss_gradient",
        "logits_gradient",
        "gradient_sweep",
        "cached_logits_gradient",
        "class_gradient",
        "jacobian",
    ):
        patcher.setattr(Classifier, method, wrap(vars(Classifier)[method], "classifier.gradient"))

    # repro.pipeline / repro.parallel
    for kind in EXPERIMENT_KINDS.names():
        handler = EXPERIMENT_KINDS.get(kind).factory
        if isinstance(handler, handlers.KindHandler):
            traced = dataclasses.replace(
                handler, assemble=wrap(handler.assemble, "pipeline.assemble")
            )
            patcher.register(EXPERIMENT_KINDS, kind, traced)
    patcher.setattr(
        ExperimentResult, "write", wrap(vars(ExperimentResult)["write"], "pipeline.results_write")
    )
    patcher.setattr(
        ParallelEngine, "execute", wrap(vars(ParallelEngine)["execute"], "parallel.execute")
    )
    patcher.setattr(CellKind, "warm", wrap(vars(CellKind)["warm"], "parallel.warm"))
    patcher.setattr(
        CellKind, "compute_shard", wrap(vars(CellKind)["compute_shard"], "parallel.shard")
    )

    # repro.store
    patcher.setattr(
        ArtifactStore,
        "get",
        wrap(
            vars(ArtifactStore)["get"],
            "store.get",
            after=lambda args, result, state: {"hit": result is not None},
        ),
    )
    patcher.setattr(
        ArtifactStore,
        "put",
        wrap(vars(ArtifactStore)["put"], "store.put", after=_put_bytes),
    )
    patcher.setattr(ArtifactStore, "wait_for", wrap(vars(ArtifactStore)["wait_for"], "store.wait"))
    return patcher


def _put_bytes(args, result, _state) -> Dict[str, int]:
    """Bytes an ``ArtifactStore.put`` published (artifact plus sidecar)."""
    total = 0
    if result is not None:
        for path in (Path(result), Path(str(result)[: -len(".json")] + ".meta.json")):
            try:
                total += path.stat().st_size
            except OSError:
                pass
    return {"bytes": total}
