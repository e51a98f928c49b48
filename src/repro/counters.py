"""Shared machinery for process-level observability counters.

The GEMM kernel engine (:data:`repro.arith.kernels.KERNEL_STATS`), the
attack query tracker (:data:`repro.attacks.base.QUERY_STATS`) and the
artifact store (:data:`repro.store.STORE_STATS`) expose the same counter
contract: a fixed field tuple, monotonic within a process, consumed via
snapshot/delta pairs.  Each shard and zoo unit the engine runs reports its
own kernel and query deltas, wherever it ran (a pool worker keeps its own
instances), and :class:`~repro.parallel.telemetry.RunTelemetry` sums the
reports -- so a run's telemetry counts the run's own work, wherever it ran
and whatever else its process did meanwhile.  Counters are advisory only;
every determinism guarantee excludes them.
"""

from __future__ import annotations

from typing import Dict, Tuple


class ProcessCounters:
    """Base class of process-level counter singletons.

    Subclasses declare their integer fields in ``_FIELDS``; every field is
    zero-initialised and exposed as an attribute.  Consumers take a
    :meth:`snapshot` mark at scope start and read increments back with
    :meth:`delta`.
    """

    _FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: int(getattr(self, name)) for name in self._FIELDS}

    def delta(self, mark: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since ``mark`` (an earlier :meth:`snapshot`)."""
        return {name: int(getattr(self, name)) - int(mark.get(name, 0)) for name in self._FIELDS}
