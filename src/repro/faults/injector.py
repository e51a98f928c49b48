"""Deterministic fault injection behind ``REPRO_FAULTS``.

The fault model is a small catalog of *named injection points*
(:data:`FAULT_POINTS`) wired into the layers whose failures the execution
stack must survive: pool workers, the artifact store's publication and lease
protocol, the kernel build path and the HTTP layer.  Each point is armed by
an entry in ``REPRO_FAULTS``::

    REPRO_FAULTS="worker.crash:0.1:7,shard.hang:0.05:11"

where each entry is ``point:probability:seed`` (seed optional, default 0).
Whether a given *site* fires is a pure function of ``(seed, point, key)`` --
the key is stable content such as ``<cell digest>:<shard>:<attempt>`` -- so a
chaos run is exactly reproducible: same seed, same schedule of crashes,
hangs and torn writes.  Folding the *attempt* into the key is what makes
retries converge: the first attempt of an unlucky shard dies
deterministically, its retry draws a fresh coin.

In-process points additionally fire **at most once per key**: a retried
computation inside the same process (the engine's shard retry, an HTTP
client's second request) succeeds instead of looping on the same
deterministic coin.  Process-killing points (``worker.crash``) don't need
the guard -- the process that fired is gone.

Everything here is observability-grade machinery: with ``REPRO_FAULTS``
unset, :meth:`FaultInjector.should_inject` is one attribute read and a
``return False`` (the ``perf_pipeline --check`` gate holds it under 2%), and
no injection point can fire.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.counters import ProcessCounters

#: the injection-point catalog: name -> where it bites
FAULT_POINTS = {
    "worker.crash": "pool worker hard-exits mid-shard (simulated segfault)",
    "shard.hang": "pool worker wedges mid-shard (sleeps past any timeout)",
    "store.torn_write": "artifact publication leaves a truncated file instead",
    "store.lease_steal": "a writer's lease refresh finds its claim usurped",
    "kernel.build_fail": "fused-GEMM kernel construction raises once",
    "http.disconnect": "the service drops a connection before responding",
    "remote.timeout": "a remote store call stalls past its request deadline",
    "remote.error_5xx": "the remote store answers 500 instead of serving",
    "remote.corrupt_body": "a fetched remote artifact body arrives corrupted",
    "remote.reject_meta": "a fetched remote meta sidecar carries stale fingerprints",
}

#: how long an injected hang sleeps (seconds); ``REPRO_FAULT_HANG_SECONDS``
#: overrides it.  Chosen to outlive any sane ``REPRO_SHARD_TIMEOUT`` so a
#: hang is always resolved by the timeout/retry machinery, never by luck.
DEFAULT_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """An armed injection point fired (carries the point and site key)."""

    def __init__(self, point: str, key: str):
        # args must round-trip through pickle: workers raise this across the
        # process-pool boundary and unpickling re-calls __init__(*args)
        super().__init__(point, key)
        self.point = point
        self.key = key

    def __str__(self) -> str:
        return f"injected fault {self.point} at {self.key}"


class FaultStats(ProcessCounters):
    """Process-level injection counters, one field per catalog point.

    Same snapshot/delta contract as the kernel/query/store counters; the
    service's ``/metrics`` exposes the totals as
    ``repro_fault_injections_total{point=...}``.  ``checks`` counts every
    armed-point evaluation (fired or not) -- the denominator chaos tests and
    the faults-off overhead estimate both need.
    """

    _FIELDS = (
        "checks",
        "injected",
        "worker_crash",
        "shard_hang",
        "store_torn_write",
        "store_lease_steal",
        "kernel_build_fail",
        "http_disconnect",
        "remote_timeout",
        "remote_error_5xx",
        "remote_corrupt_body",
        "remote_reject_meta",
    )


#: process-wide injection counters
FAULT_STATS = FaultStats()


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection point: fire with ``probability`` under ``seed``."""

    point: str
    probability: float
    seed: int = 0


def parse_fault_specs(text: Optional[str]) -> Dict[str, FaultSpec]:
    """``"point:prob[:seed],..."`` -> ``{point: FaultSpec}``.

    Unknown points and malformed entries raise ``ValueError`` -- a chaos run
    with a typo'd point silently injecting nothing would defeat its purpose.
    """
    specs: Dict[str, FaultSpec] = {}
    if not text or not text.strip():
        return specs
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad REPRO_FAULTS entry {entry!r} (expected point:probability[:seed])"
            )
        point = parts[0].strip()
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(f"unknown fault point {point!r} (known: {known})")
        try:
            probability = float(parts[1])
        except ValueError:
            raise ValueError(f"bad probability in REPRO_FAULTS entry {entry!r}") from None
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of [0, 1] in REPRO_FAULTS entry {entry!r}")
        try:
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ValueError(f"bad seed in REPRO_FAULTS entry {entry!r}") from None
        specs[point] = FaultSpec(point=point, probability=probability, seed=seed)
    return specs


def _hang_seconds() -> float:
    raw = os.environ.get("REPRO_FAULT_HANG_SECONDS", "")
    try:
        return max(0.001, float(raw))
    except ValueError:
        return DEFAULT_HANG_SECONDS


class FaultInjector:
    """The process-wide injection switchboard (singleton :data:`FAULTS`).

    Reads ``REPRO_FAULTS`` once at construction (pool workers inherit the
    environment under both ``fork`` and ``spawn``, so parent and workers
    always agree on the schedule); tests re-arm via :meth:`configure` or
    :meth:`reload`.
    """

    def __init__(self, env: Optional[str] = None):
        self._specs: Dict[str, FaultSpec] = {}
        self._fired: Set[Tuple[str, str]] = set()
        self.configure(os.environ.get("REPRO_FAULTS") if env is None else env)

    @property
    def enabled(self) -> bool:
        return bool(self._specs)

    def configure(self, text: Optional[str]) -> None:
        """Arm the points described by ``text`` (``None``/empty disarms all)."""
        self._specs = parse_fault_specs(text)
        self._fired = set()

    def reload(self) -> None:
        """Re-read ``REPRO_FAULTS`` (tests that monkeypatch the environment)."""
        self.configure(os.environ.get("REPRO_FAULTS"))

    # ------------------------------------------------------------- decisions
    @staticmethod
    def _decide(spec: FaultSpec, key: str) -> bool:
        """The deterministic coin: pure function of ``(seed, point, key)``."""
        digest = hashlib.sha256(f"{spec.seed}|{spec.point}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < spec.probability

    def should_inject(self, point: str, key: str) -> bool:
        """Whether the armed point fires at this site (at most once per key).

        The disarmed path -- the shipped default -- is one dict truthiness
        check; injection sites call this unconditionally.
        """
        if not self._specs:
            return False
        spec = self._specs.get(point)
        if spec is None:
            return False
        FAULT_STATS.checks += 1
        if (point, key) in self._fired or not self._decide(spec, key):
            return False
        self._fired.add((point, key))
        FAULT_STATS.injected += 1
        field = point.replace(".", "_")
        setattr(FAULT_STATS, field, getattr(FAULT_STATS, field) + 1)
        return True

    # ------------------------------------------------------------- actions
    def maybe_crash(self, key: str) -> None:
        """``worker.crash``: hard-exit the process, as a segfault would."""
        if self.should_inject("worker.crash", key):
            os._exit(117)

    def maybe_hang(self, key: str) -> None:
        """``shard.hang``: wedge this thread until killed or timed out."""
        if self.should_inject("shard.hang", key):
            deadline = time.monotonic() + _hang_seconds()
            while time.monotonic() < deadline:
                time.sleep(0.05)

    def maybe_raise(self, point: str, key: str) -> None:
        """Raise :class:`InjectedFault` if ``point`` fires at ``key``."""
        if self.should_inject(point, key):
            raise InjectedFault(point, key)


#: the process singleton every injection site consults
FAULTS = FaultInjector()
