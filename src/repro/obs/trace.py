"""Lightweight cross-process tracing for the pipeline (``REPRO_TRACE``).

Spans are the observability primitive threaded through every execution tier:
the runner wraps each grid cell, the parallel engine wraps each worker
shard, the kernel engine marks its build decisions (compiled LUT kernel vs
reference fallback), attacks mark their phases (victim selection,
forward, gradient sweep, rollout) and the artifact store marks lease
traffic and eviction.  Everything is stdlib and **off by default**: with
``REPRO_TRACE`` unset, :meth:`Tracer.span` returns a shared no-op context
manager -- one attribute read and one ``if`` per call site, cheap enough to
leave in the hottest instrumented paths (per-GEMM-call spans are still
deliberately avoided; strategy decisions are per *layer*, not per call).

Enabled (``REPRO_TRACE=1`` or ``REPRO_TRACE=/path/to/dir``), each process
appends finished spans to its own NDJSON spool file -- one line per span::

    {"name": "shard", "cat": "engine", "pid": 123, "tid": 7,
     "ts": 1722440000000000.0, "dur": 15234.5, "args": {...}}

``ts`` is wall-clock microseconds since the epoch (comparable across
processes), ``dur`` is measured with the monotonic ``perf_counter`` clock
(immune to clock steps).  Per-process spool files mean workers never
contend on a shared file; :meth:`Tracer.end_run` merges every spool of a
run scope into one time-sorted ``*.trace.ndjson`` that the ``trace`` CLI
(:mod:`repro.obs.timeline`) summarises or exports as Chrome trace-event
JSON for Perfetto.

Fork safety: a forked worker inherits the parent tracer's state, but the
spool file handle is re-opened on first emit under a new pid, so parent and
child never interleave writes in one file.  Tracing never raises into the
traced workload -- spool IO failures silently disable emission.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_FALSEY = ("", "0", "false", "no", "off")


class _NullSpan:
    """The shared disabled span: a no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; finished (and spooled) when its ``with`` block exits."""

    __slots__ = ("_tracer", "name", "cat", "args", "_ts_us", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._ts_us = 0.0
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        self._ts_us = time.time() * 1e6
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter_ns() - self._start_ns) / 1000.0
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._emit(
            {
                "name": self.name,
                "cat": self.cat,
                "pid": os.getpid(),
                "tid": threading.get_ident() % 100000,
                "ts": round(self._ts_us, 1),
                "dur": round(dur_us, 1),
                "args": self.args,
            }
        )
        return False

    def __setitem__(self, key: str, value: Any) -> None:
        """Attach an argument discovered mid-span (e.g. the chosen strategy)."""
        self.args[key] = value


class RunScope:
    """Handle for one run's spool directory (returned by :meth:`Tracer.begin_run`)."""

    __slots__ = ("directory", "label")

    def __init__(self, directory: Path, label: str):
        self.directory = directory
        self.label = label


class Tracer:
    """Process-global span collector (see the module docstring).

    Configuration is lazy: the first :attr:`enabled` read consults
    ``REPRO_TRACE``.  :meth:`configure` overrides (or, with no arguments,
    re-reads) it -- tests and benchmarks use that to toggle tracing without
    touching the environment of the whole process tree.
    """

    def __init__(self) -> None:
        self._fresh_lock()
        self._configured = False
        self._enabled = False
        self._base_dir: Optional[Path] = None
        self._scope_dir: Optional[Path] = None
        self._file = None
        self._file_pid: Optional[int] = None
        self._counter = 0

    def _fresh_lock(self) -> None:
        # also run in every forked child: a fork while another thread holds
        # the lock would leave the child's copy held for good
        self._lock = threading.Lock()

    # ------------------------------------------------------------- config
    def _ensure_configured(self) -> None:
        if self._configured:
            return
        with self._lock:
            if self._configured:
                return
            raw = os.environ.get("REPRO_TRACE", "")
            if raw.strip().lower() in _FALSEY:
                self._enabled = False
                self._base_dir = None
            else:
                self._enabled = True
                # a path-like value names the spool/merge directory; a bare
                # truthy flag spools under the system temp directory
                if os.sep in raw or raw.startswith("."):
                    self._base_dir = Path(raw)
                else:
                    self._base_dir = Path(tempfile.gettempdir()) / "repro-trace"
            self._configured = True

    def configure(
        self, enabled: Optional[bool] = None, directory: Optional[Path] = None
    ) -> None:
        """Override (or with no args: re-read ``REPRO_TRACE``) the config."""
        with self._lock:
            self._close_file_locked()
            self._configured = False
            self._scope_dir = None
        if enabled is not None:
            with self._lock:
                self._enabled = bool(enabled)
                self._base_dir = Path(directory) if directory is not None else (
                    Path(tempfile.gettempdir()) / "repro-trace"
                )
                self._configured = True

    @property
    def enabled(self) -> bool:
        self._ensure_configured()
        return self._enabled

    # --------------------------------------------------------------- spans
    def span(self, name: str, cat: str = "repro", **args: Any):
        """A context manager timing one operation; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def _emit(self, record: Dict[str, Any]) -> None:
        try:
            with self._lock:
                handle = self._open_file_locked()
                if handle is None:
                    return
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        except (OSError, ValueError, TypeError):
            pass  # tracing must never take down the traced workload

    def _open_file_locked(self):
        pid = os.getpid()
        if self._file is not None and self._file_pid == pid:
            return self._file
        # first emit in this process (or first after a fork): open a fresh
        # per-pid spool file so processes never share a file handle
        self._file = None
        directory = self._scope_dir or self._base_dir
        if directory is None:
            return None
        directory.mkdir(parents=True, exist_ok=True)
        self._counter += 1
        name = f"spans-{pid}-{self._counter}-{os.urandom(3).hex()}.ndjson"
        # line-buffered: every span line is flushed, so the merge (and any
        # reader of a crashed worker's spool) sees only complete records
        self._file = open(directory / name, "a", buffering=1, encoding="utf-8")
        self._file_pid = pid
        return self._file

    def _close_file_locked(self) -> None:
        if self._file is not None and self._file_pid == os.getpid():
            try:
                self._file.close()
            except OSError:
                pass
        self._file = None
        self._file_pid = None

    # ---------------------------------------------------------- run scopes
    def begin_run(self, label: str = "run") -> Optional[RunScope]:
        """Open a fresh spool directory for one run's spans.

        Returns ``None`` when tracing is disabled *or* another scope is
        already active in this process (concurrent service jobs): the nested
        run's spans then land in the active scope and are merged by its
        owner.
        """
        if not self.enabled:
            return None
        with self._lock:
            if self._scope_dir is not None:
                return None
            self._counter += 1
            directory = (
                self._base_dir
                / f"run-{os.getpid()}-{self._counter}-{os.urandom(3).hex()}"
            )
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError:
                return None
            self._close_file_locked()
            self._scope_dir = directory
        return RunScope(directory, label)

    def worker_spool_dir(self) -> Optional[str]:
        """The directory pool workers should spool into (initargs payload)."""
        if not self.enabled:
            return None
        directory = self._scope_dir or self._base_dir
        return str(directory) if directory is not None else None

    def attach(self, directory: str) -> None:
        """Worker-side: force-enable spooling into the parent's scope dir."""
        with self._lock:
            self._enabled = True
            self._configured = True
            self._scope_dir = Path(directory)
            if self._base_dir is None:
                self._base_dir = self._scope_dir
            self._close_file_locked()

    def end_run(
        self, scope: Optional[RunScope], merged_path: Optional[Path] = None
    ) -> Optional[Dict[str, Any]]:
        """Close ``scope``, merge every spool file, return a trace summary.

        The merged NDJSON (time-sorted across all pids) is written to
        ``merged_path`` (default: ``<base>/<label>.trace.ndjson``); the spool
        directory is removed.  Returns ``{"path", "spans", "pids"}`` or
        ``None`` when ``scope`` is ``None``.
        """
        if scope is None:
            return None
        with self._lock:
            self._close_file_locked()
            if self._scope_dir == scope.directory:
                self._scope_dir = None
        spans = _read_spool_dir(scope.directory)
        spans.sort(key=lambda s: (s.get("ts", 0.0), s.get("pid", 0)))
        if merged_path is None:
            merged_path = scope.directory.parent / f"{scope.label}.trace.ndjson"
        merged_path = Path(merged_path)
        try:
            merged_path.parent.mkdir(parents=True, exist_ok=True)
            with open(merged_path, "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        except OSError:
            return None
        _remove_dir(scope.directory)
        return {
            "path": str(merged_path),
            "spans": len(spans),
            "pids": sorted({int(s.get("pid", 0)) for s in spans}),
        }


def _read_spool_dir(directory: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return spans
    for name in names:
        if not name.endswith(".ndjson"):
            continue
        try:
            with open(directory / name, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # a worker died mid-line; keep the rest
                    if isinstance(record, dict):
                        spans.append(record)
        except OSError:
            continue
    return spans


def _remove_dir(directory: Path) -> None:
    try:
        for name in os.listdir(directory):
            try:
                os.unlink(directory / name)
            except OSError:
                pass
        os.rmdir(directory)
    except OSError:
        pass


#: the process-global tracer every instrumented call site imports
TRACER = Tracer()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=TRACER._fresh_lock)
