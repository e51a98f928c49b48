"""Fault-tolerance policy knobs: timeouts, retry budgets, backoff.

One module owns every retry/timeout environment variable so the fault model
documented in ``docs/faults.md`` has a single source of truth.  All of these
are *execution* policy: like ``--jobs`` and the shard size, no setting
changes a single result bit -- they only change how failures are survived.
"""

from __future__ import annotations

import os
import random
from typing import Optional, Tuple

#: default bounded retry budget per shard (attempts = retries + 1)
DEFAULT_SHARD_RETRIES = 2

#: exponential-backoff shape for shard/cell retries: ``base * 2**attempt``
#: seconds, capped, with +/-25% jitter so simultaneous retries spread out
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: how many times the engine rebuilds a broken/hung worker pool before it
#: degrades to serial in-process execution instead of aborting the run
POOL_RESPAWN_LIMIT = 3

#: default lease-wait polling: start interval and backoff cap (seconds)
DEFAULT_LEASE_POLL = (0.02, 0.25)

#: default retry budget for service jobs that die on a retryable error
DEFAULT_JOB_RETRIES = 1

#: default per-request deadline for remote artifact-store calls (seconds)
DEFAULT_REMOTE_TIMEOUT = 5.0

#: default bounded retry budget per remote call (attempts = retries + 1);
#: retries apply to transport errors, timeouts and 5xx answers -- never to
#: a clean 404 (a miss is an answer, not a failure)
DEFAULT_REMOTE_RETRIES = 2

#: default circuit-breaker policy for the remote tier:
#: (consecutive-failure threshold that opens it, cooldown seconds before a
#: half-open probe is allowed)
DEFAULT_REMOTE_BREAKER = (5, 30.0)


def _float_env(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name, "")
    try:
        return float(raw)
    except ValueError:
        return default


def _int_env(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw)
    except ValueError:
        return default


def shard_timeout() -> Optional[float]:
    """Per-shard wall-clock budget (``REPRO_SHARD_TIMEOUT`` seconds).

    ``None`` (unset, or any value <= 0) disables the timeout -- the shipped
    default, because a legitimate full-profile attack cell can run for
    minutes.  Chaos runs and services that must bound tail latency set it.
    """
    value = _float_env("REPRO_SHARD_TIMEOUT", None)
    if value is None or value <= 0:
        return None
    return value


def shard_retries() -> int:
    """Bounded retry budget per shard or warm-up (``REPRO_SHARD_RETRIES``)."""
    return max(0, _int_env("REPRO_SHARD_RETRIES", DEFAULT_SHARD_RETRIES))


def backoff_seconds(attempt: int, rng: Optional[random.Random] = None) -> float:
    """Exponential backoff with jitter before retry number ``attempt`` (>= 1).

    ``base * 2**(attempt-1)`` capped at :data:`BACKOFF_CAP`, scaled by a
    uniform +/-25% jitter.  Jitter is timing-only randomness -- it cannot
    reach any result bit -- so a plain :mod:`random` draw is fine.
    """
    delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, attempt - 1)))
    jitter = (rng or random).uniform(0.75, 1.25)
    return delay * jitter


def lease_poll() -> Tuple[float, float]:
    """Lease-wait polling ``(start_interval, cap)`` in seconds.

    ``REPRO_STORE_LEASE_POLL`` accepts ``interval`` or ``interval:cap``
    (e.g. ``0.05:1.0``).  Waiters back off exponentially from the start
    interval to the cap, jittered, so N workers waiting out one writer don't
    thundering-herd the artifact and lease files in lockstep.
    """
    raw = os.environ.get("REPRO_STORE_LEASE_POLL", "")
    start, cap = DEFAULT_LEASE_POLL
    if raw.strip():
        parts = raw.split(":")
        try:
            start = max(0.001, float(parts[0]))
            cap = max(start, float(parts[1])) if len(parts) > 1 and parts[1] else max(start, cap)
        except ValueError:
            start, cap = DEFAULT_LEASE_POLL
    return start, max(start, cap)


def remote_timeout() -> float:
    """Per-request deadline for remote store calls (``REPRO_REMOTE_TIMEOUT``).

    Applies to every HTTP exchange with the remote artifact tier --
    connect, send and read together.  Values <= 0 fall back to the default:
    the remote tier is an optimisation, so "no deadline" is never a valid
    policy for it.
    """
    value = _float_env("REPRO_REMOTE_TIMEOUT", None)
    if value is None or value <= 0:
        return DEFAULT_REMOTE_TIMEOUT
    return value


def remote_retries() -> int:
    """Bounded retry budget per remote store call (``REPRO_REMOTE_RETRIES``).

    Retried failures are transport errors, timeouts and 5xx responses, with
    the same jittered exponential :func:`backoff_seconds` schedule the shard
    retries use.  404 is a miss, not a failure, and is never retried.
    """
    return max(0, _int_env("REPRO_REMOTE_RETRIES", DEFAULT_REMOTE_RETRIES))


def remote_breaker() -> Tuple[int, float]:
    """Circuit-breaker policy ``(threshold, cooldown)`` for the remote tier.

    ``REPRO_REMOTE_BREAKER`` accepts ``threshold`` or ``threshold:cooldown``
    (e.g. ``3:10``): after ``threshold`` *consecutive* remote failures the
    breaker opens and every remote call short-circuits to a local fallback;
    after ``cooldown`` seconds one half-open probe is allowed through --
    success closes the breaker, failure re-opens it for another cooldown.
    """
    raw = os.environ.get("REPRO_REMOTE_BREAKER", "")
    threshold, cooldown = DEFAULT_REMOTE_BREAKER
    if raw.strip():
        parts = raw.split(":")
        try:
            threshold = max(1, int(parts[0]))
            if len(parts) > 1 and parts[1]:
                cooldown = max(0.0, float(parts[1]))
        except ValueError:
            threshold, cooldown = DEFAULT_REMOTE_BREAKER
    return threshold, cooldown


def job_retries() -> int:
    """Default service-job retry budget (``REPRO_JOB_RETRIES``).

    Per-submission ``{"retries": N}`` overrides it; retries apply only to
    retryable execution failures, never to submission (validation) errors.
    """
    return max(0, _int_env("REPRO_JOB_RETRIES", DEFAULT_JOB_RETRIES))
