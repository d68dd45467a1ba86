"""Campaign settings: every ``REPRO_*`` knob, parsed in one place.

A campaign's configuration is one frozen :class:`Settings` value.  The
environment format lives here and nowhere else in the package:
:meth:`Settings.from_env` is the only reader of ``REPRO_*`` variables,
and nothing writes them.  The CLIs turn their flags into an
:func:`update`; the sweep engine hands :func:`current` to its worker
processes as a pool-initializer argument, so a worker sees exactly the
parent's settings whatever the process start method.

Lookup: :func:`current` returns the installed value; with nothing
installed it parses ``os.environ`` on every call, so a variable set
(or monkeypatched) at any time takes effect on the next read.
:func:`update` installs a modified copy of :func:`current`, and
:func:`reset` uninstalls.

:data:`ENV` maps each variable to its field; ``docs/architecture.md``
has the full table with types, defaults and overriding CLI flags.
``refresh``, ``telemetry`` and ``profile`` have no variable: only the
CLI flags (``--refresh``, ``--no-telemetry``, ``--profile``) set them.
Malformed numbers warn once and keep the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.obs.registry import OBS

__all__ = ["ENV", "RetryPolicy", "Settings", "current", "install", "reset",
           "update"]

#: Every environment variable the package reads -> its Settings field.
ENV = {
    "REPRO_CACHE_DIR": "cache_dir",
    "REPRO_STREAM_STORE_DIR": "stream_store_dir",
    "REPRO_TRACE_STORE_DIR": "trace_store_dir",
    "REPRO_WORKERS": "workers",
    "REPRO_OVERSUBSCRIBE": "oversubscribe",
    "REPRO_UNIT_TIMEOUT": "retry",
    "REPRO_MAX_ATTEMPTS": "retry",
    "REPRO_CHAOS_DIR": "chaos_dir",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs governing how hard the engine fights for each unit.

    Attributes:
        unit_timeout: Wall-clock seconds one unit may run in a worker
            before being declared hung (``None`` disables — the default,
            since legitimate runtimes vary by orders of magnitude across
            fidelities).  Only enforceable with worker processes; the
            serial path cannot preempt a hung simulation.
        max_attempts: Total tries per unit (first run + retries).
        backoff_base: First retry delay, seconds; doubles per attempt.
        backoff_cap: Upper bound on any single delay, seconds.
        max_pool_breaks: Consecutive pool rebuilds (crashes or hang
            kills) tolerated before degrading to serial execution.
    """

    unit_timeout: float | None = None
    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    max_pool_breaks: int = 3

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(f"unit_timeout={self.unit_timeout} must be "
                             f"positive (or None to disable)")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts={self.max_attempts} must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.max_pool_breaks < 1:
            raise ValueError(
                f"max_pool_breaks={self.max_pool_breaks} must be >= 1")


@dataclass(frozen=True)
class Settings:
    """One campaign's configuration: a field per knob or CLI-only flag.

    ``stream_store_dir`` and ``trace_store_dir`` are ``None`` when unset
    (the store follows ``cache_dir``); the empty string means *no
    persistent store*.
    """

    cache_dir: str | None = None
    stream_store_dir: str | None = None
    trace_store_dir: str | None = None
    workers: int = 1
    oversubscribe: bool = False
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chaos_dir: str | None = None
    refresh: bool = False
    telemetry: bool = False
    profile: bool = False

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "Settings":
        """Parse ``env`` (default ``os.environ``) into a value."""
        env = os.environ if env is None else env
        return cls(
            cache_dir=env.get("REPRO_CACHE_DIR") or None,
            stream_store_dir=env.get("REPRO_STREAM_STORE_DIR"),
            trace_store_dir=env.get("REPRO_TRACE_STORE_DIR"),
            workers=_positive_int("REPRO_WORKERS",
                                  env.get("REPRO_WORKERS", "1"), 1,
                                  "defaulting to 1 worker"),
            oversubscribe=env.get("REPRO_OVERSUBSCRIBE") == "1",
            retry=_retry_policy(env),
            chaos_dir=env.get("REPRO_CHAOS_DIR") or None,
        )


def _positive_int(name: str, raw: str, default: int, fallback: str) -> int:
    try:
        return max(1, int(raw))
    except ValueError:
        OBS.warn(f"{name}={raw!r} is not an integer; {fallback}")
        return default


def _retry_policy(env: Mapping[str, str]) -> RetryPolicy:
    kwargs: dict = {}
    raw = env.get("REPRO_UNIT_TIMEOUT")
    if raw:
        try:
            kwargs["unit_timeout"] = float(raw)
        except ValueError:
            OBS.warn(f"REPRO_UNIT_TIMEOUT={raw!r} is not a number; "
                     f"timeouts stay disabled")
    raw = env.get("REPRO_MAX_ATTEMPTS")
    if raw:
        kwargs["max_attempts"] = _positive_int(
            "REPRO_MAX_ATTEMPTS", raw, RetryPolicy.max_attempts,
            "keeping the default")
    return RetryPolicy(**kwargs)


_installed: Settings | None = None


def current() -> Settings:
    """The installed settings, else a fresh parse of ``os.environ``."""
    return _installed if _installed is not None else Settings.from_env()


def install(settings: Settings) -> None:
    """Make ``settings`` what :func:`current` returns in this process."""
    global _installed
    _installed = settings


def update(**fields) -> Settings:
    """Install a copy of :func:`current` with ``fields`` replaced."""
    install(replace(current(), **fields))
    return _installed


def reset() -> None:
    """Uninstall; :func:`current` reads the environment again."""
    global _installed
    _installed = None
