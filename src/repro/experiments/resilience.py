"""Resilient sweep execution: timeouts, retries, pool recovery, journal.

The sweep engine (:mod:`repro.experiments.engine`) hands its cache-miss
units to :func:`run_resilient`, which guarantees that one bad unit — a
worker that segfaults, a run that hangs, a transient error — cannot take
the campaign down:

* every unit gets up to :attr:`RetryPolicy.max_attempts` attempts with
  deterministic exponential backoff (:func:`backoff_delay` — jitter is
  hashed from the unit key, never from the clock, so reruns behave
  identically);
* a unit that exceeds :attr:`RetryPolicy.unit_timeout` wall-clock seconds
  is declared hung: the worker pool is killed and rebuilt, the hung unit
  is charged an attempt, and every other in-flight unit is re-enqueued;
* a ``BrokenProcessPool`` (worker crash, OOM-kill) likewise rebuilds the
  pool and re-enqueues the in-flight units;
* after :attr:`RetryPolicy.max_pool_breaks` *consecutive* rebuilds the
  engine stops trusting process isolation and degrades to in-process
  serial execution (with a one-time :meth:`OBS.warn`), where retries
  still apply but timeouts cannot preempt;
* units that exhaust their attempts become :class:`UnitFailure` records
  in the :class:`ExecutionReport` — the caller decides whether to raise
  (:class:`SweepFailure`) or carry on with the survivors.

:class:`CampaignJournal` is the campaign-level complement: a small atomic
JSON checkpoint (``<save>/.campaign.json``) recording which figures
completed at which fidelity, so an interrupted ``python -m
repro.experiments`` invocation resumes instead of recomputing.

For tests, :func:`chaos_probe` turns the worker entry point into a fault
site: when ``REPRO_CHAOS_DIR`` names a directory, marker files ``crash``
/ ``hang`` / ``error`` (content = how many units to affect) make the
next unit(s) die with ``os._exit``, sleep past any timeout, or raise
:class:`ChaosError`.  Claims are taken with ``O_EXCL`` sentinel files,
so the budget holds across worker processes and retries.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.registry import OBS
from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.util import settings
from repro.util.settings import RetryPolicy

__all__ = [
    "CampaignJournal",
    "ChaosError",
    "ExecutionReport",
    "RetryPolicy",
    "SweepFailure",
    "UnitFailure",
    "backoff_delay",
    "chaos_probe",
    "current_batch_size",
    "run_resilient",
]


# ---- policy -----------------------------------------------------------------


def backoff_delay(key: str, attempt: int, policy: RetryPolicy) -> float:
    """Deterministic exponential backoff with hashed jitter.

    ``attempt`` is the attempt that just failed (1-based).  Jitter in
    ``[0.5, 1.5)`` is derived from SHA-256 of ``key:attempt`` — never
    from the clock or a shared RNG — so a rerun of the same campaign
    waits the same amount and stays reproducible.
    """
    base = min(policy.backoff_cap,
               policy.backoff_base * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2 ** 32
    return min(policy.backoff_cap, base * jitter)


# ---- outcomes ---------------------------------------------------------------


@dataclass(frozen=True)
class UnitFailure:
    """One unit that exhausted its attempts (or its time)."""

    index: int
    key: str
    label: str
    attempts: int
    error: str
    timed_out: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "unit": self.label,
            "attempts": self.attempts,
            "error": self.error,
            "timed_out": self.timed_out,
        }


@dataclass
class ExecutionReport:
    """What :func:`run_resilient` did to a batch of units.

    ``results`` parallels the input specs; a ``None`` slot marks a
    terminal failure described in ``failures``.
    """

    results: list[RunMetrics | None] = field(default_factory=list)
    failures: list[UnitFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    degraded_serial: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "units": len(self.results),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_breaks": self.pool_breaks,
            "degraded_serial": self.degraded_serial,
            "failed_units": [f.to_dict() for f in self.failures],
        }


class SweepFailure(RuntimeError):
    """Raised by the engine when units fail terminally.

    Carries the :class:`UnitFailure` records so the CLI can put them in
    the campaign manifest instead of a stack trace.
    """

    def __init__(self, failures: Sequence[UnitFailure],
                 phase: str | None = None):
        self.failures = list(failures)
        self.phase = phase
        units = ", ".join(f.label for f in self.failures[:4])
        more = ("" if len(self.failures) <= 4
                else f" (+{len(self.failures) - 4} more)")
        super().__init__(
            f"{len(self.failures)} sweep unit(s) failed terminally"
            f"{f' in {phase}' if phase else ''}: {units}{more}")


# ---- chaos injection (tests) ------------------------------------------------


class ChaosError(RuntimeError):
    """Deliberate failure injected by :func:`chaos_probe`."""


def chaos_probe() -> None:
    """Fault site for harness tests; no-op unless ``REPRO_CHAOS_DIR`` set.

    The directory may contain marker files named ``crash``, ``hang`` or
    ``error``.  A marker's content is its *budget* — how many units it
    affects (blank = 1); ``hang`` takes an optional second token, the
    sleep in seconds (default 3600).  Each affected unit claims an
    ``O_EXCL`` sentinel (``<kind>.claim.<i>``) first, so budgets hold
    across worker processes, retries, and pool rebuilds.
    """
    chaos_dir = settings.current().chaos_dir
    if chaos_dir is None:
        return
    root = Path(chaos_dir)
    for kind in ("crash", "hang", "error"):
        marker = root / kind
        try:
            tokens = marker.read_text().split()
        except (FileNotFoundError, OSError):
            continue
        budget = 1
        if tokens:
            try:
                budget = int(tokens[0])
            except ValueError:
                budget = 1
        claimed = False
        for i in range(budget):
            try:
                fd = os.open(root / f"{kind}.claim.{i}",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                break
            os.close(fd)
            claimed = True
            break
        if not claimed:
            continue
        if kind == "crash":
            # A segfault stand-in: no exception, no cleanup, no exit
            # handlers — the pool sees a silently-dead worker.
            os._exit(1)
        if kind == "hang":
            sleep_s = 3600.0
            if len(tokens) > 1:
                try:
                    sleep_s = float(tokens[1])
                except ValueError:
                    pass
            time.sleep(sleep_s)
            return
        raise ChaosError(f"injected failure from {marker}")


# ---- resilient execution ----------------------------------------------------


#: Size of the batch the *current worker* is executing (1 outside a
#: batch).  Set by :func:`_run_batch` around its units so the worker's
#: unit capture can observe its dispatch context.
_batch_size = 1


def current_batch_size() -> int:
    """How many units share this worker's current future (>= 1)."""
    return _batch_size


def _run_batch(runner: Callable[[RunSpec], RunMetrics],
               specs: list[RunSpec]) -> list[tuple[str, object]]:
    """Worker entry for one multi-unit batch.

    Each unit is isolated with its own ``except Exception`` so one bad
    unit cannot poison its siblings' finished results — the parent
    retries only the units that actually failed, individually.  (A
    crash/``os._exit`` still kills the whole future; the parent charges
    every rider an attempt, exactly like any pool break.)
    """
    global _batch_size
    _batch_size = len(specs)
    try:
        out: list[tuple[str, object]] = []
        for spec in specs:
            try:
                out.append(("ok", runner(spec)))
            except Exception as exc:  # noqa: BLE001 - anything may come back
                out.append(("err", f"{type(exc).__name__}: {exc}"))
        return out
    finally:
        _batch_size = 1


def _default_group_key(spec) -> object:
    """Workload-major batching: units of one workload share filtered
    streams and their episode tables, so co-locating them on one worker
    turns those loads into resident-cache hits."""
    return getattr(spec, "workload", None)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool with a wedged or dead worker."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - racing exit
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-state dependent
        pass


def _init_worker(campaign: settings.Settings) -> None:
    """Pool initializer: adopt the parent's settings in a worker.

    With telemetry on, the worker's warnings print nowhere: each ships
    back in its unit's telemetry and the parent's fold prints every
    distinct one exactly once.
    """
    settings.install(campaign)
    OBS.quiet = campaign.telemetry


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(settings.current(),))


def run_resilient(specs: Sequence[RunSpec], *, workers: int,
                  policy: RetryPolicy | None = None,
                  runner: Callable[[RunSpec], RunMetrics] | None = None,
                  on_unit: Callable[[int, RunMetrics | None], None]
                  | None = None,
                  batch_units: int = 1,
                  group_key: Callable[[RunSpec], object] | None = None,
                  on_batch: Callable[[int], None] | None = None,
                  ) -> ExecutionReport:
    """Execute every spec, surviving crashes, hangs, and flaky failures.

    Worker processes start with the caller's :func:`repro.util.settings
    .current` installed (a pool-initializer argument, so it holds under
    any multiprocessing start method).

    Args:
        specs: Units to run (typically the engine's cache misses).
        workers: Worker processes; ``<= 1`` runs serially in-process.
        policy: Retry/timeout knobs (default: the settings' ``retry``).
        runner: Unit entry point; must be picklable for ``workers > 1``.
            Defaults to the engine's worker entry.
        on_unit: Parent-process callback fired once per unit on its
            *terminal* outcome — ``(index, metrics)`` on success,
            ``(index, None)`` after the last attempt fails.  Retried
            attempts do not fire.  The engine uses this to fold
            telemetry and feed the live dashboard as units land.
        batch_units: Group up to this many first-attempt units sharing
            one ``group_key`` into a single future, amortizing pickle/
            IPC and maximizing worker-resident cache hits.  ``1`` (the
            default) keeps the historical unit-per-future dispatch.
            Retried units always travel alone, so a poisonous unit
            stops taking siblings down with it.
        group_key: Batching affinity (default: the spec's ``workload``
            — units of one workload share stream/decode caches).
        on_batch: Parent-process callback fired with the batch size at
            each multi-unit submit (dispatch accounting).

    Returns:
        An :class:`ExecutionReport` whose ``results`` parallel ``specs``
        (``None`` = terminal failure, detailed in ``failures``).
    """
    if policy is None:
        policy = settings.current().retry
    if runner is None:
        from repro.experiments.engine import _execute_spec
        runner = _execute_spec
    if group_key is None:
        group_key = _default_group_key

    report = ExecutionReport(results=[None] * len(specs))
    pending: deque[tuple[int, int]] = deque(
        (i, 1) for i in range(len(specs)))

    def _done(index: int, metrics: RunMetrics) -> None:
        report.results[index] = metrics
        if on_unit is not None:
            on_unit(index, metrics)

    def _charge(index: int, attempt: int, error: str, *,
                backoff: bool = True, timed_out: bool = False) -> None:
        """One failed attempt: re-enqueue the unit, or fail it for good.

        ``backoff`` sleeps before the retry; hang kills and pool breaks
        skip it, since rebuilding the pool already costs that long.
        """
        if attempt < policy.max_attempts:
            report.retries += 1
            OBS.add("resilience.retry")
            if backoff:
                time.sleep(backoff_delay(specs[index].key(), attempt,
                                         policy))
            pending.append((index, attempt + 1))
            return
        report.failures.append(UnitFailure(
            index=index, key=specs[index].key(),
            label=specs[index].describe(), attempts=attempt,
            error=error, timed_out=timed_out))
        OBS.add("resilience.unit_failed")
        if on_unit is not None:
            on_unit(index, None)

    def _drain_serial() -> ExecutionReport:
        """Run ``pending`` in-process; retries apply, timeouts cannot."""
        while pending:
            index, attempt = pending.popleft()
            spec = specs[index]
            try:
                with OBS.span(f"sweep.unit.{spec.workload}.{spec.policy}",
                              system=spec.config, attempt=attempt):
                    metrics = runner(spec)
            except Exception as exc:  # noqa: BLE001 - anything may come back
                _charge(index, attempt, f"{type(exc).__name__}: {exc}")
            else:
                _done(index, metrics)
        return report

    if workers <= 1:
        return _drain_serial()

    consecutive_breaks = 0
    pool = _new_pool(workers)
    # future -> (group, deadline); group is [(index, attempt), ...] —
    # a singleton for classic dispatch, longer when batched.  A batch's
    # deadline scales with its size: the units run sequentially in one
    # worker, so each still gets ``unit_timeout`` on average.
    in_flight: dict = {}
    try:
        while pending or in_flight:
            # Keep the pool saturated but bounded: two waves per worker
            # so a crash never takes down a huge queue of futures.
            while pending and len(in_flight) < workers * 2:
                index, attempt = pending.popleft()
                group = [(index, attempt)]
                if batch_units > 1 and attempt == 1:
                    # Greedily extend with consecutive first-attempt
                    # units of the same affinity (specs arrive
                    # workload-major from the engine, so "consecutive"
                    # is enough — no lookahead reordering).
                    affinity = group_key(specs[index])
                    while (pending and len(group) < batch_units
                           and pending[0][1] == 1
                           and group_key(specs[pending[0][0]]) == affinity):
                        group.append(pending.popleft())
                if len(group) == 1:
                    fut = pool.submit(runner, specs[index])
                else:
                    fut = pool.submit(
                        _run_batch, runner, [specs[i] for i, _ in group])
                    OBS.add("dispatch.batches")
                    if on_batch is not None:
                        on_batch(len(group))
                deadline = (None if policy.unit_timeout is None
                            else time.monotonic()
                            + policy.unit_timeout * len(group))
                in_flight[fut] = (group, deadline)
            done, _ = wait(list(in_flight), timeout=0.05,
                           return_when=FIRST_COMPLETED)

            broke = False
            interrupted: list[tuple[int, int]] = []
            for fut in done:
                group, _ = in_flight.pop(fut)
                exc = fut.exception()
                if exc is None:
                    consecutive_breaks = 0
                    outcomes = (fut.result() if len(group) > 1
                                else [("ok", fut.result())])
                    for (index, attempt), (status, payload) in zip(
                            group, outcomes):
                        if status == "ok":
                            OBS.add("sweep.runs_done")
                            _done(index, payload)
                        else:
                            # Failed mid-batch: re-enqueued individually
                            # (attempt > 1 units never re-batch).
                            _charge(index, attempt, str(payload))
                elif isinstance(exc, BrokenProcessPool):
                    # Every in-flight future gets this when any worker
                    # dies; the culprit is unknowable, so all of them
                    # are charged an attempt below.
                    interrupted.extend(group)
                    broke = True
                else:
                    # The future itself failed (a singleton unit error,
                    # or a batch that died outside per-unit isolation,
                    # e.g. an unpicklable result): charge every rider.
                    for index, attempt in group:
                        _charge(index, attempt,
                                f"{type(exc).__name__}: {exc}")

            # Hung units: anything still running past its deadline.  A
            # future still *queued* past its deadline (a sibling hogged
            # the worker) is cancelled and re-queued uncharged — only
            # actually-running units count as hangs.
            now = time.monotonic()
            hung = []
            for fut, (group, dl) in list(in_flight.items()):
                if dl is None or now <= dl:
                    continue
                if fut.cancel():
                    in_flight.pop(fut)
                    pending.extendleft(reversed(group))
                else:
                    hung.append(fut)
            if hung:
                for fut in hung:
                    group, _ = in_flight.pop(fut)
                    report.timeouts += len(group)
                    OBS.add("resilience.timeout", len(group))
                    for index, attempt in group:
                        _charge(index, attempt,
                                f"unit exceeded {policy.unit_timeout:g}s "
                                f"wall-clock timeout",
                                backoff=False, timed_out=True)
                broke = True

            if broke:
                # The pool has a dead or wedged worker; charge every unit
                # that was riding it an attempt and start a fresh pool.
                report.pool_breaks += 1
                consecutive_breaks += 1
                OBS.add("resilience.pool_break")
                for group, _ in in_flight.values():
                    interrupted.extend(group)
                in_flight.clear()
                for index, attempt in interrupted:
                    _charge(index, attempt,
                            "worker pool broke repeatedly under this unit",
                            backoff=False)
                _terminate_pool(pool)
                if consecutive_breaks >= policy.max_pool_breaks:
                    OBS.warn(
                        f"sweep: worker pool broke {consecutive_breaks} "
                        f"times in a row; degrading to in-process serial "
                        f"execution (timeouts no longer enforced)")
                    OBS.add("resilience.degraded_serial")
                    report.degraded_serial = True
                    pool = None
                    return _drain_serial()
                pool = _new_pool(workers)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return report


# ---- campaign checkpoint journal --------------------------------------------


JOURNAL_VERSION = 1
JOURNAL_NAME = ".campaign.json"


class CampaignJournal:
    """Atomic per-figure checkpoint of one campaign invocation.

    Lives next to the saved artefacts (``<save>/.campaign.json``) and
    maps figure id → status (``done`` / ``failed``) at one fidelity, so
    a re-run of the same command skips completed figures by loading
    their artefacts.  A journal written at a different fidelity is
    discarded wholesale — mixed-fidelity resumes would silently blend
    trace lengths.  Corrupt journals warn and reset; they are an
    optimization, never a source of truth.
    """

    def __init__(self, path: str | Path, fidelity: str):
        self.path = Path(path)
        self.fidelity = fidelity
        self._doc = self._load()

    def _load(self) -> dict:
        try:
            doc = json.loads(self.path.read_text())
        except (FileNotFoundError, OSError):
            return self._fresh()
        except (ValueError, TypeError):
            OBS.warn(f"campaign journal {self.path} is corrupt; "
                     f"starting a fresh campaign")
            return self._fresh()
        if (not isinstance(doc, dict)
                or doc.get("version") != JOURNAL_VERSION
                or doc.get("fidelity") != self.fidelity
                or not isinstance(doc.get("figures"), dict)):
            return self._fresh()
        return doc

    def _fresh(self) -> dict:
        return {"version": JOURNAL_VERSION, "fidelity": self.fidelity,
                "figures": {}}

    # ---- queries -----------------------------------------------------------

    def status(self, figure_id: str) -> dict | None:
        entry = self._doc["figures"].get(figure_id)
        return dict(entry) if entry else None

    def is_done(self, figure_id: str) -> bool:
        entry = self._doc["figures"].get(figure_id)
        return bool(entry) and entry.get("status") == "done"

    def figures(self) -> dict[str, dict]:
        return {k: dict(v) for k, v in self._doc["figures"].items()}

    # ---- updates -----------------------------------------------------------

    def mark(self, figure_id: str, status: str, **info) -> None:
        """Record a figure outcome and persist atomically."""
        self._doc["figures"][figure_id] = {"status": status, **info}
        self._write()

    def clear(self) -> None:
        """Forget all progress (the ``--no-resume`` semantics)."""
        self._doc = self._fresh()
        self._write()

    def _write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._doc, indent=1))
        os.replace(tmp, self.path)
