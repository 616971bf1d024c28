"""The asyncio lifting server: dedup, thread bridge, event streaming.

Architecture — one event loop, many worker threads, one sharded store:

* The **event loop** owns all bookkeeping.  Connections are plain
  ``asyncio.start_server`` streams speaking the NDJSON protocol
  (:mod:`repro.service.protocol`); every mutation of the in-flight
  table and every event publication happens on the loop thread (worker
  threads hop over via ``call_soon_threadsafe``), so dedup check-and-set
  needs no locks.
* **In-flight dedup**: a submission fingerprints its (source, driver,
  options) and joins the live :class:`LiftJob` for that fingerprint if
  one exists — N concurrent identical submissions perform exactly one
  lift, and late joiners replay the events already streamed before
  following live.  The table entry is removed at terminal publication,
  so *later* duplicates start a fresh job that the sharded synthesis
  store answers warmly (zero synthesis, ``cache_misses == 0``).
* The **thread bridge**: each lift runs ``translate_application`` on a
  ``ThreadPoolExecutor`` worker so the loop stays responsive; with
  ``pool_size > 1`` the worker fans kernels over the existing
  :class:`~repro.pipeline.scheduler.BatchScheduler` process pool.
* **One store**: the server builds one
  :class:`~repro.cache.shards.ShardedStore` for its lifetime, and every
  lift opens its own :class:`~repro.cache.SynthesisCache` handle on it
  (hit and miss counts, and the entries a save appends, stay per
  request).  The store decodes a shard log only when its bytes changed
  since the last read, so a warm request reads and compares the shard
  files instead of decoding them, and appends by other processes are
  still seen.  Concurrent jobs contend per shard, not per store.
* **Bookkeeping**: every served request appends one
  :mod:`repro.service.runlog` record at its terminal event.

Fault hook: ``dedup-handoff`` fires on the loop thread immediately
before a finished job publishes its terminal event — an injected fault
there is contained as an ``error`` event to every subscriber (no
subscriber hangs waiting on a handoff that died).
"""

from __future__ import annotations

import asyncio
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.application.translate import translate_application
from repro.cache.integrity import CacheIntegrityWarning
from repro.cache.shards import ShardedStore
from repro.cache.store import SynthesisCache
from repro.pipeline.stng import PipelineOptions
from repro.service.protocol import (
    DEFAULT_HOST,
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    ServiceError,
    decode_line,
    encode_line,
    options_from_request,
    request_fingerprint,
)
from repro.service.runlog import RunLog, record_for
from repro.testing import faultinject


class LiftJob:
    """One in-flight lift: its event history and its live subscribers."""

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        self.events: List[Dict[str, Any]] = []
        self.subscribers: List["asyncio.Queue[Dict[str, Any]]"] = []
        self.started = time.perf_counter()

    def publish(self, event: Dict[str, Any]) -> None:
        """Record ``event`` and fan it out (loop thread only)."""
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def subscribe(self) -> "asyncio.Queue[Dict[str, Any]]":
        """A queue replaying past events, then following live ones."""
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        self.subscribers.append(queue)
        return queue


class LiftService:
    """The lifting server (see the module docstring for the design).

    Parameters
    ----------
    store_dir:
        Service state root: the sharded synthesis store lives at
        ``<store_dir>/synthesis`` and the run log at
        ``<store_dir>/runlog.jsonl`` (both overridable).  A regular
        file at the synthesis path raises ``ValueError`` here.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    pool_size:
        Kernels-per-lift fan-out: ``> 1`` runs each lift's kernels over
        the batch scheduler's process pool.
    workers:
        Concurrent *lifts* (thread-pool width).  Distinct requests lift
        in parallel; identical ones dedup onto one worker.
    options:
        Server-side :class:`PipelineOptions` base; requests overlay the
        whitelisted synthesis fields on top.
    """

    def __init__(
        self,
        store_dir: "Path | str",
        host: str = DEFAULT_HOST,
        port: int = 0,
        pool_size: int = 1,
        workers: int = 2,
        options: Optional[PipelineOptions] = None,
        runlog_path: "Path | str | None" = None,
        synthesis_path: "Path | str | None" = None,
    ):
        self.store_dir = Path(store_dir)
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.workers = max(1, workers)
        self.base_options = options or PipelineOptions()
        self.synthesis_path = Path(
            synthesis_path if synthesis_path is not None else self.store_dir / "synthesis"
        )
        self.store = ShardedStore(self.synthesis_path)
        self.runlog = RunLog(
            runlog_path if runlog_path is not None else self.store_dir / "runlog.jsonl"
        )
        self.submissions = 0
        self.deduped = 0
        self.lifts = 0
        self.served = 0
        self.errors = 0
        self._inflight: Dict[str, LiftJob] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; resolves :attr:`port` when ephemeral."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="lift"
        )
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Submission and the thread bridge
    # ------------------------------------------------------------------
    def submit(
        self,
        source: str,
        driver: str,
        options: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
    ) -> Tuple[LiftJob, bool]:
        """Join or start the job for this request (loop thread only).

        Returns ``(job, deduped)``.  The whole check-and-set runs on
        the event loop thread, so two connections submitting the same
        fingerprint "simultaneously" still serialize here — exactly one
        creates the job, the other joins it.
        """
        fingerprint = request_fingerprint(source, driver, options)
        self.submissions += 1
        job = self._inflight.get(fingerprint)
        if job is not None:
            self.deduped += 1
            return job, True
        job = LiftJob(fingerprint)
        self._inflight[fingerprint] = job
        self.lifts += 1
        assert self._loop is not None and self._executor is not None
        self._loop.run_in_executor(
            self._executor,
            self._run_job,
            job,
            source,
            driver,
            dict(options or {}),
            name,
        )
        return job, False

    def _run_job(
        self,
        job: LiftJob,
        source: str,
        driver: str,
        options: Dict[str, Any],
        name: Optional[str],
    ) -> None:
        """Worker thread: one full translation, events hopped to the loop."""
        assert self._loop is not None
        loop = self._loop

        def publish(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(job.publish, event)

        try:
            pipeline_options = options_from_request(options, self.base_options)
            # A private cache handle per lift on the server's one store:
            # its counts and dirty entries are this request's alone.
            cache = SynthesisCache(self.store, autosave=False)
            translate_started = time.perf_counter()

            def progress(phase: str, detail: Dict[str, Any]) -> None:
                publish(
                    {
                        "event": "phase",
                        "phase": phase,
                        "detail": detail,
                        "fingerprint": job.fingerprint,
                        "elapsed": time.perf_counter() - translate_started,
                    }
                )

            bundle = translate_application(
                source,
                options=pipeline_options,
                cache=cache,
                pool_size=self.pool_size,
                driver=driver,
                name=name or driver,
                progress=progress,
            )
            result = {
                "event": "done",
                "fingerprint": job.fingerprint,
                "application": bundle.name,
                "driver": bundle.driver,
                "manifest": bundle.manifest(),
                "cache": {"hits": bundle.cache_hits, "misses": bundle.cache_misses},
                "seconds": bundle.translate_seconds,
            }
            loop.call_soon_threadsafe(self._finish_job, job, result, None)
        except BaseException as exc:  # contained: reported as an error event
            loop.call_soon_threadsafe(self._finish_job, job, None, exc)

    def _finish_job(
        self,
        job: LiftJob,
        result: Optional[Dict[str, Any]],
        error: Optional[BaseException],
    ) -> None:
        """Loop thread: retire the job and publish its terminal event.

        The in-flight entry is removed *before* publication, so a
        request arriving after the terminal event starts a fresh job
        (served warmly by the store) instead of replaying a dead one.
        """
        self._inflight.pop(job.fingerprint, None)
        if error is None:
            try:
                faultinject.fire("dedup-handoff", job.fingerprint)
            except Exception as exc:
                error = exc
        if error is not None:
            self.errors += 1
            event: Dict[str, Any] = {
                "event": "error",
                "fingerprint": job.fingerprint,
                "message": str(error) or type(error).__name__,
            }
        else:
            assert result is not None
            event = result
        job.publish(event)

    # ------------------------------------------------------------------
    # The protocol loop
    # ------------------------------------------------------------------
    async def _write(self, writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        writer.write(encode_line(message))
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_line(line)
                    op = message.get("op")
                    if op == "ping":
                        await self._write(
                            writer, {"event": "pong", "protocol": PROTOCOL_VERSION}
                        )
                    elif op == "stats":
                        await self._write(writer, self.stats())
                    elif op == "lift":
                        await self._serve_lift(message, writer)
                    else:
                        raise ServiceError(f"unknown op {op!r}")
                except ServiceError as exc:
                    await self._write(writer, {"event": "error", "message": str(exc)})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; the job (if any) continues
        except asyncio.CancelledError:
            # Only stop() cancels connection handlers; finishing
            # normally here keeps asyncio's stream bookkeeping quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_lift(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        source = message.get("source")
        driver = message.get("driver")
        if not isinstance(source, str) or not isinstance(driver, str):
            raise ServiceError("lift needs string `source` and `driver` fields")
        options = message.get("options")
        name = message.get("name")
        name = name if isinstance(name, str) else None
        submitted = time.perf_counter()
        job, deduped = self.submit(source, driver, options, name)
        queue = job.subscribe()
        await self._write(
            writer,
            {
                "event": "accepted",
                "fingerprint": job.fingerprint,
                "deduped": deduped,
                "protocol": PROTOCOL_VERSION,
            },
        )
        while True:
            event = await queue.get()
            await self._write(writer, event)
            if event.get("event") in TERMINAL_EVENTS:
                break
        self.served += 1
        status = str(event.get("event"))
        try:
            self.runlog.append(
                record_for(
                    job.fingerprint,
                    application=event.get("application") or name or driver,
                    driver=driver,
                    deduped=deduped,
                    status=status,
                    waited_seconds=time.perf_counter() - submitted,
                    result=event if status == "done" else None,
                    message=event.get("message") if status == "error" else None,
                )
            )
        except Exception as exc:
            # Bookkeeping must never take down a served connection: the
            # client has its result; the lost record is warned about.
            warnings.warn(
                f"run log append failed for {job.fingerprint[:16]}: {exc}",
                CacheIntegrityWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        store_stats: Dict[str, Any] = {}
        if self.synthesis_path.exists():
            store_stats = self.store.stats()
        return {
            "event": "stats",
            "protocol": PROTOCOL_VERSION,
            "submissions": self.submissions,
            "deduped": self.deduped,
            "lifts": self.lifts,
            "served": self.served,
            "errors": self.errors,
            "inflight": len(self._inflight),
            "runlog_appended": self.runlog.appended,
            "store": store_stats,
        }
