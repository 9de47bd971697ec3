"""Generic micro-batching: coalesce concurrent requests into one dispatch.

The pattern the auth server's claim batching proved out, lifted into the
runtime layer: requests that arrive while a batch is forming join it; the
batch is dispatched when it reaches ``batch_size`` or when the oldest
request has lingered ``linger_seconds`` — whichever comes first.  Under
load batches fill instantly and the linger never applies; a lone request
pays at most ``linger_seconds`` of extra latency in exchange for the
fleet win: B requests per dispatch instead of one.

:class:`MicroBatcher` is payload-agnostic — the dispatch callable decides
what a batch *means*.  The auth server
(:class:`~repro.service.server.PpufAuthServer`) holds one whose dispatch
runs each claim batch on its verification pool and whose ``on_dispatch``
hook records batch occupancy in its ``ServerStats``.

Failure semantics: a dispatch that raises fails every request in its
batch — :class:`~repro.errors.ServiceTimeout` and
:class:`~repro.errors.WorkerCrash` pass through typed (callers contain
them individually), anything else surfaces as
:class:`~repro.errors.ServiceError`.  One batch's failure never touches
the next batch.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Optional

from repro.errors import ServiceError, ServiceTimeout, WorkerCrash


class MicroBatcher:
    """Coalesces concurrent :meth:`submit` calls into list dispatches.

    Parameters
    ----------
    dispatch:
        ``async (items: list) -> list`` returning one result per item,
        in order.  A wrong-length return fails the whole batch (silent
        truncation would hand callers someone else's result).
    batch_size:
        Dispatch as soon as this many items are queued (must be >= 1).
    linger_seconds:
        How long [s] a forming batch waits for company before
        dispatching anyway (must be >= 0).
    on_dispatch:
        Optional ``(batch_length) -> None`` hook, called exactly once
        per dispatched batch — the telemetry seam.
    """

    def __init__(
        self,
        dispatch: Callable[[list], Awaitable[list]],
        *,
        batch_size: int = 16,
        linger_seconds: float = 0.002,
        on_dispatch: Optional[Callable[[int], None]] = None,
    ):
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if linger_seconds < 0:
            raise ServiceError(
                f"linger_seconds must be >= 0, got {linger_seconds}"
            )
        self.dispatch = dispatch
        self.batch_size = int(batch_size)
        self.linger_seconds = float(linger_seconds)
        self.on_dispatch = on_dispatch
        self._pending: list = []
        self._flusher: Optional[asyncio.Task] = None
        self._tasks: set = set()

    @property
    def busy(self) -> bool:
        """True while any item is queued or any batch is in flight."""
        return bool(self._pending or self._tasks)

    @property
    def queued(self) -> int:
        """Items waiting in the forming batch (not yet dispatched)."""
        return len(self._pending)

    def flush(self) -> None:
        """Dispatch whatever is queued now instead of waiting out the
        linger — used by graceful drain so a stopping consumer still
        settles requests that were coalescing when stop was called."""
        self._dispatch()

    async def submit(self, item):
        """Queue one item; resolves to its result once its batch returns."""
        future = asyncio.get_running_loop().create_future()
        self._pending.append((item, future))
        if len(self._pending) >= self.batch_size:
            self._dispatch()
        elif self._flusher is None:
            self._flusher = asyncio.create_task(self._linger())
        return await future

    async def _linger(self) -> None:
        try:
            await asyncio.sleep(self.linger_seconds)
        except asyncio.CancelledError:
            return
        self._dispatch()

    def _dispatch(self) -> None:
        batch, self._pending = self._pending, []
        flusher, self._flusher = self._flusher, None
        if flusher is not None and flusher is not asyncio.current_task():
            flusher.cancel()
        if batch:
            task = asyncio.create_task(self._run(batch))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run(self, batch: list) -> None:
        items = [item for item, _ in batch]
        if self.on_dispatch is not None:
            self.on_dispatch(len(items))
        try:
            results = await self.dispatch(items)
            if len(results) != len(items):
                raise ServiceError(
                    f"batch dispatch returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except ServiceTimeout as error:
            self._fail(batch, lambda: ServiceTimeout(str(error)))
            return
        except WorkerCrash as error:
            # typed pass-through: callers contain a crashed worker per
            # request (crash-to-verdict), which a generic error can't.
            self._fail(batch, lambda: WorkerCrash(str(error)))
            return
        except Exception as error:  # noqa: BLE001 — fail the batch, not the loop
            self._fail(batch, lambda: ServiceError(str(error)))
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    @staticmethod
    def _fail(batch: list, make_error: Callable[[], Exception]) -> None:
        for _, future in batch:
            if not future.done():
                future.set_exception(make_error())
