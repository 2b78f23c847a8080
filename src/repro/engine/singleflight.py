"""Digest-keyed single-flight execution for concurrent queries.

The serving layer answers many concurrent questions that reduce to the
same computation: two users asking to characterize the same matrix on
the same grid share one recipe digest, so only one of them should pay
for the sweep.  :class:`SingleFlight` is that sharing primitive — an
asyncio-native map from key to in-flight computation:

* the first caller of a key becomes the **leader** and starts the
  factory as an independent task;
* every caller that arrives while the key is in flight **coalesces**
  onto the leader's future and receives the *same* result object;
* the computation runs in its own task, so cancelling any waiter
  (including the leader's request) never cancels the shared work —
  late coalescers still get their answer;
* completion (or failure) clears the key: single-flight deduplicates
  *concurrent* work only, caching completed results is the caller's
  job (the server layers an LRU on top).

Everything is event-loop-local and lock-free in the asyncio sense —
state is only touched between awaits on one loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Hashable, TypeVar

__all__ = ["SingleFlight", "SingleFlightStats"]

T = TypeVar("T")


@dataclass
class SingleFlightStats:
    """Counters of how much work coalescing saved."""

    #: Calls that started a new computation.
    leaders: int = 0
    #: Calls that joined an already in-flight computation.
    coalesced: int = 0
    #: Computations that completed with an exception.
    failures: int = 0

    @property
    def calls(self) -> int:
        return self.leaders + self.coalesced

    @property
    def coalesce_rate(self) -> float:
        return self.coalesced / self.calls if self.calls else 0.0


class SingleFlight:
    """Shares one in-flight computation among concurrent same-key calls."""

    def __init__(self) -> None:
        self._inflight: dict[Hashable, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self.stats = SingleFlightStats()

    def __len__(self) -> int:
        return len(self._inflight)

    def is_inflight(self, key: Hashable) -> bool:
        return key in self._inflight

    def run(
        self, key: Hashable, factory: Callable[[], Awaitable[T]]
    ) -> "asyncio.Future[T]":
        """A future of ``factory()``'s result, shared with concurrent
        callers: if ``key`` is in flight, of that computation instead.

        The caller is registered synchronously, so one that checked
        :meth:`is_inflight` in the same event-loop step knows whether
        it leads.  The factory runs as its own task; cancelling the
        returned (shielded) future abandons this wait but leaves the
        shared computation running.  Exceptions from the factory
        propagate to every waiter.
        """
        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced += 1
            return asyncio.shield(future)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # if every waiter is cancelled nobody retrieves the result;
        # mark it retrieved so failed orphan flights don't warn
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future
        self.stats.leaders += 1
        task = loop.create_task(self._compute(key, factory, future))
        # hold a strong reference so the loop cannot drop the task
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return asyncio.shield(future)

    async def _compute(
        self,
        key: Hashable,
        factory: Callable[[], Awaitable[T]],
        future: asyncio.Future,
    ) -> None:
        try:
            result = await factory()
        except BaseException as error:  # noqa: BLE001 — forwarded
            self.stats.failures += 1
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_exception(error)
        else:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_result(result)
