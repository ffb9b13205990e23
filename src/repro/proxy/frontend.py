"""The Gage front end on real sockets.

Runs the *identical* scheduling/accounting code as the simulator —
:class:`~repro.core.queues.SubscriberQueues`,
:class:`~repro.core.scheduler.RequestScheduler`,
:class:`~repro.core.node_scheduler.NodeScheduler`,
:class:`~repro.core.accounting.RDNAccounting` — driven by asyncio tasks
instead of simulated processes:

- the **scheduler task** wakes every scheduling cycle (10 ms) and runs
  one WRR credit cycle; dispatched connections become asyncio tasks that
  connect to the chosen back end and splice the two sockets;
- the **accounting task** wakes every accounting cycle, turns the usage
  collected from ``X-Gage-Usage`` response headers into
  :class:`~repro.core.feedback.AccountingMessage` objects (one per back
  end), and applies them exactly as the simulated RDN would.

The data plane is built for throughput: client connections are HTTP/1.1
keep-alive (one connection carries many requests through classification
and the WRR gate), back-end sockets are pooled and reused
(:class:`~repro.proxy.backend_pool.BackendPool`), message heads and
bodies go out in one vectored write, and bulk bodies are relayed
transport-to-transport under flow control
(:func:`~repro.proxy.splice.splice_exactly`).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.accounting import RDNAccounting
from repro.core.classifier import RequestClassifier
from repro.core.config import HEDGE_OFF, HEDGE_P95, GageConfig
from repro.core.feedback import AccountingMessage, RPNUsageReport
from repro.core.metrics import (
    BACKEND_EJECTED,
    BACKEND_READMITTED,
    REQUEST_SHED,
    FailureLog,
)
from repro.core.node_scheduler import NodeScheduler
from repro.core.queues import SubscriberQueues
from repro.core.scheduler import RequestScheduler
from repro.core.subscriber import Subscriber
from repro.proxy.backend_pool import BackendPool
from repro.proxy.client_session import ClientSessionMixin, _PendingConnection
from repro.proxy.http import (
    HTTPError,
    HTTPResponseHead,
    read_response_head,
    render_request_head,
    render_response_head,
    wants_keep_alive,
)
from repro.proxy.splice import splice_exactly, tune_transport
from repro.resources import ResourceVector
from repro.telemetry.registry import get_registry


@dataclass
class ProxyStats:
    """Counters across the proxy's lifetime."""

    accepted: int = 0
    rejected_unknown_host: int = 0
    dropped_queue_full: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    bytes_relayed: int = 0
    #: Backend reads that exceeded the response timeout (504s sent).
    timed_out: int = 0
    #: Dispatches re-attempted on an alternate backend after a failure.
    retried: int = 0
    #: Requests refused with 503 because no healthy backend existed.
    shed_no_backend: int = 0
    #: Requests that arrived on an already-open client connection.
    keepalive_requests: int = 0
    #: Hedge clones fired after the hedge delay expired unanswered.
    hedges_fired: int = 0
    #: Hedged requests where a clone's response head arrived first.
    hedges_won: int = 0
    #: Hedge losers cancelled (drained/closed) after resolution.
    hedges_cancelled: int = 0
    #: Retries skipped because the retry-budget token bucket was empty.
    retry_budget_exhausted: int = 0
    #: Requests 504ed because their deadline passed before service began.
    deadline_expired: int = 0


#: Default per-backend capacity: one CPU-second and disk-second per
#: second, 12.5 MB/s of link — mirrors the simulator's node capacity.
DEFAULT_BACKEND_CAPACITY = ResourceVector(1.0, 1.0, 12_500_000.0)


class GageProxy(ClientSessionMixin):
    """The front-end request distribution proxy.

    Client admission, keep-alive, and shedding live in
    :class:`~repro.proxy.client_session.ClientSessionMixin`; this class
    owns the control plane (scheduler/accounting loops), the dispatch
    data plane, and backend health.
    """

    def __init__(
        self,
        subscribers: List[Subscriber],
        backends: Dict[str, Tuple[str, int]],
        config: Optional[GageConfig] = None,
        host: str = "127.0.0.1",
        backend_capacity: ResourceVector = DEFAULT_BACKEND_CAPACITY,
        worker_id: int = 0,
    ) -> None:
        if not backends:
            raise ValueError("need at least one backend")
        self.config = config or GageConfig()
        self.host = host
        #: Which SO_REUSEPORT worker this proxy instance is (0 for a
        #: standalone single-process proxy); labels the accept counter
        #: so the supervisor can measure kernel accept balance.
        self.worker_id = worker_id
        self.port: Optional[int] = None
        self.backends = dict(backends)
        self.stats = ProxyStats()
        self.classifier = RequestClassifier(host_extractor=lambda head: head.host)
        self.queues = SubscriberQueues()
        self.accounting = RDNAccounting(self.queues.table)
        self.accounting.keep_usage_log = False
        self.node_scheduler = NodeScheduler(
            policy=self.config.node_policy, window_s=self.config.dispatch_window_s
        )
        self.scheduler = RequestScheduler(
            self.config,
            self.queues,
            self.accounting,
            self.node_scheduler,
            dispatch_fn=self._dispatch,
        )
        for subscriber in subscribers:
            self.queues.register(subscriber)
            self.accounting.register(subscriber)
            self.classifier.register_host(subscriber.name, subscriber.name)
        for backend_id in backends:
            self.node_scheduler.add_node(backend_id, backend_capacity)
        #: backend -> subscriber -> [usage, completed] since last flush.
        self._buckets: Dict[str, Dict[str, List[object]]] = {
            backend_id: {} for backend_id in backends
        }
        #: Idle keep-alive sockets to each backend, reused across requests.
        self.pool = BackendPool(
            size_per_backend=self.config.proxy_pool_size,
            idle_timeout_s=self.config.proxy_pool_idle_s,
        )
        #: Ejection/re-admission/shedding ledger (loop-clock timestamps).
        self.failures = FailureLog()
        #: Consecutive failures per backend; any success resets to zero,
        #: ``proxy_failure_threshold`` in a row ejects the backend.
        self._consecutive_failures: Dict[str, int] = {
            backend_id: 0 for backend_id in backends
        }
        #: Backends with a probe task in flight (no duplicate probes).
        self._probing: Set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._stopping = False
        #: Retry-budget token bucket (None = unlimited, the default).
        #: Refilled by the scheduler loop at the configured rate; a
        #: retry that finds the bucket empty is skipped, so retries plus
        #: hedges cannot storm a degraded backend.
        budget = self.config.proxy_retry_budget
        self._retry_tokens: Optional[float] = None if budget is None else float(budget)
        #: Seeded source of backoff jitter — deterministic under test.
        self._retry_rng = random.Random(0x9A9E)
        registry = get_registry()
        self._tm_connect_latency = registry.histogram("repro.proxy.connect_latency_s")
        self._tm_response_latency = registry.histogram("repro.proxy.response_latency_s")
        self._tm_retries = registry.counter("repro.proxy.retries")
        self._tm_shed = registry.counter("repro.proxy.shed_requests")
        self._tm_timeouts = registry.counter("repro.proxy.timeouts")
        self._tm_ejections = registry.counter("repro.proxy.ejections")
        self._tm_readmissions = registry.counter("repro.proxy.readmissions")
        self._tm_hedge_fired = registry.counter("repro.proxy.hedge.fired")
        self._tm_hedge_won = registry.counter("repro.proxy.hedge.won")
        self._tm_hedge_cancelled = registry.counter("repro.proxy.hedge.cancelled")
        self._tm_hedge_refunded = registry.counter("repro.proxy.hedge.refunded_grps")
        self._tm_retry_budget_exhausted = registry.counter(
            "repro.proxy.retry_budget_exhausted"
        )
        self._tm_deadline_expired = registry.counter("repro.proxy.deadline_expired")
        #: Connections this worker's listener accepted — the per-worker
        #: series behind the SO_REUSEPORT accept-balance measurement.
        self._tm_accepts = registry.counter(
            "repro.proxy.worker.accepts", worker=str(worker_id)
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: int = 0, sock: Optional[object] = None) -> int:
        """Bind, start serving, and start the scheduler/accounting tasks.

        ``sock`` lets a caller hand in an already-bound listening socket
        — the multi-worker supervisor passes each worker an
        ``SO_REUSEPORT`` socket on the shared port so the kernel spreads
        incoming connections across the worker processes.
        """
        if sock is not None:
            self._server = await asyncio.start_server(self._handle, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks.append(asyncio.ensure_future(self._scheduler_loop()))
        self._tasks.append(asyncio.ensure_future(self._accounting_loop()))
        return self.port

    async def stop(self) -> None:
        """Stop serving and cancel the background tasks."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self.pool.close_all()

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) once started."""
        if self.port is None:
            raise RuntimeError("proxy not started")
        return self.host, self.port

    # -- background loops --------------------------------------------------

    async def _scheduler_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.scheduling_cycle_s)
            if self._retry_tokens is not None:
                self._retry_tokens = min(
                    float(self.config.proxy_retry_budget or 0),
                    self._retry_tokens
                    + self.config.proxy_retry_budget_refill_per_s
                    * self.config.scheduling_cycle_s,
                )
            self.scheduler.run_cycle()
            self.pool.sweep()
            get_registry().tick()
            if not self.node_scheduler.up_nodes():
                self._shed_queued()

    async def _accounting_loop(self) -> None:
        loop = asyncio.get_event_loop()
        last = loop.time()
        while not self._stopping:
            await asyncio.sleep(self.config.accounting_cycle_s)
            now = loop.time()
            for backend_id in self.backends:
                message = self._flush_bucket(backend_id, last, now)
                if message.per_subscriber:
                    self.scheduler.apply_feedback(message)
            last = now

    def _flush_bucket(self, backend_id: str, start: float, end: float) -> AccountingMessage:
        bucket = self._buckets[backend_id]
        per_subscriber = {}
        total = ResourceVector.ZERO
        for name, (usage, completed) in bucket.items():
            per_subscriber[name] = RPNUsageReport(usage, completed)
            total = total + usage
        bucket.clear()
        return AccountingMessage(
            rpn_id=backend_id,
            cycle_start_s=start,
            cycle_end_s=end,
            total_usage=total,
            per_subscriber=per_subscriber,
        )

    @staticmethod
    def _now() -> float:
        return asyncio.get_event_loop().time()

    # -- hierarchical-credit hooks (multi-worker front end) ------------------

    def credit_report(self) -> Tuple[Dict[str, ResourceVector], Dict[str, int]]:
        """(unused credit, backlog depth) per subscriber, for the supervisor.

        An idle subscriber offers the positive balance it hoards beyond
        one cycle's refill — the next refill keeps it serving an arriving
        burst until the following grant round.  A backlogged one offers
        nothing and reports its queue depth instead.  The supervisor
        feeds these to :class:`~repro.core.shard.GlobalAllocator` and
        answers with :meth:`apply_credit_grant`.
        """
        unused: Dict[str, ResourceVector] = {}
        backlog: Dict[str, int] = {}
        for queue in self.queues:
            name = queue.subscriber.name
            depth = len(queue)
            if depth > 0:
                backlog[name] = depth
                continue
            credit, _capped = self.scheduler.ledger.cycle_credit(queue.subscriber)
            offer = (self.accounting.account(name).balance - credit).clamped_min(0.0)
            if offer != ResourceVector.ZERO:
                unused[name] = offer
        return unused, backlog

    def apply_credit_grant(self, net: Dict[str, ResourceVector]) -> None:
        """Apply the supervisor's per-subscriber balance adjustments."""
        for name, delta in net.items():
            if self.queues.get(name) is not None and delta != ResourceVector.ZERO:
                self.accounting.credit(name, delta)

    def balances(self) -> Dict[str, ResourceVector]:
        """Current per-subscriber credit balances (for restart reclaim)."""
        return {
            account.subscriber.name: account.balance
            for account in self.accounting.accounts()
        }

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(
        self, item: object, backend_id: str, subscriber: str,
        predicted: ResourceVector,
    ) -> None:
        assert isinstance(item, _PendingConnection)
        self.stats.dispatched += 1
        if self.config.hedge_policy != HEDGE_OFF and item.head.content_length == 0:
            # Only bodyless requests are hedged: a request body is
            # consumed from the client stream once, so it cannot be
            # replayed to a second backend.
            coro = self._serve_hedged(item, backend_id, subscriber, predicted)
        else:
            coro = self._serve(item, backend_id, subscriber)
        task = asyncio.ensure_future(coro)
        self._tasks.append(task)
        self._tasks = [t for t in self._tasks if not t.done()]

    async def _acquire(
        self, backend_id: str, fresh: bool = False
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """A connection to ``backend_id``: pooled if available, else dialed.

        Returns ``(reader, writer, reused)``; raises ``OSError`` or
        ``asyncio.TimeoutError`` when a fresh dial fails.
        """
        if not fresh:
            pooled = self.pool.get(backend_id)
            if pooled is not None:
                return pooled[0], pooled[1], True
        connect_started = self._now()
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*self.backends[backend_id]),
            timeout=self.config.proxy_connect_timeout_s,
        )
        self._tm_connect_latency.observe(self._now() - connect_started)
        tune_transport(writer.transport)
        return reader, writer, False

    async def _exchange(
        self,
        request_head: bytes,
        body_len: int,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        backend_reader: asyncio.StreamReader,
        backend_writer: asyncio.StreamWriter,
        timeout: Optional[float] = None,
    ):
        """Send one request to the backend and read its response head."""
        await splice_exactly(
            client_reader, client_writer, backend_writer, body_len, prefix=request_head
        )
        await backend_writer.drain()
        return await asyncio.wait_for(
            read_response_head(backend_reader),
            timeout=(
                timeout if timeout is not None
                else self.config.proxy_response_timeout_s
            ),
        )

    async def _serve(
        self, pending: _PendingConnection, backend_id: str, subscriber: str
    ) -> None:
        """Proxy one dispatched request, riding out backend failures.

        A connect failure or timeout takes one retry (with exponential
        backoff) against the least-loaded healthy backend not yet tried;
        a backend that accepts but never answers is cut off by the
        response timeout and the client gets a 504.  Usage is always
        billed under ``backend_id`` — the backend the scheduler charged
        at dispatch — even when an alternate physically served, so the
        accounting's pending-prediction queues stay consistent.

        On success, the backend socket returns to the pool (if the
        backend kept it alive) and a keep-alive client goes back to
        waiting for its next request instead of being closed.
        """
        client_reader, client_writer = pending.reader, pending.writer
        remaining = self._deadline_remaining(pending)
        if remaining is not None and remaining <= 0:
            await self._expire(pending, backend_id, subscriber)
            return
        response_timeout = self.config.proxy_response_timeout_s
        if remaining is not None:
            response_timeout = min(response_timeout, remaining)
        head = pending.head
        client_keep_alive = wants_keep_alive(head)
        body_len = head.content_length
        # The hop to the backend is always keep-alive; the client's own
        # connection preference is honored on the client side only.
        head.headers["connection"] = "keep-alive"
        request_head = render_request_head(head)
        tried: Set[str] = set()
        current = backend_id
        started = self._now()
        connection = None
        for attempt in range(2):
            tried.add(current)
            try:
                connection = await self._acquire(current)
                break
            except (OSError, asyncio.TimeoutError):
                self._note_backend_failure(current)
                alternate = self._pick_alternate(tried)
                if attempt == 0 and alternate is not None and self._take_retry_token():
                    self.stats.retried += 1
                    self._tm_retries.inc()
                    # Full-jitter exponential backoff: a burst of failures
                    # spreads its retries over [0, base * 2^attempt)
                    # instead of hammering the alternate in lockstep.
                    await asyncio.sleep(
                        self._retry_rng.uniform(
                            0.0, self.config.proxy_retry_backoff_s * (2 ** attempt)
                        )
                    )
                    current = alternate
                    continue
                self.stats.failed += 1
                self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
                if self.node_scheduler.up_nodes():
                    await self._refuse(client_writer, 502, "Bad Gateway")
                else:
                    self.stats.shed_no_backend += 1
                    self._tm_shed.inc()
                    self.failures.record(self._now(), REQUEST_SHED, subscriber)
                    await self._refuse(
                        client_writer,
                        503,
                        "Service Unavailable",
                        retry_after_s=self._retry_after_s(),
                    )
                return
        backend_reader, backend_writer, reused = connection
        released = False
        client_ok = False
        head_sent = False
        try:
            while True:
                try:
                    response = await self._exchange(
                        request_head,
                        body_len,
                        client_reader,
                        client_writer,
                        backend_reader,
                        backend_writer,
                        timeout=response_timeout,
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    if reused and body_len == 0:
                        # The pooled socket went stale while parked (the
                        # backend closed its end).  Nothing of the request
                        # was consumed from the client, so redial fresh
                        # once — a dead parked socket is not a backend
                        # failure.
                        backend_writer.close()
                        try:
                            backend_reader, backend_writer, reused = (
                                await self._acquire(current, fresh=True)
                            )
                        except (OSError, asyncio.TimeoutError):
                            raise exc from None
                        continue
                    raise
            usage_triple = response.usage()
            backend_keep_alive = wants_keep_alive(response)
            response.headers["connection"] = (
                "keep-alive" if client_keep_alive else "close"
            )
            response_head = render_response_head(response, drop_usage=True)
            head_sent = True
            relayed = await asyncio.wait_for(
                splice_exactly(
                    backend_reader,
                    backend_writer,
                    client_writer,
                    response.content_length,
                    prefix=response_head,
                ),
                timeout=response_timeout,
            )
            await client_writer.drain()
            self.stats.completed += 1
            self._tm_response_latency.observe(self._now() - started)
            self.stats.bytes_relayed += relayed
            usage = (
                ResourceVector(*usage_triple)
                if usage_triple is not None
                else ResourceVector(0.0, 0.0, float(relayed))
            )
            self._record(backend_id, subscriber, usage, completed=1)
            self._consecutive_failures[current] = 0
            if backend_keep_alive and not self._stopping:
                released = self.pool.put(current, backend_reader, backend_writer)
            client_ok = True
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            self._tm_timeouts.inc()
            self.stats.failed += 1
            self._note_backend_failure(current)
            self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
            if not head_sent:
                await self._refuse(client_writer, 504, "Gateway Timeout")
            # else: the head already reached the client, so no error
            # status can follow; just cut the stalled transfer.
        except (HTTPError, ConnectionError, asyncio.IncompleteReadError):
            self.stats.failed += 1
            self._note_backend_failure(current)
            self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
            if not head_sent:
                await self._refuse(client_writer, 502, "Bad Gateway")
        finally:
            if not released:
                backend_writer.close()
            if client_ok and client_keep_alive:
                self._resume_client(client_reader, client_writer)
            else:
                client_writer.close()

    # -- deadlines and retry budget ------------------------------------------

    def _deadline_remaining(self, pending: _PendingConnection) -> Optional[float]:
        """Seconds left before this request's deadline (None = no deadline)."""
        deadline = self.config.proxy_request_deadline_s
        if deadline is None:
            return None
        return deadline - (self._now() - pending.enqueued_at)

    async def _expire(
        self, pending: _PendingConnection, backend_id: str, subscriber: str
    ) -> None:
        """504 a request whose deadline passed while it sat queued.

        The scheduler already charged the dispatch, so a zero-usage
        completion is recorded to keep the prediction back-out aligned.
        """
        self.stats.deadline_expired += 1
        self._tm_deadline_expired.inc()
        self.stats.failed += 1
        self._record(backend_id, subscriber, ResourceVector.ZERO, completed=1)
        await self._refuse(pending.writer, 504, "Gateway Timeout")

    def _take_retry_token(self) -> bool:
        """Spend one retry-budget token; False (and counted) when empty."""
        if self._retry_tokens is None:
            return True
        if self._retry_tokens >= 1.0:
            self._retry_tokens -= 1.0
            return True
        self.stats.retry_budget_exhausted += 1
        self._tm_retry_budget_exhausted.inc()
        return False

    # -- hedging -------------------------------------------------------------

    def _hedge_delay(self) -> float:
        """Seconds to wait for the primary before firing a hedge clone.

        Under the adaptive policy the delay tracks the observed p95
        response latency (so only the slowest ~5% of requests hedge),
        falling back to the fixed delay until enough samples exist.
        """
        if self.config.hedge_policy == HEDGE_P95:
            histogram = self._tm_response_latency
            if histogram.count >= 10:
                quantile = histogram.quantile(0.95)
                if quantile > 0:
                    return quantile
        return self.config.hedge_delay_s

    async def _fetch_head(
        self, backend_id: str, request_head: bytes, timeout: float
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, HTTPResponseHead]:
        """One hedged attempt: acquire, send the head, read the response head.

        Closes its socket on any failure — including cancellation — so a
        lost attempt never leaks a connection.  A pooled socket that went
        stale while parked is redialed fresh once, exactly like the
        unhedged path.
        """
        reader, writer, reused = await self._acquire(backend_id)
        try:
            while True:
                try:
                    writer.write(request_head)
                    await writer.drain()
                    response = await asyncio.wait_for(
                        read_response_head(reader), timeout=timeout
                    )
                    return reader, writer, response
                except (ConnectionError, asyncio.IncompleteReadError):
                    if not reused:
                        raise
                    writer.close()
                    reader, writer, reused = await self._acquire(
                        backend_id, fresh=True
                    )
        except BaseException:
            writer.close()
            raise

    async def _serve_hedged(
        self,
        pending: _PendingConnection,
        backend_id: str,
        subscriber: str,
        predicted: ResourceVector,
    ) -> None:
        """Serve one dispatched request with tail-latency hedging.

        The primary attempt goes to ``backend_id`` (charged by the
        scheduler at dispatch).  If no response head arrives within the
        hedge delay, a clone is charged against — and dialed to — the
        least-loaded backend not yet holding a copy; the first head to
        arrive wins and its body is relayed to the client.  Every loser's
        prediction is refunded (:meth:`RDNAccounting.on_cancel` keeps the
        credit ledger conserved) and its socket is drained in the
        background and returned to the pool, never leaked.
        """
        client_writer = pending.writer
        remaining = self._deadline_remaining(pending)
        if remaining is not None and remaining <= 0:
            await self._expire(pending, backend_id, subscriber)
            return
        response_timeout = self.config.proxy_response_timeout_s
        if remaining is not None:
            response_timeout = min(response_timeout, remaining)
        head = pending.head
        client_keep_alive = wants_keep_alive(head)
        head.headers["connection"] = "keep-alive"
        request_head = render_request_head(head)
        started = self._now()

        #: backend -> the prediction charged for its copy of the request.
        charged: Dict[str, ResourceVector] = {backend_id: predicted}
        tasks: Dict[asyncio.Task, str] = {}
        primary = asyncio.ensure_future(
            self._fetch_head(backend_id, request_head, response_timeout)
        )
        tasks[primary] = backend_id

        winner_id: Optional[str] = None
        winner = None
        #: Attempts whose head arrived in the same wakeup as the winner's.
        late: List[Tuple[str, Tuple[
            asyncio.StreamReader, asyncio.StreamWriter, HTTPResponseHead
        ]]] = []
        hedge_wait: Optional[float] = self._hedge_delay()
        while tasks:
            done, _ = await asyncio.wait(
                set(tasks), timeout=hedge_wait,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                # The hedge timer fired with every attempt still pending.
                clone_id = None
                if len(charged) - 1 < self.config.hedge_max_clones:
                    clone_id = self._pick_alternate(set(charged))
                if clone_id is None:
                    hedge_wait = None  # nowhere (left) to clone; just wait
                    continue
                clone_predicted = self.scheduler.estimator(subscriber).predict()
                self.accounting.on_dispatch(subscriber, clone_id, clone_predicted)
                self.node_scheduler.on_dispatch(clone_id, clone_predicted)
                charged[clone_id] = clone_predicted
                self.stats.hedges_fired += 1
                self._tm_hedge_fired.inc()
                clone = asyncio.ensure_future(
                    self._fetch_head(clone_id, request_head, response_timeout)
                )
                tasks[clone] = clone_id
                if len(charged) - 1 >= self.config.hedge_max_clones:
                    hedge_wait = None
                continue
            for task in done:
                attempt_id = tasks.pop(task)
                try:
                    result = task.result()
                except (OSError, HTTPError, ConnectionError,
                        asyncio.TimeoutError, asyncio.IncompleteReadError):
                    # A failed attempt settles its own charge: zero usage,
                    # one completion, exactly like the unhedged path.
                    self._note_backend_failure(attempt_id)
                    self._record(
                        attempt_id, subscriber, ResourceVector.ZERO, completed=1
                    )
                    charged.pop(attempt_id, None)
                    continue
                if winner_id is None:
                    winner_id, winner = attempt_id, result
                else:
                    late.append((attempt_id, result))
            if winner_id is not None:
                break

        if winner_id is None or winner is None:
            self.stats.failed += 1
            if self.node_scheduler.up_nodes():
                await self._refuse(client_writer, 502, "Bad Gateway")
            else:
                self.stats.shed_no_backend += 1
                self._tm_shed.inc()
                self.failures.record(self._now(), REQUEST_SHED, subscriber)
                await self._refuse(
                    client_writer,
                    503,
                    "Service Unavailable",
                    retry_after_s=self._retry_after_s(),
                )
            return

        if winner_id != backend_id:
            self.stats.hedges_won += 1
            self._tm_hedge_won.inc()
        # Cancel the losers: refund each one's prediction now (before any
        # accounting flush can race) and drain its socket in background.
        for task, loser_id in list(tasks.items()):
            self._refund_loser(loser_id, subscriber, charged)
            reap = asyncio.ensure_future(
                self._reap_loser(task, loser_id, subscriber)
            )
            self._tasks.append(reap)
        tasks.clear()
        for loser_id, result in late:
            self._refund_loser(loser_id, subscriber, charged)
            reap = asyncio.ensure_future(
                self._drain_loser(result, loser_id, subscriber)
            )
            self._tasks.append(reap)

        backend_reader, backend_writer, response = winner
        released = False
        client_ok = False
        try:
            usage_triple = response.usage()
            backend_keep_alive = wants_keep_alive(response)
            response.headers["connection"] = (
                "keep-alive" if client_keep_alive else "close"
            )
            response_head = render_response_head(response, drop_usage=True)
            relayed = await asyncio.wait_for(
                splice_exactly(
                    backend_reader,
                    backend_writer,
                    client_writer,
                    response.content_length,
                    prefix=response_head,
                ),
                timeout=response_timeout,
            )
            await client_writer.drain()
            self.stats.completed += 1
            self._tm_response_latency.observe(self._now() - started)
            self.stats.bytes_relayed += relayed
            usage = (
                ResourceVector(*usage_triple)
                if usage_triple is not None
                else ResourceVector(0.0, 0.0, float(relayed))
            )
            self._record(winner_id, subscriber, usage, completed=1)
            self._consecutive_failures[winner_id] = 0
            if backend_keep_alive and not self._stopping:
                released = self.pool.put(winner_id, backend_reader, backend_writer)
            client_ok = True
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            self._tm_timeouts.inc()
            self.stats.failed += 1
            self._note_backend_failure(winner_id)
            self._record(winner_id, subscriber, ResourceVector.ZERO, completed=1)
            # The response head already started toward the client; no
            # error status can follow, just cut the stalled transfer.
        except (HTTPError, ConnectionError, asyncio.IncompleteReadError):
            self.stats.failed += 1
            self._note_backend_failure(winner_id)
            self._record(winner_id, subscriber, ResourceVector.ZERO, completed=1)
        finally:
            if not released:
                backend_writer.close()
            if client_ok and client_keep_alive:
                self._resume_client(pending.reader, client_writer)
            else:
                client_writer.close()

    def _refund_loser(
        self, loser_id: str, subscriber: str, charged: Dict[str, ResourceVector]
    ) -> None:
        """Refund a hedge loser's dispatch-time prediction."""
        loser_predicted = charged.pop(loser_id, None)
        if loser_predicted is not None and self.accounting.on_cancel(
            subscriber, loser_id, loser_predicted
        ):
            self.node_scheduler.on_feedback(loser_id, loser_predicted)
            self._tm_hedge_refunded.inc(
                loser_predicted.in_generic_requests(self.config.generic_request)
            )
        self.stats.hedges_cancelled += 1
        self._tm_hedge_cancelled.inc()

    async def _reap_loser(
        self, task: "asyncio.Task", loser_id: str, subscriber: str
    ) -> None:
        """Wait out a cancelled hedge attempt, then drain and recycle it."""
        try:
            result = await task
        except (OSError, HTTPError, ConnectionError,
                asyncio.TimeoutError, asyncio.IncompleteReadError):
            # A loser that never answered is a real backend signal —
            # count it so a hung backend still gets ejected.
            self._note_backend_failure(loser_id)
            return  # _fetch_head already closed its socket
        await self._drain_loser(result, loser_id, subscriber)

    async def _drain_loser(
        self,
        result: Tuple[asyncio.StreamReader, asyncio.StreamWriter, HTTPResponseHead],
        loser_id: str,
        subscriber: str,
    ) -> None:
        """Consume a loser's response body; pool the socket, bill the usage.

        The prediction was refunded at resolution; the *measured* usage
        is billed with ``completed=0`` so the subscriber still pays for
        the work the backend actually did, without disturbing the
        count-based prediction back-out.
        """
        reader, writer, response = result
        try:
            await asyncio.wait_for(
                self._discard_body(reader, response.content_length),
                timeout=self.config.proxy_response_timeout_s,
            )
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            writer.close()
            return
        usage_triple = response.usage()
        if usage_triple is not None:
            self._record(
                loser_id, subscriber, ResourceVector(*usage_triple), completed=0
            )
        released = False
        if wants_keep_alive(response) and not self._stopping:
            released = self.pool.put(loser_id, reader, writer)
        if not released:
            writer.close()

    @staticmethod
    async def _discard_body(reader: asyncio.StreamReader, nbytes: int) -> None:
        """Read and drop exactly ``nbytes`` from a backend stream."""
        remaining = nbytes
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
            remaining -= len(chunk)

    # -- backend health ----------------------------------------------------------

    def _pick_alternate(self, tried: Set[str]) -> Optional[str]:
        """The least-loaded healthy backend outside ``tried``, if any."""
        candidates = [
            status
            for status in self.node_scheduler.up_nodes()
            if status.rpn_id not in tried
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.load_seconds()).rpn_id

    def _note_backend_failure(self, backend_id: str) -> None:
        """Count one failure; eject the backend at the threshold."""
        count = self._consecutive_failures.get(backend_id, 0) + 1
        self._consecutive_failures[backend_id] = count
        status = self.node_scheduler.get(backend_id)
        if (
            status is not None
            and status.up
            and count >= self.config.proxy_failure_threshold
        ):
            now = self._now()
            self.node_scheduler.mark_down(backend_id, at_s=now)
            # No socket to a dead node survives in the pool.
            self.pool.drop_backend(backend_id)
            self._tm_ejections.inc()
            self.failures.record(now, BACKEND_EJECTED, backend_id, detail=float(count))
            if backend_id not in self._probing:
                self._probing.add(backend_id)
                task = asyncio.ensure_future(self._probe_loop(backend_id))
                self._tasks.append(task)

    async def _probe_loop(self, backend_id: str) -> None:
        """Re-admit an ejected backend once a probe connect succeeds."""
        host, port = self.backends[backend_id]
        try:
            while not self._stopping:
                await asyncio.sleep(self.config.proxy_probe_interval_s)
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port),
                        timeout=self.config.proxy_connect_timeout_s,
                    )
                except (OSError, asyncio.TimeoutError):
                    continue
                self._consecutive_failures[backend_id] = 0
                self.node_scheduler.mark_up(backend_id)
                self._tm_readmissions.inc()
                self.failures.record(self._now(), BACKEND_READMITTED, backend_id)
                # The probe connection itself seeds the refilled pool.
                tune_transport(writer.transport)
                self.pool.put(backend_id, reader, writer)
                return
        finally:
            self._probing.discard(backend_id)

    def _record(
        self, backend_id: str, subscriber: str, usage: ResourceVector, completed: int
    ) -> None:
        bucket = self._buckets[backend_id]
        if subscriber not in bucket:
            bucket[subscriber] = [ResourceVector.ZERO, 0]
        bucket[subscriber][0] = bucket[subscriber][0] + usage
        bucket[subscriber][1] += completed
