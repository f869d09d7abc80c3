"""Experiment runners: the canonical characterization and serving loops.

``run_experiment`` is the single entry point: it assembles a
:class:`~repro.api.builder.System` from the spec and drives it according to
the spec's arrival process:

* ``single`` -> one-request-at-a-time characterization (paper IV-A/IV-B),
  recorded as a :class:`~repro.core.runner.CharacterizationResult`;
* ``poisson`` / ``uniform`` -> open-loop serving (paper IV-C, Fig. 10/11),
  recorded as a :class:`~repro.serving.server.ServingResult`.

Either record comes back wrapped in a :class:`~repro.api.results.ResultSet`,
which defines every metric.

Offered-load sweeps (the tail-latency-vs-QPS curves of paper Fig. 11) are
one-axis studies: :func:`repro.api.study.run_study` over a ``qps`` axis.

The loops keep the original single-engine runner's and server's
random-stream labelling (including the worker numbering), because the golden
pins recorded against them hold bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.agents import AgentRunResult
from repro.api.builder import System, SystemBuilder
from repro.api.results import ResultSet
from repro.api.spec import ExperimentSpec
from repro.core.metrics import GpuRuntimeBreakdown, PoolStats, percentile
from repro.core.runner import CharacterizationResult, RequestObservation
from repro.llm.energy import PowerState
from repro.llm.tokenizer import SegmentKind
from repro.serving.cluster import ReplicaPool
from repro.serving.loadgen import ArrivalPlan, arrival_plan
from repro.serving.sessions import SessionSpec, SessionState, SessionStats
from repro.serving.server import ServingResult
from repro.serving.tenants import Tenant, tenant_fairness
from repro.sim import RandomStream
from repro.workloads.base import Task


# ---------------------------------------------------------------------------
# Characterization (arrival process: "single")
# ---------------------------------------------------------------------------


def _run_characterization(system: System) -> CharacterizationResult:
    spec = system.spec
    env, cluster = system.env, system.cluster
    # Characterization specs cannot be mixtures: the one class is unlabelled.
    tasks = system.traffic[None].workload.sample_tasks(spec.arrival.num_requests)
    agent = system.create_agent(None, seed_stream=system.stream)

    observations: List[RequestObservation] = []
    for task in tasks:
        start_time = env.now
        energy_before = cluster.energy_snapshot()
        result: AgentRunResult = env.run(agent.run_process(task))
        end_time = env.now
        window = cluster.energy_since(energy_before)
        gpu = GpuRuntimeBreakdown.from_engine_window(
            cluster.runtime_breakdown(start_time, end_time)
        )
        kv_stats = cluster.kv_memory_stats(start_time, end_time)
        observations.append(
            RequestObservation(
                result=result,
                energy_wh=window.total_wh,
                energy_joules_by_state=dict(window.joules_by_state),
                gpu=gpu,
                kv_average_bytes=kv_stats["average_bytes"],
                kv_max_bytes=kv_stats["max_bytes"],
            )
        )
    # Warm-up exclusion: drop the first ``warmup_requests`` observations so
    # characterization honours MeasurementSpec instead of silently ignoring
    # it (spec validation guarantees at least one observation survives).
    return CharacterizationResult(observations[spec.measurement.warmup_requests:])


# ---------------------------------------------------------------------------
# Serving (arrival processes: "poisson", "uniform")
# ---------------------------------------------------------------------------


class ServingDriver:
    """Drives one assembled system through one arrival plan.

    Every arrival is offered to the system's
    :class:`~repro.serving.admission.AdmissionController` before any work is
    enqueued: admitted requests spawn a worker immediately, delayed requests
    wait in a per-policy door queue (drained when a completion frees capacity
    or at the policy's requested retry time, e.g. a token-bucket refill), and
    rejected requests are shed with per-class and per-pool accounting.  With
    no admission spec the controller is the open door, and the
    ``concurrency`` policy reproduces the historical enforced gate
    bit-for-bit.  A driver serves one plan: a second :meth:`serve` raises,
    since the system's engines, pools and door already carry the first.
    """

    def __init__(self, system: System):
        self.system = system
        self.env = system.env
        self.spec = system.spec
        self.admission = system.admission
        # Worker counter: incremented when a worker process starts,
        # decremented when it finishes, and used to label the worker's agent
        # seed stream (golden-pinned, so it stays a live count, not an id).
        self._active_workers = 0
        # Door queues of delayed requests, one FIFO per admission policy
        # instance (so a shared policy keeps one global FIFO order while
        # per-class policies cannot head-of-line block each other).
        self._door_queues: Dict[
            int,
            Tuple[
                object,
                Deque[
                    Tuple[
                        float, Task, Optional[str], Optional[Tenant], List[AgentRunResult]
                    ]
                ],
            ],
        ] = {}
        # Policies with a pending retry timer (keyed by id(policy)).
        self._retry_pending: set = set()
        self._admission_delays: List[float] = []
        # (completion time, tenant, served tokens) per tenanted completion,
        # for the contended-window fairness report.
        self._tenant_completions: List[Tuple[float, Tenant, float]] = []
        # (time, energy snapshot) at the moment the warm-up window closed.
        self._warmup_boundary: Optional[Tuple[float, object]] = None
        # Which traffic classes feed the autoscaler's arrival forecaster:
        # only arrivals the autoscaled pool would serve count as its demand
        # (None = every arrival; the single-pool case).
        self._forecast_labels: Optional[set] = self._forecast_label_filter()
        # Multi-turn sessions: enabled when the arrival spec or any traffic
        # class declares a SessionSpec.  When disabled, none of the session
        # machinery draws randomness or schedules events, so sessionless
        # specs stay bit-for-bit identical to the single-shot driver.
        self._sessions_enabled = system.spec.arrival.sessions is not None or any(
            runtime.sessions is not None for runtime in system.traffic.values()
        )
        self._session_counter = 0
        self._session_stats = SessionStats()
        # Completed interaction roots: finished sessions plus sessionless
        # requests.  The drain loop counts roots (not turns) against the
        # arrival plan, since every plan entry is the first turn of one
        # interaction.
        self._roots_done = 0
        # Per-session think-time streams (created lazily, sessions only).
        self._think_streams: Dict[str, RandomStream] = {}
        self._served = False

    def _forecast_label_filter(self) -> Optional[set]:
        """Traffic-class labels whose arrivals land on the autoscaled pool.

        Class-level approximation of the cluster's two-stage routing: labels
        the pool claims, plus -- when the pool is the default -- unlabelled
        arrivals and labels no pool claims (``None`` in the set stands for
        both).  Decode-length classification and cross-pool spill are not
        modelled; the forecast is a demand estimate, not an exact router.
        ``None`` (match everything) for single-pool fleets or no forecaster.
        """
        autoscaler = self.system.autoscaler
        if autoscaler is None or autoscaler.forecaster is None:
            return None
        cluster = self.system.cluster
        if len(cluster.pools) == 1:
            return None
        pool = autoscaler.pool
        labels: set = {label.lower() for label in pool.traffic_classes}
        if pool is cluster.default_pool:
            claimed_elsewhere = {
                label
                for other in cluster.pools.values()
                if other is not pool
                for label in other.traffic_classes
            }
            labels.add(None)
            for label in self.system.traffic:
                # The unlabelled class is the None already in the set.
                if label is not None and label.lower() not in claimed_elsewhere:
                    labels.add(label.lower())
        return labels

    # -- agent/worker assembly ------------------------------------------------
    def _make_agent(self, label: Optional[str]):
        seed_stream = self.system.stream.substream(
            f"agent-worker/{self._active_workers}"
        )
        return self.system.create_agent(label, seed_stream)

    def _worker(
        self,
        task: Task,
        label: Optional[str],
        tenant: Optional[Tenant],
        collected: List[AgentRunResult],
        session: Optional[SessionState] = None,
    ):
        self._active_workers += 1
        agent = self._make_agent(label)
        if tenant is not None:
            # Stamped onto every LLM request the agent issues, so fairness
            # schedulers (vtc) can account served tokens per tenant.
            agent.request_metadata["tenant"] = tenant.user
        if session is not None:
            # Stamped onto every LLM request of every turn, so sticky routers
            # (session-affinity) can pin the conversation to one replica.
            agent.request_metadata["session"] = session.session_id
            agent.request_metadata["session_turn"] = session.next_turn
            if session.context:
                agent.context_prefix = list(session.context)
                agent.followup_span = self._followup_span(session)
        result = yield agent.run_process(task)
        if label is not None:
            result.metadata["traffic_class"] = label
        if tenant is not None:
            result.metadata["tenant"] = tenant
            self._tenant_completions.append(
                (
                    self.env.now,
                    tenant,
                    float(result.total_prompt_tokens + result.total_output_tokens),
                )
            )
        collected.append(result)
        self._note_completion(collected)
        self._active_workers -= 1
        if session is not None:
            self._on_turn_done(session, agent, label, tenant, result, collected)
        else:
            self._roots_done += 1
            self._on_worker_done(label, tenant, result)

    def _note_completion(self, collected: List[AgentRunResult]) -> None:
        """Mark the instant the warm-up window closes (for window-true metrics)."""
        warmup = self.spec.measurement.warmup_requests
        if warmup and len(collected) == warmup:
            self._warmup_boundary = (self.env.now, self.system.cluster.energy_snapshot())

    def _spawn(
        self,
        task: Task,
        label: Optional[str],
        tenant: Optional[Tenant],
        collected: List[AgentRunResult],
        session: Optional[SessionState] = None,
    ) -> None:
        if session is None and self._sessions_enabled:
            # An admitted arrival is the first turn of a new interaction when
            # its class (or the arrival spec) declares a session shape.  The
            # session is created *after* admission: a session holds exactly
            # one door slot for its whole lifetime, from first turn through
            # every think-time gap, released only when the last turn ends.
            session_spec = self._session_spec_for(label)
            if session_spec is not None:
                session = SessionState(
                    session_id=f"s{self._session_counter}",
                    spec=session_spec,
                    task=task,
                    label=label,
                    tenant=tenant,
                )
                self._session_counter += 1
                self._session_stats.num_sessions += 1
        self.env.process(self._worker(task, label, tenant, collected, session))

    def _session_spec_for(self, label: Optional[str]) -> Optional[SessionSpec]:
        """Effective session shape for a traffic class (override, else inherit).

        Mirrors the tenant-spec semantics: a class-level ``sessions`` wins,
        otherwise the arrival-level spec applies.  ``None`` = single-shot.
        """
        runtime = self.system.traffic.get(label)
        if runtime is not None and runtime.sessions is not None:
            return runtime.sessions
        return self.spec.arrival.sessions

    # -- door gate (admission control) ----------------------------------------
    def _door_queue_for(
        self, policy
    ) -> Deque[
        Tuple[float, Task, Optional[str], Optional[Tenant], List[AgentRunResult]]
    ]:
        entry = self._door_queues.get(id(policy))
        if entry is None:
            entry = self._door_queues[id(policy)] = (policy, deque())
        return entry[1]

    def _admit(
        self,
        task: Task,
        label: Optional[str],
        tenant: Optional[Tenant],
        collected: List[AgentRunResult],
    ) -> None:
        from repro.serving.admission import ADMIT, DELAY

        self._note_arrival(label)
        decision = self.admission.offer(self.env.now, label, tenant)
        if decision == ADMIT:
            self._admission_delays.append(0.0)
            self._spawn(task, label, tenant, collected)
        elif decision == DELAY:
            policy = self.admission.policy_for(label)
            self._door_queue_for(policy).append(
                (self.env.now, task, label, tenant, collected)
            )
            self._schedule_retry(policy)
        # REJECT: the request is shed; the controller recorded it.

    def _note_arrival(self, label: Optional[str]) -> None:
        """Feed the arrival timeline to the autoscaler's forecaster (if any).

        Only arrivals the autoscaled pool would serve count: forecasting the
        fleet-wide rate would size one pool for every pool's demand.
        """
        autoscaler = self.system.autoscaler
        if autoscaler is None or autoscaler.forecaster is None:
            return
        if self._forecast_labels is not None:
            key = label.lower() if isinstance(label, str) else label
            if key not in self._forecast_labels:
                return
        autoscaler.forecaster.observe(self.env.now)

    def _on_worker_done(
        self, label: Optional[str], tenant: Optional[Tenant], result: AgentRunResult
    ) -> None:
        self.admission.on_complete(
            self.env.now, label, result.e2e_latency, result.total_output_tokens, tenant
        )
        self._drain_door_queues()

    # -- multi-turn sessions ----------------------------------------------------
    def _on_turn_done(
        self,
        session: SessionState,
        agent,
        label: Optional[str],
        tenant: Optional[Tenant],
        result: AgentRunResult,
        collected: List[AgentRunResult],
    ) -> None:
        """Account one finished turn; close the session or schedule the next.

        A session is one interaction at the admission door: the final turn
        releases its slot through the normal completion path, while every
        earlier turn only reports telemetry (``on_turn_complete``) so
        ``oit-throttle``/``slo-shed`` never sever a conversation mid-flight
        -- the same in-flight protection interactions get within a turn.
        """
        session.turns_done += 1
        stats = self._session_stats
        stats.total_turns += 1
        result.metadata["session"] = session.session_id
        result.metadata["session_turn"] = session.turns_done
        if session.turns_done > 1:
            # Cross-turn reuse accounting: a later turn's prompt begins with
            # the previous turn's full conversation, so its cached prompt
            # tokens measure how much session context the prefix cache (and
            # the router's placement) actually retained across the gap.
            for call in result.llm_calls:
                stats.cross_turn_prompt_tokens += call.prompt_tokens
                stats.cross_turn_cached_tokens += call.cached_prompt_tokens
        if session.finished:
            stats.completed_sessions += 1
            self._roots_done += 1
            self._on_worker_done(label, tenant, result)
            return
        # The conversation grows by this turn's full prompt plus its answer;
        # the next turn's prompt extends it token for token, which is the
        # exact-prefix match the cross-turn cache hit depends on.
        context = list(agent.last_prompt_spans)
        if result.llm_calls:
            context.append(result.llm_calls[-1].output_span())
        session.context = context
        self.admission.on_turn_complete(
            self.env.now, label, result.e2e_latency, result.total_output_tokens, tenant
        )
        self._drain_door_queues()
        self.env.process(self._session_continuation(session, collected))

    def _session_continuation(self, session: SessionState, collected):
        """Think-time gap, then re-inject the session's next turn (closed loop)."""
        yield self.env.timeout(max(self._think_time(session), 0.0))
        self._spawn(session.task, session.label, session.tenant, collected, session=session)

    def _think_time(self, session: SessionState) -> float:
        spec = session.spec
        if spec.think_time_s <= 0:
            return 0.0
        if spec.think_time == "constant":
            return spec.think_time_s
        stream = self._think_streams.get(session.session_id)
        if stream is None:
            # One fresh substream per session, created only when sessions are
            # active: the experiment's existing streams draw nothing new, so
            # sessionless runs remain bit-for-bit identical.
            stream = self.system.stream.substream(
                f"session-think/{session.session_id}"
            )
            self._think_streams[session.session_id] = stream
        return stream.exponential(spec.think_time_s)

    def _followup_span(self, session: SessionState):
        """The next user message: fresh tokens keyed by (task, turn number)."""
        return self.system.cluster.tokenizer.span(
            SegmentKind.USER,
            f"user:{session.task.task_id}#turn{session.next_turn}",
            session.spec.followup_tokens,
        )

    def _drain_door_queues(self) -> None:
        for policy, queue in list(self._door_queues.values()):
            self._drain_door_queue(policy, queue)

    def _drain_door_queue(self, policy, queue) -> None:
        from repro.serving.admission import ADMIT, REJECT

        while queue:
            enqueued_at, task, label, tenant, sink = queue[0]
            decision = self.admission.readmit(self.env.now, label, tenant)
            if decision == ADMIT:
                queue.popleft()
                self._admission_delays.append(self.env.now - enqueued_at)
                self._spawn(task, label, tenant, sink)
            elif decision == REJECT:
                # Shed after waiting at the door (late slo-shed engagement).
                queue.popleft()
            else:
                self._schedule_retry(policy)
                return

    def _schedule_retry(self, policy) -> None:
        """Arm the policy's spontaneous re-offer timer (token refills etc.)."""
        if id(policy) in self._retry_pending:
            return
        retry_at = policy.retry_at(self.env.now)
        if retry_at is None:
            return  # Re-offered when a completion frees capacity.
        self._retry_pending.add(id(policy))
        self.env.process(self._retry_after(policy, retry_at))

    def _retry_after(self, policy, retry_at: float):
        yield self.env.timeout(max(0.0, retry_at - self.env.now))
        self._retry_pending.discard(id(policy))
        entry = self._door_queues.get(id(policy))
        if entry is not None:
            self._drain_door_queue(policy, entry[1])

    def _request_generator(self, plan: ArrivalPlan, collected: List[AgentRunResult]):
        previous = 0.0
        for arrival, task, label, tenant in zip(
            plan.arrival_times, plan.tasks, plan.labels(), plan.tenant_labels()
        ):
            gap = arrival - previous
            if gap > 0:
                yield self.env.timeout(gap)
            previous = arrival
            self._admit(task, label, tenant, collected)

    # -- open-loop serving ----------------------------------------------------
    def serve(self, plan: ArrivalPlan) -> ServingResult:
        """Serve an arrival plan to completion and collect serving metrics."""
        if self._served:
            raise RuntimeError("a ServingDriver serves one plan; build a new system")
        self._served = True
        system, env = self.system, self.env
        warmup = self.spec.measurement.warmup_requests
        if warmup >= len(plan):
            raise ValueError(
                f"measurement.warmup_requests ({warmup}) must be smaller than "
                f"the arrival plan ({len(plan)} requests): the measured window "
                "would be empty"
            )
        collected: List[AgentRunResult] = []
        energy_before = system.cluster.energy_snapshot()
        start_time = env.now
        generator = env.process(self._request_generator(plan, collected))
        env.run(generator)
        # Drain: run until every issued request has been answered or shed (or
        # no progress remains possible, which would indicate a deadlocked
        # worker).  An autoscaler's periodic heartbeat keeps the event queue
        # non-empty forever, so "queue empty" alone is not a liveness test:
        # when only background timers (heartbeats, replica warm-ups) remain,
        # no worker can ever complete and we bail out the same way.  A plan
        # entry is one *interaction*: the loop counts completed roots
        # (finished sessions + sessionless requests), while think-time
        # timers count as foreground work that keeps it alive.
        while (
            self._roots_done + self.admission.total_rejected < len(plan)
            and env.peek() != float("inf")
        ):
            if self._only_background_events_remain():
                break
            env.step()
        end_time = env.now
        return self._build_result(
            collected,
            offered_qps=plan.offered_qps,
            # With sessions every turn is a served request, so the request
            # count is what actually completed rather than the plan length.
            num_requests=len(collected) if self._sessions_enabled else len(plan),
            energy_before=energy_before,
            start_time=start_time,
            end_time=end_time,
            contended_until=start_time + plan.duration,
        )

    def _only_background_events_remain(self) -> bool:
        """True when every scheduled event is an autoscaler/warm-up timer."""
        autoscaler = self.system.autoscaler
        if autoscaler is None:
            return False
        background = set()
        if autoscaler.sleep_event is not None:
            background.add(id(autoscaler.sleep_event))
        for pool in self.system.cluster.pools.values():
            background.update(id(timer) for timer in pool.activation_timers)
        pending = self.env.pending_events()
        return bool(pending) and all(id(event) in background for event in pending)

    # -- result assembly -------------------------------------------------------
    def _build_result(
        self,
        collected: List[AgentRunResult],
        offered_qps: float,
        num_requests: int,
        energy_before,
        start_time: float,
        end_time: float,
        contended_until: Optional[float] = None,
    ) -> ServingResult:
        system = self.system
        # Warm-up trimming: the measured window opens when the warmup-th
        # request completes.  Completions before it are dropped, the issued
        # count shrinks to match (so completion-ratio consumers such as the
        # peak-throughput knee gate compare like with like), and duration /
        # energy / GPU / KV stats are taken from the boundary instead of the
        # run start so derived rates stay warm-up-clean.
        warmup = self.spec.measurement.warmup_requests
        if warmup and self._warmup_boundary is not None:
            start_time, energy_before = self._warmup_boundary
        measured = collected[warmup:] if warmup else collected
        measured_requests = max(num_requests - warmup, 0) if warmup else num_requests
        # Admission delays are recorded in spawn (≈ arrival) order; trim the
        # earliest entries so the door-queueing statistics cover the same
        # warm-up-clean window as every other metric.
        delays = self._admission_delays[warmup:] if warmup else self._admission_delays
        duration = max(end_time - start_time, 1e-9)
        window = system.cluster.energy_since(energy_before)
        gpu = GpuRuntimeBreakdown.from_engine_window(
            system.cluster.runtime_breakdown(start_time, end_time)
        )
        kv_stats = system.cluster.kv_memory_stats(start_time, end_time)
        # Price shed requests at the run's final per-class token means before
        # the per-pool snapshot is taken.
        self.admission.finalize_shed_estimates()
        # Forecast telemetry (predictive autoscaling only): realised forecast
        # error and the head start each forecast-triggered grow bought.
        forecast_mae = None
        scale_ahead_leads: List[float] = []
        autoscaler = system.autoscaler
        if autoscaler is not None and autoscaler.forecaster is not None:
            forecast_mae = autoscaler.forecast_mae(end_time)
            scale_ahead_leads = list(autoscaler.scale_ahead_leads)
        # Engine-fidelity telemetry: whole-run counters summed across
        # replicas (like preemptions), draft energy from the measured window.
        prefill_hol_block_s = 0.0
        spec_sequence_steps = 0
        spec_accepted_tokens = 0
        for engine in system.cluster.engines:
            prefill_hol_block_s += engine.prefill_hol_block_s
            spec_sequence_steps += engine.spec_sequence_steps
            spec_accepted_tokens += engine.spec_accepted_tokens
        draft_energy_j = window.joules_by_state.get(PowerState.DRAFT, 0.0)
        session_stats = None
        if self._sessions_enabled:
            self._session_stats.affinity_invalidations = sum(
                getattr(pool.router, "invalidations", 0)
                for pool in system.cluster.pools.values()
            )
            session_stats = self._session_stats
        # Hardware cost: each pool's replica-seconds priced at its own
        # replica-hour rate (mirrors the replica_seconds accounting basis).
        cost_usd = sum(
            pool.cost_until(end_time) for pool in system.cluster.pools.values()
        )
        served_tokens = sum(
            float(result.total_prompt_tokens + result.total_output_tokens)
            for result in measured
        )
        return ServingResult(
            offered_qps=offered_qps,
            num_requests=measured_requests,
            results=measured,
            duration=duration,
            energy_wh=window.total_wh,
            gpu=gpu,
            kv_average_bytes=kv_stats["average_bytes"],
            kv_max_bytes=kv_stats["max_bytes"],
            preemptions=system.cluster.preemption_count,
            prefix_cache_hit_rate=system.cluster.prefix_cache_hit_rate(),
            num_replicas=system.cluster.num_replicas,
            routed_counts=list(system.cluster.routed_counts),
            admission_delays=list(delays),
            pool_stats={
                pool.name: self._pool_stats(
                    pool, energy_before, start_time, end_time, duration
                )
                for pool in system.cluster.pools.values()
            },
            replica_seconds=system.cluster.replica_seconds_until(end_time),
            cost_usd=cost_usd,
            served_tokens=served_tokens,
            scaling_events=list(system.cluster.scaling_events),
            admission_stats=self.admission.class_stats(),
            forecast_mae=forecast_mae,
            scale_ahead_leads=scale_ahead_leads,
            tenant_stats=self._tenant_stats(contended_until),
            session_stats=session_stats,
            prefill_hol_block_s=prefill_hol_block_s,
            spec_sequence_steps=spec_sequence_steps,
            spec_accepted_tokens=spec_accepted_tokens,
            draft_energy_j=draft_energy_j,
        )

    def _tenant_stats(self, contended_until: Optional[float]):
        """Per-tenant fairness over the contended window (None = untenanted).

        The driver drains every admitted request, so end-of-run totals are
        scheduler-independent; what a fairness scheduler changes is who gets
        served *while tenants are still competing*.  Served tokens therefore
        count completions up to the contended horizon: the later of the last
        arrival time and the half-work horizon (the completion at which half
        of all served tokens had finished).  The half-work extension keeps
        the window non-degenerate on short runs, where every completion can
        land after the final arrival; under a backlog the drain stays
        contended well past the last arrival, and which tenants own the
        first half of the served work is exactly the ordering signal a
        fairness scheduler controls.
        """
        events = sorted(self._tenant_completions, key=lambda event: event[0])
        if contended_until is not None and events:
            total_tokens = sum(tokens for _, _, tokens in events)
            accumulated = 0.0
            half_horizon = events[-1][0]
            for finished_at, _, tokens in events:
                accumulated += tokens
                if accumulated >= 0.5 * total_tokens:
                    half_horizon = finished_at
                    break
            contended_until = max(contended_until, half_horizon)
        served: Dict[Tenant, float] = {}
        for finished_at, tenant, tokens in events:
            if contended_until is not None and finished_at > contended_until:
                continue
            served[tenant] = served.get(tenant, 0.0) + tokens
        return tenant_fairness(served, self.admission.tenant_counts())

    def _pool_stats(
        self,
        pool: ReplicaPool,
        energy_before,
        start_time: float,
        end_time: float,
        duration: float,
    ) -> PoolStats:
        """Engine-level metrics for one pool over the measured window."""
        energy_wh = sum(
            engine.energy.since(energy_before.for_engine(engine)).total_wh
            for engine in pool.replicas
        )
        latencies = [
            request.timings.e2e_latency
            for request in pool.completed_requests
            if request.timings.finished is not None
            and start_time <= request.timings.finished <= end_time
        ]
        return PoolStats(
            name=pool.name,
            num_replicas=pool.num_replicas,
            active_replicas=pool.num_active,
            routed_counts=list(pool.routed_counts),
            spilled_in=pool.spilled_in,
            spilled_out=pool.spilled_out,
            replica_seconds=pool.replica_seconds_until(end_time),
            energy_wh=energy_wh,
            cost_per_hour=pool.cost_per_hour,
            cost_usd=pool.cost_until(end_time),
            gpu=pool.hardware.gpu.name,
            completed_llm_requests=len(latencies),
            llm_p95_latency_s=percentile(latencies, 95.0),
            llm_throughput_qps=len(latencies) / duration,
            preemptions=pool.preemption_count,
            prefix_cache_hit_rate=pool.prefix_cache_hit_rate(),
            rejected_requests=pool.rejected_requests,
            shed_tokens=pool.shed_tokens,
        )


def _build_plan(system: System) -> ArrivalPlan:
    arrival = system.spec.arrival
    # The plan stream is golden-pinned: "plan/" for the unlabelled class,
    # "mixture-plan/" for labelled classes.
    namespace = "plan" if None in system.traffic else "mixture-plan"
    return arrival_plan(
        [
            (runtime.label, runtime.workload, runtime.weight, runtime.shape, runtime.tenants)
            for runtime in system.traffic.values()
        ],
        qps=arrival.qps,
        num_requests=arrival.num_requests,
        stream=system.stream.substream(f"{namespace}/{arrival.qps}"),
        task_pool_size=arrival.task_pool_size,
        process=arrival.process,
        shape=arrival.shape,
        duration_s=arrival.duration_s,
        tenants=arrival.tenants,
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def run_experiment(spec: ExperimentSpec) -> ResultSet:
    """Assemble and run one experiment; returns its unified :class:`ResultSet`."""
    from repro.llm.request import reset_request_ids

    reset_request_ids()
    system = SystemBuilder(spec).build()
    try:
        if spec.arrival.process == "single":
            return ResultSet(spec=spec, characterization=_run_characterization(system))
        return ResultSet(spec=spec, serving=ServingDriver(system).serve(_build_plan(system)))
    finally:
        system.close()
