"""Simulation backends: per-agent and batched configuration-vector execution.

The population model is a Markov chain over *configurations* — multisets of
agent states.  Two execution strategies for that chain are provided:

* :class:`AgentBackend` materialises one mutable state object per agent and
  executes one Python-level ``transition()`` call per interaction.  It is the
  reference implementation, supports arbitrary schedulers, per-agent hooks
  and per-agent participation accounting, and is exact at the agent level.

* :class:`BatchBackend` collapses the population into a histogram
  ``Counter[state_key] -> count`` (the configuration-as-multiset view of the
  population Markov chain) and samples *batches* of interactions at once:
  the number of configuration-preserving interactions before the next
  configuration-changing one is drawn from a geometric distribution over the
  active pair-type weights, and the transition is then applied once per pair
  *type* (memoised per pair type, and per coin value for transitions that
  draw one synthetic coin, by :class:`~repro.engine.outcomes.OutcomeTable`)
  instead of once per agent.  Conditioned on the configuration, the
  resulting chain is distributed exactly as the agent-level chain
  marginalised over agent identities, because agents are anonymous and the
  uniform scheduler is exchangeable.

The batch backend requires the uniform random scheduler and a protocol whose
behaviour depends on states only through their keys (true for every protocol
in this library; state keys encode the full state).  Protocols without a
native :meth:`~repro.engine.protocol.Protocol.delta_key` are lifted to key
space by :class:`LiftedKeyTransitions` using representative state objects.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import abc
import random

from ..obs.trace import RunTracer
from .errors import ConfigurationError, SimulationError
from .metrics import AggregateInteractionCounter, InteractionCounter, StateSpaceTracker
from .outcomes import OutcomeTable
from .protocol import Protocol
from .samplers import (
    SAMPLER_NAMES,
    AliasSampler,
    AliasTable,
    FenwickSampler,
    WeightedSampler,
    make_sampler,
)
from .vectorized import (
    ACCEL_NAMES,
    AccelCapacityError,
    CollisionFreeKernel,
    DenseBlockKernel,
    FactorisedPairKernel,
    expected_run_length,
    numpy_available,
    resolve_accel,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from .scheduler import Scheduler
    from .simulator import Simulator

__all__ = [
    "Backend",
    "AgentBackend",
    "BatchBackend",
    "LiftedKeyTransitions",
    "AliasTable",
    "BACKEND_NAMES",
    "SAMPLER_NAMES",
    "ACCEL_NAMES",
]

#: Valid values for the ``backend=`` argument of the simulator.
BACKEND_NAMES = ("agent", "batch", "auto")


class LiftedKeyTransitions:
    """Lift a mutating ``transition()`` to pure key space via representatives.

    One representative state object is kept per observed key; a key-level
    transition copies the two representatives, applies the protocol's
    mutating ``transition()``, and returns (registering) the resulting keys.
    This is exact whenever the protocol's behaviour depends on a state only
    through its key — which holds for every protocol in this library, since
    state keys encode the complete state.

    Requires a working
    :meth:`~repro.engine.protocol.Protocol.copy_state`.
    """

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = protocol
        self._representatives: Dict[Hashable, Any] = {}

    def register(self, state: Any) -> Hashable:
        """Record ``state`` as the representative of its key; return the key."""
        key = self.protocol.state_key(state)
        if key not in self._representatives:
            self._representatives[key] = self.protocol.copy_state(state)
        return key

    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        """Key-level transition implemented on copies of the representatives."""
        protocol = self.protocol
        state_a = protocol.copy_state(self._representatives[key_a])
        state_b = protocol.copy_state(self._representatives[key_b])
        protocol.transition(state_a, state_b, rng)
        return self.register(state_a), self.register(state_b)

    def output_key(self, key: Hashable) -> Any:
        """Output of an agent in the state represented by ``key``."""
        return self.protocol.output(self._representatives[key])

    def knows(self, key: Hashable) -> bool:
        """Whether a representative state exists for ``key``."""
        return key in self._representatives


class Backend(abc.ABC):
    """Execution strategy for the population Markov chain.

    A backend owns the population representation, the interaction counter,
    and the observed-state-space tracker, and advances the chain on behalf
    of :class:`~repro.engine.simulator.Simulator`.  All observers are
    histogram-first: :meth:`state_key_counts` and :meth:`output_counts` are
    cheap for both backends, while per-agent views may be synthesised from
    the histogram (batch) or read off directly (agent).
    """

    name: str = ""
    #: Number of Python-level transition invocations actually executed
    #: (``transition()`` for the agent backend, ``delta_key()`` for the
    #: batch backend; memoised applications do not count).
    transition_calls: int

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        self.protocol: Protocol = simulator.protocol
        self.n: int = simulator.n
        #: Next agent id handed to ``Protocol.initial_state`` when agents
        #: join a running population (ids never repeat within a run).
        self._next_agent_id: int = self.n
        #: Number of population-changing operations (join/leave/restart)
        #: applied so far.
        self.population_changes: int = 0
        self.interactions: int = 0
        #: Set when the configuration has provably reached a fixed point
        #: (no ordered pair of present keys can change it).
        self.terminal: bool = False
        self.state_space = StateSpaceTracker()
        #: Per-run phase timers and runtime event log; folded into
        #: ``SimulationResult.extra["telemetry"]`` by the simulator.
        #: Tracing reads ``perf_counter`` only — never an RNG stream — so
        #: instrumented runs stay stream-identical.
        self.tracer = RunTracer()

    # -------------------------------------------------------------- stepping
    @abc.abstractmethod
    def advance_to(self, target: int) -> None:
        """Advance the chain until ``interactions == target`` or terminal."""

    def skip_to(self, target: int) -> None:
        """Jump the interaction counter forward without simulating.

        Exact only while the configuration provably cannot change (the batch
        backend's :attr:`terminal` state); the simulator uses it to fast-
        forward a terminal configuration to the next timeline event, which
        may then re-activate the population.
        """
        if target < self.interactions:
            raise SimulationError(
                f"cannot skip backwards from {self.interactions} to {target}"
            )
        self.interactions = target

    # ------------------------------------------------- population dynamics
    def fresh_initial_state(self) -> Any:
        """Initial state of a brand-new agent (consumes a never-used id).

        Protocols whose ``initial_state`` depends on the agent id (epidemic
        sources, designated piles) hand fresh agents the "blank" state of a
        late agent — the natural semantics for joiners and reset victims.
        """
        state = self.protocol.initial_state(self._next_agent_id)
        self._next_agent_id += 1
        return state

    @abc.abstractmethod
    def join(self, count: int) -> Dict[str, Any]:
        """Add ``count`` fresh agents (in their protocol initial state).

        New agents receive never-before-used agent ids, so protocols whose
        ``initial_state`` depends on the id (e.g. epidemic sources) hand
        joiners the "blank" state of a late agent.  Returns a JSON-friendly
        record of the change.
        """

    @abc.abstractmethod
    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        """Remove ``count`` uniformly random distinct agents.

        Raises :class:`ConfigurationError` when fewer than ``min_remaining``
        agents would remain (the population model needs two).
        """

    def replace(self, count: int, rng: random.Random) -> Dict[str, Any]:
        """Crash-and-rejoin churn: ``count`` random agents leave, ``count`` join.

        The joiners are fresh agents (initial state, new ids); the population
        size is unchanged.
        """
        left = self.leave(count, rng, min_remaining=0)
        joined = self.join(count)
        return {"replaced": count, "left": left, "joined": joined}

    @abc.abstractmethod
    def restart_population(self) -> Dict[str, Any]:
        """Reset every agent to the initial configuration at the current size.

        This is the recovery action of the paper's hybrid protocols after a
        detected error, applied population-wide: the run continues as a fresh
        execution over the *current* ``n`` (agent ids ``0..n-1``), which is
        what lets the counting protocols re-count after churn.
        """

    def _check_population(self, count: int) -> None:
        if count < 0:
            raise ConfigurationError("population change count must be non-negative")

    # ------------------------------------------------------------- observers
    @abc.abstractmethod
    def state_key_counts(self) -> Counter:
        """Histogram of current state keys (the configuration vector)."""

    @abc.abstractmethod
    def output_counts(self) -> Counter:
        """Histogram of current agent outputs."""

    @abc.abstractmethod
    def outputs(self) -> List[Any]:
        """Per-agent outputs (order is meaningful only for the agent backend)."""

    @abc.abstractmethod
    def convergence_view(self) -> Any:
        """Value handed to convergence predicates.

        The agent backend passes the per-agent output list (full backwards
        compatibility with sequence predicates); the batch backend passes the
        output histogram, which the built-in predicates in
        :mod:`repro.engine.convergence` also accept.
        """

    def state_keys(self) -> List[Hashable]:
        """Current state keys, expanded to one entry per agent."""
        expanded: List[Hashable] = []
        for key, count in self.state_key_counts().items():
            expanded.extend([key] * count)
        return expanded

    @property
    def min_participation(self) -> int:
        """Minimum per-agent participation (0 when not tracked)."""
        return 0


class AgentBackend(Backend):
    """The reference per-agent execution strategy (one object per agent)."""

    name = "agent"

    def __init__(
        self,
        simulator: "Simulator",
        scheduler: "Scheduler",
        scheduler_rng: random.Random,
        agent_rng: random.Random,
        track_state_space: bool = True,
    ) -> None:
        super().__init__(simulator)
        self.scheduler = scheduler
        self._scheduler_rng = scheduler_rng
        self._agent_rng = agent_rng
        self.transition_calls = 0
        self.states: List[Any] = [self.protocol.initial_state(i) for i in range(self.n)]
        self.counter = InteractionCounter(self.n)
        self.track_state_space = track_state_space
        if track_state_space:
            key = self.protocol.state_key
            for state in self.states:
                self.state_space.observe(key(state))

    def step(self) -> Tuple[int, int]:
        """Execute one interaction; return the (initiator, responder) pair."""
        simulator = self.simulator
        tracer = self.tracer
        tic = perf_counter()
        initiator, responder = self.scheduler.next_pair(
            self.n, self._scheduler_rng, self.interactions
        )
        tracer.add("sampling", perf_counter() - tic)
        for hook in simulator.hooks:
            hook.before_interaction(simulator, initiator, responder)
        tic = perf_counter()
        self.protocol.transition(
            self.states[initiator], self.states[responder], self._agent_rng
        )
        tracer.add("transition", perf_counter() - tic)
        self.interactions += 1
        self.transition_calls += 1
        self.counter.record(initiator, responder)
        if self.track_state_space:
            key = self.protocol.state_key
            self.state_space.observe(key(self.states[initiator]))
            self.state_space.observe(key(self.states[responder]))
        for hook in simulator.hooks:
            hook.after_interaction(simulator, initiator, responder)
        return initiator, responder

    def advance_to(self, target: int) -> None:
        while self.interactions < target:
            self.step()

    def state_key_counts(self) -> Counter:
        key = self.protocol.state_key
        return Counter(key(state) for state in self.states)

    def outputs(self) -> List[Any]:
        output = self.protocol.output
        return [output(state) for state in self.states]

    def output_counts(self) -> Counter:
        return Counter(self.outputs())

    def convergence_view(self) -> List[Any]:
        return self.outputs()

    def state_keys(self) -> List[Hashable]:
        key = self.protocol.state_key
        return [key(state) for state in self.states]

    @property
    def min_participation(self) -> int:
        return self.counter.min_participation

    # ------------------------------------------------- population dynamics
    def join(self, count: int) -> Dict[str, Any]:
        self._check_population(count)
        protocol = self.protocol
        for _ in range(count):
            state = self.fresh_initial_state()
            self.states.append(state)
            self.counter.add_agent()
            if self.track_state_space:
                self.state_space.observe(protocol.state_key(state))
        self.n += count
        self.population_changes += 1
        return {"joined": count, "n": self.n}

    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        self._check_population(count)
        if self.n - count < min_remaining:
            raise ConfigurationError(
                f"cannot remove {count} of {self.n} agents; at least "
                f"{min_remaining} must remain"
            )
        # Swap-removal in descending index order keeps pending indices valid;
        # the per-agent participation counters follow the same moves.
        for index in sorted(rng.sample(range(self.n), count), reverse=True):
            self.states[index] = self.states[-1]
            self.states.pop()
            self.counter.remove_agent(index)
        self.n -= count
        self.population_changes += 1
        return {"left": count, "n": self.n}

    def restart_population(self) -> Dict[str, Any]:
        protocol = self.protocol
        self.states = [protocol.initial_state(i) for i in range(self.n)]
        if self.track_state_space:
            key = protocol.state_key
            for state in self.states:
                self.state_space.observe(key(state))
        self.population_changes += 1
        return {"restarted": self.n, "n": self.n}

    # ----------------------------------------------------- failure injection
    def corrupt_agents(
        self,
        victims: int,
        rewrite: Any,
        rng: random.Random,
    ) -> int:
        """Corrupt ``victims`` distinct agents' state objects.

        The agent-level analogue of
        :meth:`BatchBackend.corrupt_histogram`: ``rewrite(state, rng)``
        returns the victim's replacement state (or ``None`` to keep the —
        possibly mutated in place — original object).  Returns the number of
        victims whose state *key* actually changed, matching the batch
        backend's accounting so scenario records compare across backends.
        """
        if victims < 0:
            raise ConfigurationError("victims must be non-negative")
        if victims > self.n:
            raise ConfigurationError(
                f"cannot corrupt {victims} distinct agents in a population of {self.n}"
            )
        key = self.protocol.state_key
        changed = 0
        for index in rng.sample(range(self.n), victims):
            old_key = key(self.states[index])
            new_state = rewrite(self.states[index], rng)
            if new_state is not None:
                self.states[index] = new_state
            new_key = key(self.states[index])
            if new_key != old_key:
                changed += 1
            if self.track_state_space:
                self.state_space.observe(new_key)
        return changed


class BatchBackend(Backend):
    """Batched configuration-vector execution of the population chain.

    The configuration is a histogram ``counts: key -> multiplicity``.  Let
    ``T = n (n - 1)`` be the number of ordered agent pairs and, for each
    ordered key pair ``(a, b)`` that
    :meth:`~repro.engine.protocol.Protocol.can_interaction_change` marks as
    able to change the configuration, let ``w(a, b) = c_a c_b`` (or
    ``c_a (c_a - 1)`` when ``a == b``) be the number of ordered agent pairs
    realising it.  One *event loop iteration* then

    1. draws the number of configuration-preserving interactions preceding
       the next configuration-changing one from ``Geometric(W / T)`` where
       ``W = sum w(a, b)`` — these are skipped in O(1);
    2. picks the active ordered pair type with probability ``w(a, b) / W``;
    3. applies :meth:`~repro.engine.protocol.Protocol.delta_key` once for
       that *type* (memoised per pair type and coin value by
       :class:`~repro.engine.outcomes.OutcomeTable`) and updates the
       histogram.

    Pair-type weights are maintained incrementally: an event changes the
    multiplicities of at most four keys, so only the pair weights involving
    those keys are recomputed (``O(K)`` per event for ``K`` distinct keys,
    instead of ``O(K^2)``).  When ``W == 0`` the configuration is a fixed
    point and the backend reports :attr:`~Backend.terminal`.

    Truncating a geometric skip at an interaction budget or checkpoint
    boundary and re-sampling later is exact by memorylessness.

    Two sampling regimes are used, chosen at construction:

    * **Pruning** — the protocol overrides ``can_interaction_change``, so the
      active-pair weight table above is worth maintaining: skips are long and
      the active pair type is drawn from a pluggable
      :class:`~repro.engine.samplers.WeightedSampler` over the table.
    * **Dense** — the protocol keeps the conservative default, every ordered
      pair is active (``W == T``, no skipping is ever possible), and the
      O(K^2) pair table would be pure overhead.  The two participants' keys
      are instead drawn from a :class:`~repro.engine.samplers.WeightedSampler`
      over the key histogram, which realises the uniform ordered-pair law
      exactly.  This is the regime of the composed counting protocols, whose
      no-op analysis is out of reach of a per-pair predicate.

    The ``sampler`` knob picks the strategy for whichever regime is active
    (see :data:`~repro.engine.samplers.SAMPLER_NAMES`): ``"scan"`` /
    ``"alias"`` / ``"fenwick"`` force one, while ``"auto"`` (default) starts
    on the alias strategy and swaps in the Fenwick tree permanently once the
    alias table *thrashes* — is invalidated faster than it serves draws, the
    signature of a churning pair table (``backup-exact`` at ``n >= 10^4``,
    scenario churn).  The final strategy and its counters are reported by
    :meth:`sampler_stats` (surfaced as ``SimulationResult.extra["sampler"]``).

    The ``accel`` knob selects the hot-loop implementation (see
    :mod:`repro.engine.vectorized`): ``"auto"`` (default) uses the NumPy
    kernels when NumPy is importable *and* the sampler knob was left on
    ``"auto"`` — the dense regime then draws participant pairs
    in vectorised blocks, and the pruning regime replaces the materialised
    pair-weight table (and its O(changed * K) per-event
    :meth:`_update_pair_weights` walk) with the factorised
    ``w(a, b) = c_a * c_b`` row/column-product kernel, whose count updates
    are O(changed).  ``"python"`` forces the pure-Python path unchanged;
    ``"numpy"`` makes the acceleration a hard requirement.  The active path
    is reported by :meth:`accel_info` (surfaced as
    ``SimulationResult.extra["accel"]``); a protocol whose live key set
    outgrows the factorised kernel's activity matrix falls back to the
    Python path mid-run and records the reason there.
    """

    name = "batch"
    #: Dense regime, large n: the collision-free kernel handed over from the
    #: block kernel (see :meth:`_collision_free_ready`); ``None`` otherwise.
    _batch_kernel: Optional[CollisionFreeKernel] = None

    def __init__(
        self,
        simulator: "Simulator",
        scheduler_rng: random.Random,
        agent_rng: random.Random,
        track_state_space: bool = True,
        sampler: str = "auto",
        accel: str = "auto",
    ) -> None:
        super().__init__(simulator)
        protocol = self.protocol
        self._pair_rng = scheduler_rng
        self._agent_rng = agent_rng
        self.track_state_space = track_state_space
        self._lifted: Optional[LiftedKeyTransitions] = None
        if protocol.supports_key_transitions():
            self._delta = protocol.delta_key
            self._output_key = protocol.output_key
            self.counts: Counter = Counter(protocol.initial_key_counts(self.n))
        else:
            lifted = LiftedKeyTransitions(protocol)
            self._lifted = lifted
            self._delta = lifted.delta_key
            self._output_key = lifted.output_key
            counts: Counter = Counter()
            for agent_id in range(self.n):
                counts[lifted.register(protocol.initial_state(agent_id))] += 1
            self.counts = counts
        total = sum(self.counts.values())
        if total != self.n:
            raise SimulationError(
                f"initial key histogram covers {total} agents, expected {self.n}"
            )
        self.counter = AggregateInteractionCounter(self.n)
        if track_state_space:
            for key in self.counts:
                self.state_space.observe(key)
        self._outcomes = OutcomeTable(self._delta, self.n)
        self._can_change_cache: Dict[Tuple[Hashable, Hashable], bool] = {}
        self._output_cache: Dict[Hashable, Any] = {}
        # Two sampling regimes (see class docstring).  A protocol that keeps
        # the conservative default ``can_interaction_change`` marks *every*
        # ordered pair active, so the pair-weight table would cost O(K^2)
        # upkeep for zero skipping; such protocols use the dense regime,
        # which samples the two participants straight from the key histogram.
        self._prunes = (
            type(protocol).can_interaction_change is not Protocol.can_interaction_change
        )
        if sampler not in SAMPLER_NAMES:
            raise ConfigurationError(
                f"unknown sampler {sampler!r}; expected one of {SAMPLER_NAMES}"
            )
        #: Requested strategy knob; ``"auto"`` enables the thrash-driven
        #: alias-to-Fenwick switch.
        self.sampler_mode = sampler
        #: Requested acceleration knob (``accel_active`` is the live path).
        self.accel_mode = accel
        #: Resolved acceleration path: ``"numpy"`` or ``"python"``.  May
        #: flip to ``"python"`` mid-run when a kernel outgrows its capacity
        #: or the dense blocks thrash.
        self.accel_active = resolve_accel(accel, sampler)
        self._accel_fallback: Optional[str] = None
        #: In the pruning regime under ``accel="auto"`` the factorised
        #: kernel only *engages* once the Python alias table thrashes (the
        #: PR-4 churn signal): vectorisation pays off exactly where the
        #: pair table churns and is wide (the backup counting protocols),
        #: and loses on the tiny or static tables where the alias strategy
        #: is unbeatable (epidemic's single active pair, static-table).
        self._accel_pending = False
        #: Stats snapshots of samplers retired by the ``auto`` switch.
        self._retired_samplers: List[Dict[str, Any]] = []
        #: Configuration-changing events actually applied; the complement
        #: of ``interactions`` measures the geometric-skip efficiency.
        self.applied_events: int = 0
        # Pruning regime: sampler over active pair types.  Dense regime:
        # sampler over the key histogram.  Only the active regime's sampler
        # is materialised.
        self._pair_sampler: Optional[WeightedSampler] = None
        self._count_sampler: Optional[WeightedSampler] = None
        # NumPy kernels (accel path); at most one is live, matching the regime.
        self._pair_kernel: Optional[FactorisedPairKernel] = None
        self._dense_kernel: Optional[DenseBlockKernel] = None
        # Active ordered pair types and their integer weights; rebuilt lazily
        # in full once, then maintained incrementally per event.
        self._pair_weights: Dict[Tuple[Hashable, Hashable], int] = {}
        self._active_weight = 0
        if self.accel_active == "numpy":
            if self._prunes and accel != "numpy":
                # accel="auto": arm the kernel, engage on alias thrash.
                self._accel_pending = True
            else:
                try:
                    if self._prunes:
                        self._pair_kernel = FactorisedPairKernel(
                            dict(self.counts),
                            self._can_change,
                            seed=self._kernel_seed(),
                        )
                    else:
                        self._dense_kernel = DenseBlockKernel(
                            dict(self.counts), seed=self._kernel_seed()
                        )
                except AccelCapacityError as error:
                    self._note_fallback(str(error))
        if self._pair_kernel is None and self._dense_kernel is None:
            if self._prunes:
                self._rebuild_pair_weights()
            else:
                self._count_sampler = make_sampler(sampler, self.counts)
            if not self._accel_pending:
                self.accel_active = "python"
        if not self._prunes:
            # An initial configuration may already be the provable fixed
            # point (single key whose self-interaction is a no-op).
            self._check_dense_fixed_point()

    @property
    def transition_calls(self) -> int:
        """``delta_key`` evaluations made by the outcome table."""
        return self._outcomes.calls

    # ------------------------------------------------------------ pair table
    def _can_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        cached = self._can_change_cache.get((key_a, key_b))
        if cached is None:
            cached = bool(self.protocol.can_interaction_change(key_a, key_b))
            self._can_change_cache[(key_a, key_b)] = cached
        return cached

    def _pair_weight(self, key_a: Hashable, key_b: Hashable) -> int:
        count_a = self.counts.get(key_a, 0)
        if key_a == key_b:
            return count_a * (count_a - 1)
        return count_a * self.counts.get(key_b, 0)

    #: Below this many distinct keys a full O(K^2) table rebuild (with lower
    #: constants) beats the O(changed * K) incremental update.
    _REBUILD_THRESHOLD = 16

    def _rebuild_pair_weights(self) -> None:
        """Recompute the full active-pair weight table (O(K^2), inlined hot path)."""
        counts = self.counts
        can_cache = self._can_change_cache
        can_change = self.protocol.can_interaction_change
        pair_weights: Dict[Tuple[Hashable, Hashable], int] = {}
        total = 0
        items = list(counts.items())
        for key_a, count_a in items:
            for key_b, count_b in items:
                if key_a == key_b:
                    weight = count_a * (count_a - 1)
                else:
                    weight = count_a * count_b
                if weight <= 0:
                    continue
                pair = (key_a, key_b)
                changeable = can_cache.get(pair)
                if changeable is None:
                    changeable = bool(can_change(key_a, key_b))
                    can_cache[pair] = changeable
                if changeable:
                    pair_weights[pair] = weight
                    total += weight
        self._pair_weights = pair_weights
        self._active_weight = total
        if self._pair_sampler is None:
            self._pair_sampler = make_sampler(self.sampler_mode, pair_weights)
        else:
            # The auto switch is sticky: a rebuild refreshes whatever
            # strategy is currently active rather than reverting to alias.
            self._pair_sampler.rebuild(pair_weights)

    def _update_pair_weights(self, changed: Tuple[Hashable, ...]) -> None:
        """Refresh pair weights after an event changed the ``changed`` keys.

        Small configurations are rebuilt wholesale (lower constants); larger
        ones are updated incrementally, touching only the O(changed * K)
        ordered pairs that involve a changed key — with the sampler notified
        per changed pair, which is where the Fenwick strategy's O(log P)
        point updates pay off.
        """
        if len(self.counts) <= self._REBUILD_THRESHOLD:
            self._rebuild_pair_weights()
            return
        changed_set = set(changed)
        neighbours = set(self.counts) | changed_set
        pair_weights = self._pair_weights
        sampler = self._pair_sampler
        total = self._active_weight
        for key_d in changed_set:
            for key_x in neighbours:
                pairs = (
                    ((key_d, key_d),)
                    if key_x == key_d
                    else ((key_d, key_x), (key_x, key_d))
                )
                for pair in pairs:
                    old = pair_weights.pop(pair, 0)
                    total -= old
                    weight = self._pair_weight(*pair)
                    if weight > 0 and self._can_change(*pair):
                        pair_weights[pair] = weight
                        total += weight
                        if weight != old:
                            sampler.update(pair, weight)
                    elif old:
                        sampler.update(pair, 0)
        self._active_weight = total

    # -------------------------------------------------------------- stepping
    def advance_to(self, target: int) -> None:
        if self._pair_kernel is not None:
            self._advance_pruning_numpy(target)
            return
        if self._dense_kernel is not None:
            self._advance_dense_numpy(target)
            return
        if self._batch_kernel is not None:
            self._advance_collision_free(target)
            return
        ordered_pairs = self.n * (self.n - 1)
        log = math.log
        log1p = math.log1p
        pair_rng = self._pair_rng
        prunes = self._prunes
        while self.interactions < target and not self.terminal:
            if self._accel_pending:
                sampler = self._pair_sampler
                if isinstance(sampler, AliasSampler) and sampler.thrashing:
                    self._engage_pair_kernel()
                    if self._pair_kernel is not None:
                        self._advance_pruning_numpy(target)
                        return
            weight = self._active_weight if prunes else ordered_pairs
            if weight <= 0:
                self.terminal = True
                break
            if weight >= ordered_pairs:
                skip = 0
            else:
                # Number of configuration-preserving interactions before the
                # next configuration-changing one: Geometric(p), p = W / T.
                uniform = 1.0 - pair_rng.random()  # in (0, 1]
                if uniform >= 1.0:
                    skip = 0
                else:
                    skip = int(log(uniform) / log1p(-weight / ordered_pairs))
            remaining = target - self.interactions
            if skip >= remaining:
                # The whole window is configuration-preserving; the pending
                # active event is re-sampled next call (memorylessness).
                self.interactions = target
                break
            self.interactions += skip + 1
            self._apply_event()
        self.counter.total = self.interactions

    def _retire_sampler(
        self, stats: Dict[str, Any], regime: str, retired_by: str
    ) -> None:
        """Snapshot a sampler/kernel being replaced mid-run.

        Every retirement — thrash swap, accel engagement, accel fallback —
        funnels through here, so no replacement path can drop the counters
        that triggered it (the bug when ``auto`` swapped twice in one run),
        and each snapshot is stamped with why and when it was retired.
        """
        stats["regime"] = regime
        stats["retired_by"] = retired_by
        stats["retired_at"] = self.interactions
        self._retired_samplers.append(stats)
        self.tracer.note_event(
            "sampler-retired",
            at=self.interactions,
            strategy=stats.get("strategy", stats.get("kernel")),
            regime=regime,
            reason=retired_by,
        )

    def _maybe_switch_on_thrash(
        self, sampler: WeightedSampler, weights: Dict[Any, int], regime: str
    ) -> WeightedSampler:
        """Swap a thrashing alias sampler for a Fenwick tree (``auto`` only).

        The alias strategy reports :attr:`~repro.engine.samplers.AliasSampler.
        thrashing` once tables stop amortising (churn on nearly every draw);
        under the ``auto`` knob that is the signal to move to O(log P) point
        updates permanently.  The retired sampler's counters are kept for
        :meth:`sampler_stats`.
        """
        if (
            self.sampler_mode == "auto"
            and isinstance(sampler, AliasSampler)
            and sampler.thrashing
        ):
            self._retire_sampler(sampler.stats(), regime, "thrash")
            self.tracer.note_event(
                "sampler-swap",
                at=self.interactions,
                regime=regime,
                **{"from": "alias", "to": "fenwick"},
            )
            sampler = FenwickSampler(weights)
            if regime == "pruning":
                self._pair_sampler = sampler
            else:
                self._count_sampler = sampler
        return sampler

    def _sample_pair_type(self) -> Tuple[Hashable, Hashable]:
        """Sample one active ordered pair type (pruning regime)."""
        sampler = self._maybe_switch_on_thrash(
            self._pair_sampler, self._pair_weights, "pruning"
        )
        return sampler.sample(self._pair_rng)

    def _sample_dense_pair(self) -> Tuple[Hashable, Hashable]:
        """Sample the ordered key pair of a uniform interaction (dense regime).

        Exactly the uniform law over ordered pairs of distinct agents read at
        key level: the initiator's key is drawn with probability ``c_a / n``
        and the responder's with ``(c_b - [a = b]) / (n - 1)``, implemented
        by rejection against the plain ``c_b / n`` proposal.
        """
        counts = self.counts
        if len(counts) == 1:
            key = next(iter(counts))
            return key, key
        sampler = self._maybe_switch_on_thrash(
            self._count_sampler, counts, "dense"
        )
        rng = self._pair_rng
        key_a = sampler.sample(rng)
        count_a = counts[key_a]
        while True:
            key_b = sampler.sample(rng)
            if key_b != key_a:
                return key_a, key_b
            # Same key drawn: one of its count_a agents is the initiator, so
            # accept with probability (count_a - 1) / count_a.
            if count_a > 1 and rng.random() * count_a < count_a - 1:
                return key_a, key_b

    def _apply_transition(
        self, key_a: Hashable, key_b: Hashable
    ) -> Tuple[Hashable, Hashable, Tuple[Hashable, ...]]:
        """Apply one pair type's transition to the histogram.

        Shared by the Python and NumPy event loops: looks the outcome up in
        the outcome table (which consumes the run's ``rng`` exactly as
        ``delta_key`` would), updates the histogram and the state-space
        tracker when the configuration changed, and returns
        ``(new_a, new_b, changed)`` where ``changed`` is the (possibly
        overlapping) 4-tuple of touched keys, or ``()`` when the interaction
        was configuration-preserving.  Weight-structure maintenance is the
        caller's job — it differs per path.
        """
        new_a, new_b = self._outcomes.apply(key_a, key_b, self._agent_rng)
        if (new_a == key_a and new_b == key_b) or (
            new_a == key_b and new_b == key_a
        ):
            return new_a, new_b, ()
        counts = self.counts
        counts[key_a] -= 1
        counts[key_b] -= 1
        counts[new_a] += 1
        counts[new_b] += 1
        for key in (key_a, key_b):
            if counts.get(key) == 0:
                del counts[key]
        if self.track_state_space:
            self.state_space.observe(new_a)
            self.state_space.observe(new_b)
        return new_a, new_b, (key_a, key_b, new_a, new_b)

    def _apply_event(self) -> None:
        """Sample one interaction's pair type and apply its transition.

        In the pruning regime "active" means :meth:`can_interaction_change`
        could not rule out a configuration change; in the dense regime every
        pair is active, so the applied transition may turn out to be a no-op
        either way.
        """
        tracer = self.tracer
        tic = perf_counter()
        if self._prunes:
            key_a, key_b = self._sample_pair_type()
        else:
            key_a, key_b = self._sample_dense_pair()
        toc = perf_counter()
        tracer.add("sampling", toc - tic)
        new_a, new_b, changed = self._apply_transition(key_a, key_b)
        tic = perf_counter()
        tracer.add("transition", tic - toc)
        self.applied_events += 1
        if changed:
            if self._prunes:
                self._update_pair_weights(changed)
            else:
                sampler = self._count_sampler
                counts = self.counts
                for key in changed:
                    sampler.update(key, counts.get(key, 0))
                self._check_dense_fixed_point()
            tracer.add("pair_weights", perf_counter() - tic)
        simulator = self.simulator
        if simulator.hooks:
            for hook in simulator.hooks:
                hook.on_batch_event(simulator, key_a, key_b, new_a, new_b)

    # --------------------------------------------------- NumPy event loops
    def _kernel_seed(self) -> int:
        """Seed for a kernel's dedicated NumPy generator.

        Drawn from the run's scheduler stream at the moment a kernel is
        built — never on the pure-Python path, so ``accel="python"`` runs
        stay stream-identical to earlier releases.
        """
        return self._pair_rng.getrandbits(64)

    def _note_fallback(self, reason: str) -> None:
        self._accel_fallback = reason
        self._accel_pending = False
        self.accel_active = "python"
        self.tracer.note_event("accel-fallback", at=self.interactions, reason=reason)

    def _engage_pair_kernel(self) -> None:
        """Swap the thrashing Python pair structures for the NumPy kernel.

        The ``accel="auto"`` engagement point: the alias table reported
        thrash, so the pair table is churning — the exact workload where
        the factorised kernel's O(changed) updates beat the O(changed * K)
        Python walk.  The retired Python sampler's counters are kept for
        :meth:`sampler_stats`, mirroring the alias-to-Fenwick switch.
        """
        self._accel_pending = False
        try:
            kernel = FactorisedPairKernel(
                dict(self.counts), self._can_change, seed=self._kernel_seed()
            )
        except AccelCapacityError as error:
            self._note_fallback(str(error))
            return
        if self._pair_sampler is not None:
            self._retire_sampler(self._pair_sampler.stats(), "pruning", "accel-engage")
        self.tracer.note_event(
            "accel-engage", at=self.interactions, kernel="factorised-pair"
        )
        self._pair_kernel = kernel
        self._pair_sampler = None
        self._pair_weights = {}
        self._active_weight = 0

    def _fallback_to_python(self, reason: str) -> None:
        """Abandon the NumPy kernels mid-run and rebuild the Python path.

        Triggered when a kernel outgrows its capacity (an activity matrix
        wider than :attr:`~repro.engine.vectorized.FactorisedPairKernel.
        MATRIX_LIMIT` keys).  The configuration histogram is the source of
        truth, so rebuilding the Python sampling structures from it is
        exact; the reason is surfaced via :meth:`accel_info` and the
        retired kernel's counters are kept in the sampler record (the
        counters that *triggered* the fallback would otherwise vanish from
        the result).
        """
        retired_kernel = self._pair_kernel or self._dense_kernel or self._batch_kernel
        if retired_kernel is not None:
            self._retire_sampler(
                retired_kernel.stats(),
                "pruning" if self._prunes else "dense",
                "accel-fallback",
            )
        self._pair_kernel = None
        self._dense_kernel = None
        self._batch_kernel = None
        self._note_fallback(reason)
        if self._prunes:
            self._rebuild_pair_weights()
        else:
            # A live histogram sampler would be silently replaced here —
            # retire its counters first so no swap chain can drop them.
            if self._count_sampler is not None:
                self._retire_sampler(
                    self._count_sampler.stats(), "dense", "accel-fallback"
                )
            self._count_sampler = make_sampler(self.sampler_mode, self.counts)

    def _advance_pruning_numpy(self, target: int) -> None:
        """Pruning-regime event loop over the factorised pair kernel."""
        kernel = self._pair_kernel
        simulator = self.simulator
        counts = self.counts
        tracer = self.tracer
        while self.interactions < target and not self.terminal:
            weight = kernel.active_weight()
            if weight <= 0:
                self.terminal = True
                break
            ordered_pairs = self.n * (self.n - 1)
            tic = perf_counter()
            skip = (
                0 if weight >= ordered_pairs else kernel.next_skip(ordered_pairs)
            )
            remaining = target - self.interactions
            if skip >= remaining:
                # The whole window is configuration-preserving; the
                # pending active event is re-sampled next call
                # (memorylessness).
                tracer.add("sampling", perf_counter() - tic, ops=0)
                self.interactions = target
                break
            self.interactions += skip + 1
            key_a, key_b = kernel.next_pair()
            toc = perf_counter()
            tracer.add("sampling", toc - tic)
            new_a, new_b, changed = self._apply_transition(key_a, key_b)
            tic = perf_counter()
            tracer.add("transition", tic - toc)
            self.applied_events += 1
            overflow: Optional[AccelCapacityError] = None
            if changed:
                try:
                    for key in changed:
                        kernel.set_count(key, counts.get(key, 0))
                except AccelCapacityError as error:
                    # The event is already applied to the histogram; note
                    # the overflow but fire this event's hooks first so
                    # hook-based trackers never undercount.
                    overflow = error
                tracer.add("pair_weights", perf_counter() - tic)
            if simulator.hooks:
                for hook in simulator.hooks:
                    hook.on_batch_event(simulator, key_a, key_b, new_a, new_b)
            if overflow is not None:
                self._fallback_to_python(str(overflow))
                self.counter.total = self.interactions
                self.advance_to(target)
                return
        self.counter.total = self.interactions

    def _advance_dense_numpy(self, target: int) -> None:
        """Dense-regime event loop over blocked histogram pair draws.

        When the kernel reports
        :attr:`~repro.engine.vectorized.DenseBlockKernel.thrashing` — a
        configuration that changes on nearly every interaction invalidates
        every block after one event, so the vectorised draws cost more than
        the per-event sampler they replace — the run moves on to the
        collision-free kernel when :meth:`_collision_free_ready` allows it,
        and falls back to the Python sampler path otherwise.
        """
        kernel = self._dense_kernel
        simulator = self.simulator
        counts = self.counts
        while self.interactions < target and not self.terminal:
            if kernel.thrashing:
                self.counter.total = self.interactions
                if self._collision_free_ready():
                    self._engage_collision_free()
                    self._advance_collision_free(target)
                    return
                self._fallback_to_python(
                    "dense block draws thrashed (the histogram changes on "
                    "nearly every interaction)"
                )
                self.advance_to(target)
                return
            tracer = self.tracer
            tic = perf_counter()
            if len(counts) == 1:
                key = next(iter(counts))
                key_a = key_b = key
            else:
                key_a, key_b = kernel.next_pair()
            toc = perf_counter()
            tracer.add("sampling", toc - tic)
            self.interactions += 1
            new_a, new_b, changed = self._apply_transition(key_a, key_b)
            tic = perf_counter()
            tracer.add("transition", tic - toc)
            self.applied_events += 1
            if changed:
                for key in changed:
                    kernel.set_count(key, counts.get(key, 0))
                self._check_dense_fixed_point()
                tracer.add("pair_weights", perf_counter() - tic)
            if simulator.hooks:
                for hook in simulator.hooks:
                    hook.on_batch_event(simulator, key_a, key_b, new_a, new_b)
        self.counter.total = self.interactions

    # ------------------------------------------------- collision-free runs
    def _collision_free_ready(self) -> bool:
        """The engagement rule of the collision-free kernel.

        All of: no hooks (they observe single events, which a batch does
        not produce), every pair type so far memoisable (a batch applies
        outcomes per pair type), and a mean collision-free run of at least
        :attr:`~repro.engine.vectorized.CollisionFreeKernel.MIN_EXPECTED_RUN`
        interactions.  A deterministic function of ``n`` and the run's pair
        types, never of timing, so replays take the same path.
        """
        return (
            not self.simulator.hooks
            and self._outcomes.memoisable
            and expected_run_length(self.n) >= CollisionFreeKernel.MIN_EXPECTED_RUN
        )

    def _engage_collision_free(self) -> None:
        """Replace the thrashing block kernel by the collision-free kernel.

        The kernel continues on the block kernel's generator, so the run's
        scheduler stream is not touched.
        """
        dense = self._dense_kernel
        self._retire_sampler(dense.stats(), "dense", "collision-free")
        self.tracer.note_event(
            "accel-engage", at=self.interactions, kernel="collision-free"
        )
        self._batch_kernel = CollisionFreeKernel(
            self._outcomes,
            dense.generator,
            self._agent_rng,
            observe=self.state_space.observe if self.track_state_space else None,
        )
        self._dense_kernel = None

    def _advance_collision_free(self, target: int) -> None:
        """Dense-regime loop over collision-free runs (no per-event hooks)."""
        kernel = self._batch_kernel
        if not self._collision_free_ready():
            self._fallback_to_python(
                "the collision-free kernel's engagement rule no longer holds "
                "(hooks, a non-memoisable pair type, or a smaller population)"
            )
            self.advance_to(target)
            return
        counts = self.counts
        n = self.n
        tracer = self.tracer
        try:
            kernel.load(counts)
        except AccelCapacityError as error:
            # The kernel refused the histogram untouched, so it is still the
            # run's configuration.
            self._fallback_to_python(str(error))
            self.advance_to(target)
            return
        try:
            while self.interactions < target and not self.terminal:
                done = kernel.step(n, target - self.interactions, tracer)
                self.interactions += done
                self.applied_events += done
                if not kernel.memoisable:
                    break
                if kernel.live_keys() == 1:
                    kernel.store(counts)
                    self._check_dense_fixed_point()
        except AccelCapacityError as error:
            kernel.store(counts)
            self.counter.total = self.interactions
            self._fallback_to_python(str(error))
            self.advance_to(target)
            return
        kernel.store(counts)
        self.counter.total = self.interactions
        if self.interactions < target and not self.terminal:
            # A pair type turned out non-memoisable mid-batch: the batch was
            # still exact (it evaluated that type one interaction at a
            # time); the rest of the run goes back to the sequential path.
            self.advance_to(target)

    def _check_dense_fixed_point(self) -> None:
        """Detect the one provable fixed point available without pruning.

        With a conservative ``can_interaction_change`` the dense regime has
        no pair-weight table to drain to zero, but when the whole population
        sits in a single key whose self-interaction leaves both agents there
        (for either coin), the configuration provably never changes again.
        The outcome table answers by probing, which consumes no run
        randomness.
        """
        if len(self.counts) != 1:
            return
        if self._outcomes.fixed_point(next(iter(self.counts))):
            self.terminal = True

    # ------------------------------------------------- population dynamics
    def register_state(self, state: Any) -> Hashable:
        """Key of ``state``, registering a lifted representative when needed.

        Keys produced outside the simulated chain (joining agents, fault
        rewrites) must pass through here so the key-lifting adapter learns a
        representative before the key first participates in a transition.
        """
        if self._lifted is not None:
            return self._lifted.register(state)
        return self.protocol.state_key(state)

    def _population_changed(
        self, changed: Tuple[Hashable, ...] = (), full_rebuild: bool = False
    ) -> None:
        """Invalidate the sampling structures after the histogram changed.

        Pair weights are refreshed incrementally — ``O(changed * K)`` for
        ``K`` distinct keys — rather than rebuilt from scratch, so repeated
        churn on wide histograms stays cheap; ``full_rebuild`` covers
        wholesale edits (population restarts) where no small changed-key set
        exists.
        """
        self.counter.n = self.n
        self.terminal = False
        self.population_changes += 1
        if self._pair_kernel is not None:
            kernel = self._pair_kernel
            counts = self.counts
            try:
                if full_rebuild:
                    kernel.resync(counts)
                else:
                    for key in changed:
                        kernel.set_count(key, counts.get(key, 0))
            except AccelCapacityError as error:
                self._fallback_to_python(str(error))
                if self._active_weight <= 0:
                    self.terminal = True
                return
            if kernel.active_weight() <= 0:
                # Churn may land on an already-stable configuration.
                self.terminal = True
        elif self._dense_kernel is not None:
            kernel = self._dense_kernel
            if full_rebuild:
                kernel.rebuild(self.counts)
            else:
                counts = self.counts
                for key in changed:
                    kernel.set_count(key, counts.get(key, 0))
            self._check_dense_fixed_point()
        elif self._batch_kernel is not None:
            # The kernel reloads the histogram at every advance_to.
            self._check_dense_fixed_point()
        elif self._prunes:
            if full_rebuild:
                self._rebuild_pair_weights()
            else:
                self._update_pair_weights(changed)
            if self._active_weight <= 0:
                # Churn may land on an already-stable configuration.
                self.terminal = True
        else:
            if full_rebuild or len(changed) * 4 >= len(self.counts):
                self._count_sampler.rebuild(self.counts)
            else:
                sampler = self._count_sampler
                counts = self.counts
                for key in changed:
                    sampler.update(key, counts.get(key, 0))
            self._check_dense_fixed_point()

    def _sample_victim_keys(self, victims: int, rng: random.Random) -> List[Hashable]:
        """Keys of ``victims`` distinct agents drawn uniformly at random.

        Victim tickets index agents in an arbitrary but fixed key order and
        are resolved against the current histogram in one cumulative pass —
        exchangeability of the uniform choice makes the order irrelevant.
        """
        if victims < 0:
            raise ConfigurationError("victims must be non-negative")
        if victims > self.n:
            raise ConfigurationError(
                f"cannot draw {victims} distinct agents from a population of {self.n}"
            )
        tickets = sorted(rng.sample(range(self.n), victims))
        victim_keys: List[Hashable] = []
        cumulative = 0
        ticket_index = 0
        for key, count in self.counts.items():
            cumulative += count
            while ticket_index < len(tickets) and tickets[ticket_index] < cumulative:
                victim_keys.append(key)
                ticket_index += 1
            if ticket_index == len(tickets):
                break
        return victim_keys

    def join(self, count: int) -> Dict[str, Any]:
        self._check_population(count)
        counts = self.counts
        changed: set = set()
        for _ in range(count):
            key = self.register_state(self.fresh_initial_state())
            counts[key] += 1
            changed.add(key)
            if self.track_state_space:
                self.state_space.observe(key)
        self.n += count
        self._population_changed(tuple(changed))
        return {"joined": count, "n": self.n}

    def leave(self, count: int, rng: random.Random, min_remaining: int = 2) -> Dict[str, Any]:
        self._check_population(count)
        if self.n - count < min_remaining:
            raise ConfigurationError(
                f"cannot remove {count} of {self.n} agents; at least "
                f"{min_remaining} must remain"
            )
        counts = self.counts
        changed: set = set()
        for key in self._sample_victim_keys(count, rng):
            counts[key] -= 1
            if not counts[key]:
                del counts[key]
            changed.add(key)
        self.n -= count
        self._population_changed(tuple(changed))
        return {"left": count, "n": self.n}

    def restart_population(self) -> Dict[str, Any]:
        protocol = self.protocol
        if self._lifted is not None:
            counts: Counter = Counter()
            for agent_id in range(self.n):
                counts[self._lifted.register(protocol.initial_state(agent_id))] += 1
            self.counts = counts
        else:
            self.counts = Counter(protocol.initial_key_counts(self.n))
        if self.track_state_space:
            for key in self.counts:
                self.state_space.observe(key)
        self._population_changed(full_rebuild=True)
        return {"restarted": self.n, "n": self.n}

    def skip_to(self, target: int) -> None:
        super().skip_to(target)
        self.counter.total = self.interactions

    # ----------------------------------------------------- failure injection
    def corrupt_histogram(
        self,
        victims: int,
        rewrite: Any,
        rng: random.Random,
    ) -> int:
        """Corrupt ``victims`` *distinct* agents drawn uniformly at random.

        The batch-mode analogue of mutating agent states in place: the
        victims are chosen without replacement over the population (exactly
        the agent-mode ``rng.sample`` fault model, marginalised to keys),
        each victim's key is removed from the histogram and replaced by
        ``rewrite(key, rng)``.  The sampling structures are rebuilt
        afterwards.  Returns the number of agents whose key actually
        changed.
        """
        counts = self.counts
        victim_keys = self._sample_victim_keys(victims, rng)
        changed = 0
        for key in victim_keys:
            new_key = rewrite(key, rng)
            if new_key == key:
                continue
            if self._lifted is not None and not self._lifted.knows(new_key):
                # The lifted adapter can only simulate keys it has seen a
                # representative state for; an unseen key would crash the
                # next transition with an opaque KeyError.
                raise SimulationError(
                    f"key-level corruption produced {new_key!r}, which the "
                    "key-lifting adapter has no representative state for; "
                    "rewrite only to already-observed keys or implement the "
                    "native key API on the protocol"
                )
            counts[key] -= 1
            if not counts[key]:
                del counts[key]
            counts[new_key] += 1
            if self.track_state_space:
                self.state_space.observe(new_key)
            changed += 1
        if changed:
            if self._pair_kernel is not None:
                try:
                    self._pair_kernel.resync(counts)
                except AccelCapacityError as error:
                    self._fallback_to_python(str(error))
            elif self._dense_kernel is not None:
                self._dense_kernel.rebuild(counts)
            elif self._batch_kernel is not None:
                pass  # reloaded from the histogram at every advance_to
            elif self._prunes:
                self._rebuild_pair_weights()
            else:
                self._count_sampler.rebuild(counts)
            self.terminal = False
        return changed

    # ------------------------------------------------------------- observers
    def sampler_stats(self) -> Dict[str, Any]:
        """JSON-friendly record of the sampling strategy this run ended on.

        Includes the requested knob, the regime, the active strategy's
        counters, and (after an ``auto`` switch) the retired samplers'
        counters — the hook the regression tests use to pin the switching
        heuristic.
        """
        record: Dict[str, Any] = {
            "requested": self.sampler_mode,
            "regime": "pruning" if self._prunes else "dense",
            "switched": bool(self._retired_samplers),
        }
        if self._pair_kernel is not None:
            record["strategy"] = "factorised"
            record.update(self._pair_kernel.stats())
        elif self._dense_kernel is not None:
            record["strategy"] = "vector"
            record.update(self._dense_kernel.stats())
        elif self._batch_kernel is not None:
            record["strategy"] = "collision-free"
            record.update(self._batch_kernel.stats())
        else:
            sampler = self._pair_sampler if self._prunes else self._count_sampler
            if sampler is not None:
                record.update(sampler.stats())
        if self._retired_samplers:
            record["retired"] = list(self._retired_samplers)
        return record

    def accel_info(self) -> Dict[str, Any]:
        """JSON-friendly record of the acceleration path this run is on.

        ``active`` reflects the live hot loop (it flips to ``"python"``
        after a mid-run capacity fallback); the CI matrix's guard test pins
        it against the leg's intent so the two legs can never silently test
        the same code.
        """
        record: Dict[str, Any] = {
            "requested": self.accel_mode,
            "active": self.accel_active,
            "numpy_available": numpy_available(),
            # Whether a NumPy kernel is driving the hot loop right now.
            # Under accel="auto" the pruning kernel only engages once the
            # alias table thrashes, so active="numpy" with engaged=False
            # means "armed, but the Python path is still the better tool
            # for this table" (tiny or static pair tables).
            "engaged": self._pair_kernel is not None
            or self._dense_kernel is not None
            or self._batch_kernel is not None,
        }
        if self._batch_kernel is not None:
            record["kernel"] = "collision-free"
        if self._accel_fallback is not None:
            record["fallback_reason"] = self._accel_fallback
        return record

    def state_key_counts(self) -> Counter:
        return Counter(self.counts)

    def output_counts(self) -> Counter:
        output_counts: Counter = Counter()
        cache = self._output_cache
        for key, count in self.counts.items():
            output = cache.get(key, cache)
            if output is cache:  # sentinel: not yet computed
                output = self._output_key(key)
                cache[key] = output
            output_counts[output] += count
        return output_counts

    def outputs(self) -> List[Any]:
        expanded: List[Any] = []
        for output, count in self.output_counts().items():
            expanded.extend([output] * count)
        return expanded

    def convergence_view(self) -> Counter:
        return self.output_counts()
