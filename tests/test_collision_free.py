"""Tests for the coin-keyed outcome table and the collision-free batch kernel.

Three kinds of evidence:

* **Stream identity.**  The batch backend's sequential path looks outcomes
  up in :class:`~repro.engine.outcomes.OutcomeTable`; with the table
  replaced by direct ``delta_key`` calls every registry protocol must give
  the same interactions and key histograms, seed for seed.
* **Exact law.**  :class:`~repro.engine.vectorized.CollisionFreeKernel`,
  driven directly on tiny dense protocols (one deterministic, one driven by
  a synthetic coin), must reproduce the configuration distribution after
  ``t`` interactions that enumerating the configuration chain gives.
* **Agreement with the sequential path** (KS) for the paper's counting
  protocols at n = 2000 after a fixed budget.
"""

import math
import random
from collections import Counter

import pytest

from repro.engine import Simulator
from repro.engine.outcomes import NOT_MEMOISABLE, OutcomeTable
from repro.engine.protocol import Protocol
from repro.engine.stats import chi_square_gof, ks_pvalue, ks_statistic
from repro.engine.vectorized import (
    AccelCapacityError,
    CollisionFreeKernel,
    RunLengthLaw,
    expected_run_length,
    numpy_available,
)
from repro.experiments.registry import protocol_names, resolve_protocol
from repro.primitives.synthetic_coin import flip

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy unavailable (or vetoed by REPRO_NO_NUMPY)"
)

#: Generous significance threshold (see tests/test_samplers.py).
ALPHA = 1e-3


class _KeyProtocol(Protocol):
    """Dense-regime fixture over integer keys ``0 .. states - 1``."""

    def __init__(self, states=3, initial=None):
        self.states = states
        self.initial = initial

    def rule(self, key_a, key_b, coin):
        raise NotImplementedError

    def draws_coin(self, key_a, key_b):
        return False

    def initial_state(self, agent_id):
        return agent_id % self.states

    def transition(self, initiator, responder, rng):
        raise NotImplementedError("key-level fixture")

    def output(self, state):
        return state

    def state_key(self, state):
        return state

    def delta_key(self, key_a, key_b, rng):
        coin = flip(rng) if self.draws_coin(key_a, key_b) else 0
        return self.rule(key_a, key_b, coin)

    def output_key(self, key):
        return key

    def initial_key_counts(self, n):
        if self.initial is not None:
            return Counter(self.initial)
        return Counter(agent_id % self.states for agent_id in range(n))


class _Deterministic(_KeyProtocol):
    name = "cf-deterministic"

    def rule(self, key_a, key_b, coin):
        return (key_a + key_b) % self.states, (key_b + 1) % self.states


class _CoinDriven(_KeyProtocol):
    name = "cf-coin"

    def draws_coin(self, key_a, key_b):
        return key_a != key_b

    def rule(self, key_a, key_b, coin):
        if key_a == key_b:
            return key_a, (key_b + 1) % self.states
        if coin:
            return (key_a + 1) % self.states, key_b
        return key_a, (key_b + 2) % self.states


# --------------------------------------------------------------------------
# Outcome table
# --------------------------------------------------------------------------


def test_table_hits_draw_the_same_coin_the_transition_would():
    protocol = _CoinDriven()
    table = OutcomeTable(protocol.delta_key, 8)
    table_rng, direct_rng = random.Random(7), random.Random(7)
    pairs = [(a, b) for a in range(3) for b in range(3)] * 40
    random.Random(1).shuffle(pairs)
    for key_a, key_b in pairs:
        assert table.apply(key_a, key_b, table_rng) == protocol.delta_key(
            key_a, key_b, direct_rng
        )
    assert table_rng.getstate() == direct_rng.getstate()
    # One evaluation per (pair type, coin value) at most.
    assert table.calls <= 3 + 6 * 2
    assert table.memoisable
    assert table.lookup(0, 1) == [protocol.rule(0, 1, 0), protocol.rule(0, 1, 1)]
    assert table.lookup(1, 1) == protocol.rule(1, 1, 0)


class _SecondCoinOnHeads(_KeyProtocol):
    """A transition that draws a second coin after heads: not memoisable."""

    name = "cf-second-coin"

    def delta_key(self, key_a, key_b, rng):
        if flip(rng):
            return (key_a + flip(rng)) % 3, key_b
        return key_a, key_b


class _UsesRandom(_KeyProtocol):
    name = "cf-random"

    def delta_key(self, key_a, key_b, rng):
        return (key_a + int(rng.random() * 3)) % 3, key_b


@pytest.mark.parametrize("protocol", [_SecondCoinOnHeads(), _UsesRandom()])
def test_other_rng_use_is_marked_and_stays_stream_identical(protocol):
    table = OutcomeTable(protocol.delta_key, 8)
    table_rng, direct_rng = random.Random(3), random.Random(3)
    for _ in range(200):
        assert table.apply(0, 1, table_rng) == protocol.delta_key(0, 1, direct_rng)
    assert table_rng.getstate() == direct_rng.getstate()
    assert not table.memoisable
    assert table.lookup(0, 1) is NOT_MEMOISABLE


def test_table_stops_memoising_when_pairs_never_repeat():
    protocol = _CoinDriven(states=10**6)
    # 20 agents form at most 400 pair types at once; past that many entries
    # a table that still misses sees keys drift.
    table = OutcomeTable(protocol.delta_key, 20)
    table_rng, direct_rng = random.Random(9), random.Random(9)
    for key in range(1_000):
        assert table.apply(key, key + 1, table_rng) == protocol.delta_key(
            key, key + 1, direct_rng
        )
    assert table.bypass and len(table) == 0
    assert table.calls == 1_000
    assert table_rng.getstate() == direct_rng.getstate()
    # Repeating pairs keep the table on.
    repeating = OutcomeTable(protocol.delta_key, 20)
    for key in range(1_000):
        repeating.apply(key % 3, key % 5, table_rng)
    assert not repeating.bypass and repeating.calls <= 2 * 15


def test_table_keeps_memoising_while_a_large_pair_set_fills():
    # 40 keys form 1,600 pair types: the first review windows see mostly
    # misses, yet every pair type repeats, so the table must stay on.
    protocol = _Deterministic(states=40)
    table = OutcomeTable(protocol.delta_key, 2_000)
    rng, pairs = random.Random(4), random.Random(5)
    for _ in range(50_000):
        table.apply(pairs.randrange(40), pairs.randrange(40), rng)
    assert not table.bypass
    assert table.calls == len(table) == 1_600


def test_table_is_bounded():
    table = OutcomeTable(_Deterministic(states=50).delta_key, 2_000)
    table.CAPACITY = 64
    rng = random.Random(0)
    for key_a in range(50):
        for key_b in range(50):
            for _ in range(3):
                table.apply(key_a, key_b, rng)
            assert len(table) <= 64
    assert table.resets > 0 and not table.bypass


def test_fixed_point_probe_consumes_no_run_randomness():
    class _Frozen(_KeyProtocol):
        name = "cf-frozen"

        def delta_key(self, key_a, key_b, rng):
            flip(rng)
            return key_a, key_b

    simulator = Simulator(_Frozen(initial={0: 10}), 10, seed=5, backend="batch")
    state = simulator._agent_rng.getstate()
    assert simulator.backend.terminal
    assert simulator._agent_rng.getstate() == state
    result = simulator.run(max_interactions=1_000)
    assert result.stopped_reason == "terminal"


def _run_registry(name, n, seed, accel):
    entry = resolve_protocol(name)
    simulator = Simulator(entry.build(n, {}), n, seed=seed, backend="batch", accel=accel)
    result = simulator.run(
        max_interactions=40 * n,
        convergence=entry.convergence(n, {}),
        check_interval=n,
        confirm_checks=3,
    )
    return result.interactions, result.stopped_reason, simulator.backend.state_key_counts()


@pytest.mark.parametrize("accel", ["python", "auto"])
@pytest.mark.parametrize("name", protocol_names())
def test_table_is_stream_identical_to_direct_delta_key(name, accel, monkeypatch):
    n = 24
    with_table = [_run_registry(name, n, seed, accel) for seed in range(2)]
    monkeypatch.setattr(
        OutcomeTable, "apply", lambda self, a, b, rng: self.evaluate(a, b, rng)
    )
    direct = [_run_registry(name, n, seed, accel) for seed in range(2)]
    assert with_table == direct


# --------------------------------------------------------------------------
# Collision-free kernel: exact law
# --------------------------------------------------------------------------


def _exact_law(protocol, initial, n, steps):
    """Configuration distribution after ``steps`` uniform interactions."""
    law = {tuple(sorted(initial.items())): 1.0}
    ordered = n * (n - 1)
    for _ in range(steps):
        following = Counter()
        for config, probability in law.items():
            counts = dict(config)
            for key_a, count_a in counts.items():
                for key_b, count_b in counts.items():
                    weight = count_a * (count_a - 1) if key_a == key_b else count_a * count_b
                    if not weight:
                        continue
                    coins = (0, 1) if protocol.draws_coin(key_a, key_b) else (0,)
                    for coin in coins:
                        new_a, new_b = protocol.rule(key_a, key_b, coin)
                        after = Counter(counts)
                        after[key_a] -= 1
                        after[key_b] -= 1
                        after[new_a] += 1
                        after[new_b] += 1
                        key = tuple(sorted((k, v) for k, v in after.items() if v))
                        following[key] += probability * weight / ordered / len(coins)
        law = following
    return law


def _pooled_gof(observed, expected, draws, minimum=5.0):
    """Chi-square p-value with expected counts below ``minimum`` pooled."""
    pooled_observed, pooled_expected = Counter(), {}
    for config, probability in expected.items():
        label = config if probability * draws >= minimum else "rest"
        pooled_expected[label] = pooled_expected.get(label, 0.0) + probability
        pooled_observed[label] += observed.get(config, 0)
    assert not set(observed) - set(expected), "kernel reached an impossible configuration"
    return chi_square_gof(pooled_observed, pooled_expected)


@requires_numpy
@pytest.mark.stats
@pytest.mark.parametrize(
    "protocol, initial, steps",
    [
        # Few interactions from a single key keep the law sensitive to
        # which side of the colliding interaction the touched agent is on.
        (_Deterministic(), {0: 4}, 4),
        (_Deterministic(), {0: 2, 1: 2}, 3),
        (_Deterministic(), {0: 4, 1: 3}, 7),
        (_CoinDriven(), {0: 5}, 3),
        (_CoinDriven(), {0: 3, 1: 2, 2: 1}, 6),
    ],
)
def test_kernel_matches_the_exact_configuration_law(protocol, initial, steps):
    import numpy

    n = sum(initial.values())
    expected = _exact_law(protocol, initial, n, steps)
    kernel = CollisionFreeKernel(
        OutcomeTable(protocol.delta_key, n), numpy.random.default_rng(12), random.Random(12)
    )
    draws = 6_000
    observed = Counter()
    for _ in range(draws):
        kernel.load(initial)
        done = 0
        while done < steps:
            done += kernel.step(n, steps - done)
        assert done == steps
        counts = {}
        kernel.store(counts)
        observed[tuple(sorted(counts.items()))] += 1
    assert kernel.collisions > 0 and kernel.batches < draws * steps
    assert _pooled_gof(observed, expected, draws) > ALPHA


@requires_numpy
@pytest.mark.stats
@pytest.mark.parametrize("n", [2, 7, 10, 400])
def test_run_length_law_matches_the_collision_product(n):
    import numpy

    generator = numpy.random.default_rng(n)
    law = RunLengthLaw(n)
    draws = 5_000
    observed = Counter(law.sample(generator) for _ in range(draws))
    survival = [1.0]
    for i in range(n // 2):
        survival.append(survival[-1] * (n - 2 * i) * (n - 2 * i - 1) / (n * (n - 1)))
    survival.append(0.0)
    expected = {l: survival[l] - survival[l + 1] for l in range(1, n // 2 + 1)}
    if n == 2:
        assert observed == Counter({1: draws})
        return
    assert _pooled_gof(observed, expected, draws) > ALPHA
    if n == 400:
        mean = sum(l * count for l, count in observed.items()) / draws
        assert abs(mean - expected_run_length(n)) < 1.0
        # Built lazily: far fewer entries than n / 2.
        assert law.built < n // 2


# --------------------------------------------------------------------------
# Engagement and agreement with the sequential path
# --------------------------------------------------------------------------


@requires_numpy
def test_kernel_engages_only_above_the_run_length_threshold():
    assert expected_run_length(128) < CollisionFreeKernel.MIN_EXPECTED_RUN
    assert expected_run_length(1_000) >= CollisionFreeKernel.MIN_EXPECTED_RUN
    entry = resolve_protocol("approximate")
    for n, engaged in ((128, False), (2_000, True)):
        simulator = Simulator(entry.build(n, {}), n, seed=1, backend="batch", accel="numpy")
        result = simulator.run(max_interactions=5_000)
        assert result.interactions == 5_000
        assert (result.extra["accel"].get("kernel") == "collision-free") == engaged
        kinds = [event["kind"] for event in result.extra["telemetry"]["events"]]
        assert ("accel-fallback" in kinds) == (not engaged)
    # Hooks keep a large population on the per-event path.
    from repro.engine.hooks import Hook

    simulator = Simulator(
        entry.build(2_000, {}), 2_000, seed=1, backend="batch", accel="numpy", hooks=[Hook()]
    )
    result = simulator.run(max_interactions=5_000)
    assert "kernel" not in result.extra["accel"]


@requires_numpy
def test_corruption_past_the_slot_limit_hands_the_run_back():
    n = 2_000
    simulator = Simulator(_Deterministic(states=20), n, seed=2, backend="batch", accel="numpy")
    simulator.run(max_interactions=5_000)
    backend = simulator.backend
    kernel = backend._batch_kernel
    assert kernel is not None
    # 20 live keys fit 48 slots; 30 unseen keys corrupted in do not.
    kernel.MAX_SLOTS = 48
    fresh = iter(range(1_000, 1_030))
    assert backend.corrupt_histogram(30, lambda key, rng: next(fresh), random.Random(1)) == 30
    backend.advance_to(8_000)
    assert backend.interactions == 8_000
    assert backend._batch_kernel is None
    assert sum(backend.state_key_counts().values()) == n
    kinds = [event["kind"] for event in backend.tracer.events]
    assert kinds.count("accel-fallback") == 1


class _Drifting(_KeyProtocol):
    """Every interaction mints two keys never seen before."""

    name = "cf-drifting"

    def rule(self, key_a, key_b, coin):
        minted = 2 * (1_000 * (key_a + 1) + key_b)
        return minted, minted + 1


@requires_numpy
def test_a_step_past_the_slot_limit_is_finished_and_hands_back_after():
    import numpy

    n = 400
    kernel = CollisionFreeKernel(
        OutcomeTable(_Drifting().delta_key, n), numpy.random.default_rng(3), random.Random(3)
    )
    kernel.MAX_SLOTS = 16
    kernel.load({key: n // 8 for key in range(8)})
    # The step draws about 12 disjoint interactions whose pair types mint
    # keys past the 16 slots: it is finished, not thrown away.
    done = kernel.step(n, 10_000)
    assert done > 8 and len(kernel._keys) > 16
    counts = {}
    kernel.store(counts)
    assert sum(counts.values()) == n and len(counts) > 8
    # The next step boundary hands the run back before drawing anything.
    state = kernel._generator.bit_generator.state
    with pytest.raises(AccelCapacityError):
        kernel.step(n, 10_000)
    assert kernel._generator.bit_generator.state == state


def _configuration_statistics(name, n, seed, accel, budget):
    entry = resolve_protocol(name)
    simulator = Simulator(entry.build(n, {}), n, seed=seed, backend="batch", accel=accel)
    result = simulator.run(max_interactions=budget)
    assert result.interactions == budget
    assert (result.extra["accel"].get("kernel") == "collision-free") == (accel == "numpy")
    counts = simulator.backend.state_key_counts()
    entropy = -sum(c / n * math.log(c / n) for c in counts.values())
    return len(counts), max(counts.values()), entropy


@requires_numpy
@pytest.mark.stats
@pytest.mark.parametrize("name, salt", [("approximate", 0), ("count-exact", 1000)])
def test_kernel_agrees_with_the_sequential_path(name, salt):
    n, budget, seeds = 2_000, 10_000, 30
    sequential = [
        _configuration_statistics(name, n, salt + seed, "python", budget)
        for seed in range(seeds)
    ]
    batched = [
        _configuration_statistics(name, n, salt + seeds + seed, "numpy", budget)
        for seed in range(seeds)
    ]
    for index in range(3):
        first = [row[index] for row in sequential]
        second = [row[index] for row in batched]
        statistic = ks_statistic(first, second)
        assert ks_pvalue(statistic, seeds, seeds) > ALPHA, (index, first, second)
