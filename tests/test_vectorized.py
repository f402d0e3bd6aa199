"""Tests for the NumPy acceleration layer (PR 5).

The layer must be *provably optional*: the CI matrix runs one leg with
NumPy and one without, and the guard test here pins the active path against
the leg's declared intent (``REPRO_EXPECT_ACCEL``) so the two legs can
never silently test the same code.  Equivalence is checked at three levels:
bit-identical single draws (the canonical inverse-CDF contract), exact
differential tests of the factorised pair weights against a from-scratch
recomputation, and distribution-level chi-square / KS checks of draws and
end-to-end convergence-time laws.
"""

import os
import random
from collections import Counter

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import ConfigurationError, Simulator, all_outputs_equal, simulate
from repro.engine.samplers import SAMPLER_NAMES, ScanSampler, make_sampler
from repro.engine.stats import chi_square_gof, ks_pvalue, ks_statistic
from repro.engine import vectorized as vectorized_module
from repro.engine.vectorized import (
    ACCEL_NAMES,
    DenseBlockKernel,
    FactorisedPairKernel,
    VectorSampler,
    numpy_available,
    resolve_accel,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy unavailable (or vetoed by REPRO_NO_NUMPY)"
)

#: Generous significance threshold (see tests/test_samplers.py).
ALPHA = 1e-3


def _wide_weights(size, salt=0):
    return {f"k{index}": (index * 37 + salt) % 11 + 1 for index in range(size)}


# --------------------------------------------------------------------------
# CI guard: the intended accel path must actually be active
# --------------------------------------------------------------------------


def test_ci_guard_active_accel_path_matches_leg_intent():
    # On CI, REPRO_EXPECT_ACCEL declares the matrix leg's intent; locally
    # the expectation is simply consistency with NumPy availability.  The
    # assertion is made on a *real simulation's* report, not on the
    # resolver alone, so a wiring regression cannot slip through.
    expected = os.environ.get("REPRO_EXPECT_ACCEL")
    if expected is None:
        expected = "numpy" if numpy_available() else "python"
    assert expected in ("numpy", "python")
    if expected == "numpy":
        assert numpy_available(), "numpy leg without importable NumPy"
    else:
        assert not numpy_available(), (
            "pure-python leg with NumPy importable; set REPRO_NO_NUMPY=1"
        )
    assert resolve_accel("auto") == expected
    result = simulate(
        ExactBackupProtocol(), 64, seed=0, backend="batch", max_interactions=2_000
    )
    assert result.extra["accel"]["active"] == expected
    assert result.extra["accel"]["requested"] == "auto"
    assert result.extra["accel"]["numpy_available"] == (expected == "numpy")
    # Prove the leg exercises its own hot loop, not just the resolver: a
    # churning pruning workload must *engage* the factorised kernel on the
    # numpy leg and must not (cannot) on the pure-python leg.
    churn = simulate(
        ExactBackupProtocol(),
        256,
        seed=11,
        backend="batch",
        max_interactions=150_000,
    )
    assert churn.extra["accel"]["engaged"] == (expected == "numpy")
    if expected == "numpy":
        assert churn.extra["sampler"]["strategy"] == "factorised"
    else:
        assert churn.extra["sampler"]["strategy"] in ("alias", "fenwick")
    # The dense regime: the collision-free kernel must take over the
    # Theorem-1 protocol at paper scale on the numpy leg, and never at
    # n = 128 (below its engagement threshold); the pure-python leg runs
    # both sequentially.
    from repro.experiments.registry import resolve_protocol

    approximate = resolve_protocol("approximate")
    for n, batched in ((100_000, expected == "numpy"), (128, False)):
        dense = simulate(
            approximate.build(n, {}), n, seed=3, backend="batch", max_interactions=5_000
        )
        assert dense.interactions == 5_000
        assert (dense.extra["accel"].get("kernel") == "collision-free") == batched
        if batched:
            assert dense.extra["sampler"]["strategy"] == "collision-free"
        else:
            assert dense.extra["sampler"]["strategy"] in ("alias", "fenwick")


def test_guard_python_accel_is_always_available():
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=0,
        backend="batch",
        accel="python",
        max_interactions=2_000,
    )
    assert result.extra["accel"]["active"] == "python"


# --------------------------------------------------------------------------
# Knob resolution and validation
# --------------------------------------------------------------------------


def test_unknown_accel_names_are_rejected_everywhere():
    with pytest.raises(ConfigurationError):
        resolve_accel("bogus")
    with pytest.raises(ConfigurationError):
        Simulator(ExactBackupProtocol(), 8, backend="batch", accel="bogus")
    with pytest.raises(ConfigurationError):
        simulate(ExactBackupProtocol(), 8, backend="batch", accel="cuda")


def test_forced_python_sampler_wins_over_auto_accel():
    # A pinned Python strategy is an explicit request: auto accel must not
    # silently replace it with the NumPy kernels.
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=2,
        backend="batch",
        sampler="fenwick",
        accel="auto",
        max_interactions=5_000,
    )
    assert result.extra["accel"]["active"] == "python"
    assert result.extra["sampler"]["strategy"] == "fenwick"


def test_forcing_numpy_with_a_python_sampler_is_a_conflict():
    if numpy_available():
        with pytest.raises(ConfigurationError):
            simulate(
                ExactBackupProtocol(),
                8,
                backend="batch",
                sampler="fenwick",
                accel="numpy",
            )
    else:
        with pytest.raises(ConfigurationError):
            resolve_accel("numpy")


def test_accel_names_and_vector_strategy_are_registered():
    assert ACCEL_NAMES == ("auto", "numpy", "python")
    assert "vector" in SAMPLER_NAMES


def test_agent_backend_accepts_but_ignores_the_accel_knob():
    result = simulate(
        ExactBackupProtocol(), 16, seed=0, backend="agent", accel="python",
        max_interactions=500,
    )
    assert "accel" not in result.extra


def test_python_accel_is_bit_identical_to_a_numpyless_run(monkeypatch):
    # accel="python" must take exactly the pre-acceleration code path: the
    # same run with NumPy made undetectable (the auto fallback) has to
    # produce the identical result, interaction for interaction.
    reference = simulate(
        ExactBackupProtocol(),
        96,
        seed=7,
        backend="batch",
        accel="python",
        convergence=all_outputs_equal(96),
        check_interval=96,
        max_interactions=500_000,
    )
    monkeypatch.setattr(vectorized_module, "_np", None)
    assert not numpy_available()
    fallback = simulate(
        ExactBackupProtocol(),
        96,
        seed=7,
        backend="batch",
        accel="auto",
        convergence=all_outputs_equal(96),
        check_interval=96,
        max_interactions=500_000,
    )
    assert fallback.extra["accel"]["active"] == "python"
    assert fallback.interactions == reference.interactions
    assert fallback.convergence_interaction == reference.convergence_interaction
    assert fallback.output_counts == reference.output_counts
    assert fallback.extra["sampler"] == reference.extra["sampler"]


# --------------------------------------------------------------------------
# VectorSampler: canonical contract + distribution
# --------------------------------------------------------------------------


@requires_numpy
def test_vector_sampler_single_draws_are_bit_identical_to_scan():
    weights = _wide_weights(80)
    vector = VectorSampler(dict(weights))
    scan = ScanSampler(dict(weights))
    vector_rng = random.Random(7)
    scan_rng = random.Random(7)
    assert [vector.sample(vector_rng) for _ in range(4_000)] == [
        scan.sample(scan_rng) for _ in range(4_000)
    ]


@requires_numpy
@pytest.mark.stats
@pytest.mark.parametrize("size", [12, 80])
def test_vector_sampler_draws_from_exact_target_distribution(size):
    weights = _wide_weights(size)
    sampler = make_sampler("vector", weights)
    rng = random.Random(1234 + size)
    observed = Counter(sampler.sample(rng) for _ in range(20_000))
    assert chi_square_gof(observed, weights) > ALPHA


@requires_numpy
@pytest.mark.stats
def test_vector_sampler_block_draws_from_exact_target_distribution():
    import numpy

    weights = _wide_weights(60)
    sampler = VectorSampler(dict(weights))
    generator = numpy.random.default_rng(42)
    slots = sampler.sample_block(generator, 40_000)
    observed = Counter(sampler.key_at(int(slot)) for slot in slots)
    assert chi_square_gof(observed, weights) > ALPHA


@requires_numpy
@pytest.mark.stats
def test_vector_sampler_distribution_survives_randomized_mutations():
    # The same scripted storm as the other strategies (zeroing, resurrecting
    # and rebuilding): stale cumulative sums would shift the distribution.
    rng = random.Random(4242)
    sampler = make_sampler("vector", {f"s{index}": 1 for index in range(50)})
    shadow = {f"s{index}": 1 for index in range(50)}
    for step in range(600):
        if step % 151 == 150:
            shadow = {
                f"r{step}-{index}": rng.randrange(1, 8)
                for index in range(rng.randrange(40, 70))
            }
            sampler.rebuild(shadow)
            continue
        key = f"s{rng.randrange(70)}" if step < 151 else rng.choice(list(shadow))
        weight = rng.randrange(0, 9)
        sampler.update(key, weight)
        if weight:
            shadow[key] = weight
        else:
            shadow.pop(key, None)
    assert sampler.total == sum(shadow.values())
    assert sampler.weights() == shadow
    draw_rng = random.Random(97)
    observed = Counter(sampler.sample(draw_rng) for _ in range(20_000))
    assert chi_square_gof(observed, shadow) > ALPHA


@requires_numpy
def test_vector_sampler_requires_numpy_when_vetoed(monkeypatch):
    monkeypatch.setattr(vectorized_module, "_np", None)
    with pytest.raises(ConfigurationError):
        make_sampler("vector", {"a": 1})


# --------------------------------------------------------------------------
# Block invalidation: a weight change must discard the stale remainder
# --------------------------------------------------------------------------


@requires_numpy
def test_dense_block_invalidation_discards_the_stale_remainder():
    kernel = DenseBlockKernel({"a": 5, "b": 5}, seed=0, block=64)
    # Force a block into existence and consume a little of it.
    drawn = [kernel.next_pair() for _ in range(4)]
    assert all(pair[0] in ("a", "b") for pair in drawn)
    assert kernel._pairs_a is not None and kernel._cursor < len(kernel._pairs_a)
    # Remove "b" mid-block: the unconsumed remainder was drawn against the
    # old histogram (where "b" had mass) and must be discarded — any stale
    # pair would surface "b" with overwhelming probability over 200 draws.
    kernel.set_count("b", 0)
    assert kernel._pairs_a is None  # the stale remainder is gone
    assert kernel.invalidations >= 1
    for _ in range(200):
        pair = kernel.next_pair()
        assert pair == ("a", "a")


@requires_numpy
def test_dense_block_sizes_adapt_and_thrash_is_reported():
    kernel = DenseBlockKernel({"a": 50, "b": 50}, seed=1, block=64)
    # Invalidate immediately after every single event: blocks shrink to the
    # minimum and the thrash signature appears.
    for toggle in range(3 * DenseBlockKernel.CHURN_BLOCKS):
        kernel.next_pair()
        kernel.set_count("a", 50 + (toggle % 2))
    assert kernel._block == DenseBlockKernel.MIN_BLOCK
    assert kernel.thrashing


@requires_numpy
def test_factorised_kernel_invalidates_pending_skips_on_count_change():
    kernel = FactorisedPairKernel(
        {"a": 6, "b": 5}, can_change=lambda x, y: True, seed=3
    )
    total_pairs = 11 * 10
    kernel.next_skip(total_pairs)
    assert kernel._skips is not None
    kernel.set_count("a", 7)
    # The pending skips were drawn from Geometric(W/T) at the old W.
    assert kernel._skips is None
    assert kernel.invalidations >= 1


# --------------------------------------------------------------------------
# Factorised pair weights: O(changed) updates, exact differential
# --------------------------------------------------------------------------


def _brute_force_pair_table(counts, can_change):
    total = 0
    table = {}
    for key_a, count_a in counts.items():
        for key_b, count_b in counts.items():
            weight = count_a * (count_a - 1) if key_a == key_b else count_a * count_b
            if weight > 0 and can_change(key_a, key_b):
                table[(key_a, key_b)] = weight
                total += weight
    return total, table


@requires_numpy
def test_factorised_weights_match_full_recomputation_under_mutation_storm():
    # The O(changed) differential: after every batch of count changes the
    # kernel's implied pair-weight table and active weight must equal the
    # O(K^2) from-scratch recomputation the Python path performs — while
    # the kernel's own work counter certifies it only touched the changed
    # keys (one column update each), never the full table.
    rng = random.Random(31337)

    def can_change(key_a, key_b):
        return (hash((key_a, key_b)) % 3) != 0

    keys = [f"m{index}" for index in range(40)]
    counts = {key: rng.randrange(1, 9) for key in keys}
    kernel = FactorisedPairKernel(dict(counts), can_change, seed=5)
    effective_updates = kernel.update_columns
    for step in range(400):
        key = rng.choice(keys)
        new_count = rng.randrange(0, 9)
        if counts.get(key, 0) != new_count:
            effective_updates += 1
        counts[key] = new_count
        kernel.set_count(key, new_count)
        if step % 25 == 0:
            live = {key: count for key, count in counts.items() if count}
            total, table = _brute_force_pair_table(live, can_change)
            assert kernel.active_weight() == total, step
            assert kernel.pair_weights() == table, step
    # O(changed) certification: exactly one column update per effective
    # count change — independent of K and of the number of active pairs.
    assert kernel.update_columns == effective_updates


@requires_numpy
@pytest.mark.stats
def test_factorised_pair_draws_follow_the_conditional_active_law():
    counts = {"a": 4, "b": 3, "c": 2}

    def can_change(key_a, key_b):
        return not (key_a == "c" and key_b == "c")

    kernel = FactorisedPairKernel(dict(counts), can_change, seed=9)
    _total, table = _brute_force_pair_table(counts, can_change)
    observed = Counter(kernel.next_pair() for _ in range(100_000))
    assert chi_square_gof(observed, table) > ALPHA


@requires_numpy
def test_factorised_kernel_compacts_dead_slots():
    # Long churny runs mint transient keys; dead slots must be reclaimed or
    # every key *ever seen* would count against MATRIX_LIMIT and force a
    # spurious Python fallback with only a handful of live keys.
    kernel = FactorisedPairKernel({"live": 5}, can_change=lambda x, y: True, seed=0)
    for index in range(10 * FactorisedPairKernel.COMPACT_MIN_SIZE):
        key = f"transient-{index}"
        kernel.set_count(key, 1)
        kernel.set_count(key, 0)
    assert kernel.size <= 2 * FactorisedPairKernel.COMPACT_MIN_SIZE
    assert kernel.pair_weights() == {("live", "live"): 20}
    assert kernel.active_weight() == 20


@requires_numpy
def test_vector_sampler_pin_defers_auto_accel():
    # sampler="vector" is a per-draw strategy choice for the Python hot
    # loop; accel="auto" must not arm kernels it can never engage (the
    # engagement signal lives on the alias strategy).
    assert resolve_accel("auto", "vector") == "python"
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=2,
        backend="batch",
        sampler="vector",
        max_interactions=5_000,
    )
    assert result.extra["accel"]["active"] == "python"
    assert result.extra["accel"]["engaged"] is False
    assert result.extra["sampler"]["strategy"] == "vector"


@requires_numpy
def test_hooks_fire_for_every_applied_event_across_capacity_fallback(monkeypatch):
    # The event whose key-count update overflows the activity matrix is
    # already applied to the histogram — its on_batch_event hooks must
    # still fire, or hook-based trackers undercount on exactly the runs
    # that trigger the fallback.
    from repro.engine import CallbackHook
    from repro.engine.backends import BatchBackend

    monkeypatch.setattr(FactorisedPairKernel, "MATRIX_LIMIT", 8)
    applied = []
    original = BatchBackend._apply_transition

    def counting_apply(self, key_a, key_b):
        applied.append(1)
        return original(self, key_a, key_b)

    monkeypatch.setattr(BatchBackend, "_apply_transition", counting_apply)
    events = []
    hook = CallbackHook(on_batch_event=lambda sim, a, b, na, nb: events.append(1))
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=1,
        backend="batch",
        accel="numpy",
        hooks=[hook],
        max_interactions=30_000,
    )
    assert result.extra["accel"]["active"] == "python"  # the overflow fired
    assert len(events) == len(applied)
    assert events  # the run really applied events


@requires_numpy
def test_factorised_capacity_overflow_falls_back_to_python_mid_run(monkeypatch):
    # A protocol whose live key set outgrows the activity matrix must not
    # die: the backend rebuilds the Python pair table mid-run and reports
    # the fallback.  backup-exact at n=64 visits far more than 8 keys.
    monkeypatch.setattr(FactorisedPairKernel, "MATRIX_LIMIT", 8)
    result = simulate(
        ExactBackupProtocol(),
        64,
        seed=1,
        backend="batch",
        accel="numpy",
        convergence=all_outputs_equal(64),
        check_interval=64,
        max_interactions=500_000,
    )
    assert result.extra["accel"]["requested"] == "numpy"
    assert result.extra["accel"]["active"] == "python"
    assert "activity matrix" in result.extra["accel"]["fallback_reason"]
    # The run stays correct across the switch: the exact count is reached.
    assert result.converged
    assert result.output_counts == Counter({64: 64})


# --------------------------------------------------------------------------
# End-to-end: regimes, fallbacks, and cross-path equivalence
# --------------------------------------------------------------------------


@requires_numpy
def test_auto_accel_engages_the_pair_kernel_on_alias_thrash():
    # accel="auto" rides the PR-4 churn signal: the run starts on the
    # Python alias strategy and swaps in the factorised kernel once the
    # table thrashes — the workload where vectorisation actually pays.
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=11,
        backend="batch",
        max_interactions=150_000,
    )
    accel = result.extra["accel"]
    assert accel["active"] == "numpy" and accel["engaged"] is True
    stats = result.extra["sampler"]
    assert stats["strategy"] == "factorised"
    retired = stats["retired"][0]
    assert retired["strategy"] == "alias"
    assert retired["retired_by"] == "accel-engage"
    assert retired["thrashing"] is True


@requires_numpy
def test_auto_accel_stays_python_on_tables_where_alias_wins():
    from repro.bench.samplers import StaticTableProtocol
    from repro.primitives.epidemic import OneWayEpidemic

    # A static pair table never thrashes: the alias strategy is unbeatable
    # there, so the armed kernel must never engage.
    static = simulate(
        StaticTableProtocol(keys=12),
        128,
        seed=3,
        backend="batch",
        max_interactions=20_000,
    )
    assert static.extra["accel"]["active"] == "numpy"
    assert static.extra["accel"]["engaged"] is False
    assert static.extra["sampler"]["strategy"] == "alias"
    # The epidemic's single active pair type is drawn by a trivial scan;
    # per-event NumPy overhead would be a pure loss.
    epidemic_result = simulate(
        OneWayEpidemic(), 4_096, seed=0, backend="batch", max_interactions=200_000
    )
    assert epidemic_result.extra["accel"]["engaged"] is False


@requires_numpy
def test_pruning_numpy_path_reaches_the_exact_count():
    result = simulate(
        ExactBackupProtocol(),
        256,
        seed=3,
        backend="batch",
        accel="numpy",
        convergence=all_outputs_equal(256),
        check_interval=256,
        max_interactions=2_000_000,
    )
    assert result.extra["accel"]["active"] == "numpy"
    assert result.extra["sampler"]["strategy"] == "factorised"
    assert result.converged
    assert result.output_counts == Counter({256: 256})


@requires_numpy
def test_dense_thrash_falls_back_to_the_python_sampler():
    from repro.experiments.registry import resolve_protocol

    entry = resolve_protocol("approximate")
    result = simulate(
        entry.build(128, {}),
        128,
        seed=1,
        backend="batch",
        accel="numpy",
        max_interactions=20_000,
    )
    # The composed counting stack's phase clocks change the histogram on
    # nearly every interaction: blocks cannot amortise and the backend must
    # hand the run back to the Python sampler.
    assert result.extra["accel"]["active"] == "python"
    assert "thrash" in result.extra["accel"]["fallback_reason"]


@requires_numpy
def test_static_dense_workload_stays_vectorised():
    from repro.bench.vectorized import StaticDenseProtocol

    result = simulate(
        StaticDenseProtocol(keys=24),
        256,
        seed=5,
        backend="batch",
        accel="numpy",
        max_interactions=30_000,
    )
    assert result.interactions == 30_000
    assert result.extra["accel"]["active"] == "numpy"
    stats = result.extra["sampler"]
    assert stats["strategy"] == "vector"
    assert stats["events"] == 30_000
    assert stats["invalidations"] == 0


@requires_numpy
@pytest.mark.stats
def test_backup_exact_convergence_laws_match_across_accel_paths():
    # The accelerated chain uses different random streams but must follow
    # the identical law: KS compatibility of the convergence-time
    # distributions of backup-exact across accel="numpy" and
    # accel="python" (the ISSUE's acceptance criterion).
    n = 96
    samples = 30

    def convergence_times(accel, offset):
        times = []
        for seed in range(samples):
            result = simulate(
                ExactBackupProtocol(),
                n,
                seed=offset + seed,
                backend="batch",
                accel=accel,
                convergence=all_outputs_equal(n),
                check_interval=n,
                confirm_checks=1,
                max_interactions=3_000_000,
            )
            assert result.converged, (accel, seed)
            times.append(result.convergence_interaction)
        return times

    python_times = convergence_times("python", 0)
    numpy_times = convergence_times("numpy", 10_000)
    statistic = ks_statistic(python_times, numpy_times)
    p_value = ks_pvalue(statistic, samples, samples)
    assert p_value > ALPHA, (statistic, p_value)


# --------------------------------------------------------------------------
# Spec and worker plumbing
# --------------------------------------------------------------------------


def test_spec_layers_carry_and_validate_the_accel_knob():
    from repro.experiments.spec import SweepSpec
    from repro.scenarios.spec import ScenarioSpec

    sweep = SweepSpec(name="s", protocol="backup-exact", ns=[16], accel="python")
    assert SweepSpec.from_json(sweep.to_json()).accel == "python"
    with pytest.raises(ConfigurationError):
        SweepSpec(name="s", protocol="backup-exact", ns=[16], accel="nope")
    with pytest.raises(ConfigurationError):
        SweepSpec(
            name="s", protocol="backup-exact", ns=[16],
            accel="numpy", sampler="fenwick",
        )

    scenario = ScenarioSpec(
        name="c",
        protocol="backup-exact",
        ns=[16],
        accel="python",
        events=[{"kind": "restart", "at_interactions": 10}],
    )
    assert ScenarioSpec.from_json(scenario.to_json()).accel == "python"
    with pytest.raises(ConfigurationError):
        ScenarioSpec(
            name="c",
            protocol="backup-exact",
            ns=[16],
            accel="nope",
            events=[{"kind": "restart", "at_interactions": 10}],
        )


def test_sweep_payload_threads_the_accel_knob_to_workers():
    from repro.experiments.runner import cell_payload, execute_cell
    from repro.experiments.spec import SweepSpec

    spec = SweepSpec(
        name="s",
        protocol="backup-exact",
        ns=[16],
        seeds_per_cell=1,
        backend="batch",
        accel="python",
        max_checks=10,
    )
    payload = cell_payload(spec, spec.cells()[0])
    assert payload["accel"] == "python"
    record = execute_cell(payload)
    assert record["error"] is None
    assert record["runs"][0]["extra"]["accel"]["active"] == "python"


@requires_numpy
def test_scenario_runs_thread_the_accel_knob():
    from repro.scenarios.runner import execute_scenario_cell
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec(
        name="c",
        protocol="backup-exact",
        ns=[32],
        seeds_per_cell=1,
        backends=["batch"],
        accel="numpy",
        events=[{"kind": "replace", "at_interactions": 2_000, "fraction": 0.1}],
        max_checks=20,
    )
    cell = spec.cells()[0]
    record = execute_scenario_cell(
        {
            "cell_id": cell.cell_id,
            "n": cell.n,
            "backend": cell.backend,
            "params": dict(cell.params),
            "seeds": list(cell.seeds),
            "spec": spec.to_dict(),
        }
    )
    assert record["error"] is None
    run = record["runs"][0]
    assert run["extra"]["accel"]["requested"] == "numpy"
    # Churn events flow through the kernel's resync path; the run completes
    # with the population conserved.
    assert run["n"] == 32
