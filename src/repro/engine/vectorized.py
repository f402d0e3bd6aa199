"""Optional NumPy acceleration layer for the batch backend's hot loop.

The batch backend is sampler-bound: every event costs one Python-level
geometric-skip draw, one pair-type draw, and — in the pruning regime — an
``O(changed * K)`` :meth:`~repro.engine.backends.BatchBackend._update_pair_weights`
pass over the pair table.  This module removes those Python-level costs when
NumPy is importable, while leaving the pure-Python path byte-for-byte
untouched (the core library stays dependency-free; NumPy is an *extra*):

* :func:`resolve_accel` maps the ``accel="auto"|"numpy"|"python"`` knob to
  the active path.  ``"auto"`` picks NumPy exactly when it is importable
  (the ``REPRO_NO_NUMPY`` environment variable vetoes it — the hook the CI
  matrix uses to prove the fallback is really exercised) *and* the sampler
  knob was left on ``"auto"`` — a forced ``scan``/``alias``/``fenwick``/
  ``"vector"`` sampler is an explicit request for a specific per-draw
  structure in the Python hot loop and always wins.

* :class:`VectorSampler` implements the :class:`~repro.engine.samplers.
  WeightedSampler` interface via a cumulative-sum array + ``searchsorted``.
  Single draws follow the canonical one-uniform inverse-CDF contract of
  :mod:`repro.engine.samplers` (bit-identical to every other strategy on a
  static table); :meth:`VectorSampler.sample_block` amortises RNG and
  sampler overhead across hundreds of draws per Python-level call.

* :class:`DenseBlockKernel` drives the dense regime: ordered participant
  pairs are drawn in configurable blocks (two ``searchsorted`` batches plus
  a vectorised same-key rejection that realises exactly the uniform
  ordered-pair law).  Any histogram change invalidates the unconsumed
  remainder of the block — the pre-drawn pairs follow the stale law.

* :class:`FactorisedPairKernel` drives the pruning regime without ever
  materialising the pair-weight table.  Pair weights factorise as
  ``w(a, b) = c_a * c_b`` (``c_a * (c_a - 1)`` on the diagonal) and the
  activity predicate ``can_interaction_change`` depends on *keys only*, so
  the kernel keeps the count vector ``c``, the boolean activity matrix
  ``A``, and the row sums ``s = A @ c``.  A count change updates one entry
  of ``c`` and one vectorised column update of ``s`` — O(changed)
  Python-level operations per event instead of the O(changed * K) per-pair
  dict walk.  The active weight is ``W = c . s - sum(c[diag])`` exactly (all
  integer arithmetic), geometric skips are drawn in blocks from
  ``Geometric(W / T)``, and the active pair is sampled by the two-stage
  row/partner scheme with a diagonal rejection — the same law as the
  Python path's conditional draw over the materialised table.

* :class:`CollisionFreeKernel` takes over the dense regime at large ``n``
  when the block draws thrash (the composed counting protocols): it
  advances the histogram one collision-free run of about ``sqrt(n)``
  interactions per vectorised step, applying each run's pair types through
  the batch backend's memoised outcome table, and plays the colliding
  interaction exactly.

Kernel randomness comes from a dedicated ``numpy.random.Generator`` seeded
from the run seed, so accelerated runs are reproducible; they are
*statistically* equivalent to the pure-Python path (same chain law, KS- and
chi-square-tested), not stream-identical.
"""

from __future__ import annotations

import math
import os
import random
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .errors import ConfigurationError
from .samplers import WeightedSampler, _clean_weights, _validate_weight

__all__ = [
    "ACCEL_NAMES",
    "NO_NUMPY_ENV",
    "AccelCapacityError",
    "numpy_available",
    "require_numpy",
    "resolve_accel",
    "VectorSampler",
    "DenseBlockKernel",
    "FactorisedPairKernel",
    "CollisionFreeKernel",
    "RunLengthLaw",
    "expected_run_length",
]

#: Valid values for the ``accel=`` knob of the simulator and the batch
#: backend.  ``"auto"`` selects NumPy when available, falling back to the
#: pure-Python path automatically.
ACCEL_NAMES = ("auto", "numpy", "python")

#: Environment variable vetoing NumPy detection (any value other than ""
#: or "0").  The CI matrix's pure-python leg sets it so the fallback path is
#: provably exercised even on machines where NumPy is installed.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Sampler knob values compatible with the NumPy kernels (the kernels
#: replace the per-event sampler machinery, so a forced Python strategy
#: cannot be honoured alongside them).
_ACCEL_SAMPLERS = ("auto", "vector")


def _load_numpy():
    """Import NumPy unless vetoed by :data:`NO_NUMPY_ENV`."""
    if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_np = _load_numpy()


class AccelCapacityError(Exception):
    """A NumPy kernel outgrew its structures; the caller must fall back.

    Raised (not :class:`ConfigurationError`) so the batch backend can catch
    it mid-run, rebuild the pure-Python structures, and continue — a run
    must never die because a protocol turned out wider than expected.
    """


def numpy_available() -> bool:
    """Whether the acceleration layer can run (NumPy importable, not vetoed)."""
    return _np is not None


def require_numpy(context: str):
    """Return the numpy module or raise a :class:`ConfigurationError`."""
    if _np is None:
        if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
            detail = f"NumPy is blocked by {NO_NUMPY_ENV}={os.environ[NO_NUMPY_ENV]!r}"
        else:
            detail = "NumPy is not installed (pip install 'repro-berenbrink-kr19[accel]')"
        raise ConfigurationError(f"{context} requires NumPy, but {detail}")
    return _np


def resolve_accel(accel: str, sampler: str = "auto") -> str:
    """Resolve the ``accel`` knob to the active path (``"numpy"``/``"python"``).

    ``"numpy"`` is a hard requirement (raises when NumPy is unavailable or a
    specific per-draw sampler strategy was forced alongside it); ``"auto"``
    prefers NumPy but silently falls back when it is absent *or* when the
    sampler knob pins any specific strategy — including ``"vector"``, which
    is a per-draw strategy choice for the Python hot loop, not a request
    for the block kernels.
    """
    if accel not in ACCEL_NAMES:
        raise ConfigurationError(
            f"unknown accel {accel!r}; expected one of {ACCEL_NAMES}"
        )
    if accel == "python":
        return "python"
    if accel == "numpy":
        require_numpy("accel='numpy'")
        if sampler not in _ACCEL_SAMPLERS:
            raise ConfigurationError(
                f"accel='numpy' replaces the weighted-sampler hot loop and "
                f"cannot honour sampler={sampler!r}; use sampler='auto' or "
                f"accel='python'"
            )
        return "numpy"
    if numpy_available() and sampler == "auto":
        return "numpy"
    return "python"


class VectorSampler(WeightedSampler):
    """Cumulative-sum + ``searchsorted`` strategy with block draws.

    Weights live in a slot-ordered list mirrored into an ``int64`` NumPy
    array whose cumulative sum is rebuilt lazily on the first draw after a
    change (O(K), in C).  Single draws consume exactly one uniform and
    evaluate the canonical inverse CDF of :mod:`repro.engine.samplers`:
    ``searchsorted(cum, u * total, side="right")`` returns the first slot
    whose cumulative weight exceeds the target — the same map as the linear
    scan, so static-weight draw sequences are bit-identical across
    strategies.  :meth:`sample_block` draws many inverse-CDF positions in
    one vectorised call from a ``numpy.random.Generator`` — the amortisation
    the dense block kernel is built on.

    Keys keep their slot for life (zero-width intervals are invisible to
    ``searchsorted`` except through the float end-corner, which is clamped
    back to a live slot exactly like the Fenwick descent); the structure
    compacts itself when more than half the slots are dead.
    """

    strategy = "vector"

    #: Compact (rebuild dropping dead slots) when over half the slots are
    #: dead and the table is at least this large.
    COMPACT_MIN_SIZE = 64

    def __init__(self, weights: Optional[Dict[Hashable, int]] = None) -> None:
        require_numpy("the 'vector' sampler strategy")
        super().__init__()
        self._keys: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        self._leaf: List[int] = []
        self._cum = None  # lazily built int64 cumulative-sum array
        self._total = 0
        self._dead = 0
        self.builds = 0  # lazy cumulative-array constructions
        self.block_draws = 0  # draws served through sample_block
        if weights:
            self.rebuild(weights)
            self.rebuilds = 0  # construction is not churn

    @property
    def total(self) -> int:
        return self._total

    def weights(self) -> Dict[Hashable, int]:
        return {
            key: self._leaf[slot]
            for key, slot in self._slots.items()
            if self._leaf[slot]
        }

    def stats(self) -> Dict[str, Any]:
        record = super().stats()
        record.update(
            slots=len(self._keys),
            dead_slots=self._dead,
            builds=self.builds,
            block_draws=self.block_draws,
        )
        return record

    def rebuild(self, weights: Dict[Hashable, int]) -> None:
        self.rebuilds += 1
        cleaned = _clean_weights(weights)
        self._keys = list(cleaned.keys())
        self._slots = {key: slot for slot, key in enumerate(self._keys)}
        self._leaf = [cleaned[key] for key in self._keys]
        self._total = sum(self._leaf)
        self._cum = None
        self._dead = 0

    def update(self, key: Hashable, weight: int) -> None:
        _validate_weight(weight)
        self.updates += 1
        slot = self._slots.get(key)
        if slot is None:
            if weight:
                self._slots[key] = len(self._keys)
                self._keys.append(key)
                self._leaf.append(weight)
                self._total += weight
                self._cum = None
            return
        old = self._leaf[slot]
        if weight == old:
            return
        self._leaf[slot] = weight
        self._total += weight - old
        self._cum = None
        if old and not weight:
            self._dead += 1
        elif weight and not old:
            self._dead -= 1
        size = len(self._keys)
        if size >= self.COMPACT_MIN_SIZE and self._dead * 2 > size:
            live = self.weights()
            self.rebuild(live)
            self.rebuilds -= 1  # compaction is maintenance, not API churn

    # ------------------------------------------------------------- internals
    def _ensure_cum(self):
        if self._cum is None:
            self._cum = _np.cumsum(_np.asarray(self._leaf, dtype=_np.int64))
            self.builds += 1
        return self._cum

    def _live_slot(self, slot: int) -> int:
        """Clamp a slot landed on by a float corner back to a live slot."""
        last = len(self._leaf) - 1
        if slot > last:
            slot = last
        while slot > 0 and not self._leaf[slot]:
            slot -= 1
        return slot

    def key_at(self, slot: int) -> Hashable:
        """Key stored at ``slot`` (kernel-facing; slots are stable)."""
        return self._keys[slot]

    def weight_at(self, slot: int) -> int:
        """Current weight stored at ``slot`` (kernel-facing)."""
        return self._leaf[slot]

    def weight_of(self, key: Hashable) -> int:
        """Current weight of ``key`` (0 when absent) without a dict copy."""
        slot = self._slots.get(key)
        return self._leaf[slot] if slot is not None else 0

    # ------------------------------------------------------------------ draws
    def sample(self, rng: random.Random) -> Hashable:
        self._require_positive_total()
        self.draws += 1
        cum = self._ensure_cum()
        target = rng.random() * self._total
        slot = int(_np.searchsorted(cum, target, side="right"))
        return self._keys[self._live_slot(slot)]

    def sample_block(self, generator, count: int):
        """Draw ``count`` slots in one vectorised call; returns an int array.

        Uses ``generator`` (a ``numpy.random.Generator``) rather than the
        canonical single-uniform contract — block draws are the statistical
        fast path, not the bit-identical one.
        """
        self._require_positive_total()
        self.draws += count
        self.block_draws += count
        cum = self._ensure_cum()
        targets = generator.random(count) * self._total
        slots = _np.searchsorted(cum, targets, side="right")
        last = len(self._leaf) - 1
        _np.clip(slots, 0, last, out=slots)
        # Float end-corner / dead-slot landings are rare; fix them pointwise.
        leaf = _np.asarray(self._leaf, dtype=_np.int64)
        for index in _np.nonzero(leaf[slots] == 0)[0]:
            slots[index] = self._live_slot(int(slots[index]))
        return slots


class DenseBlockKernel:
    """Blocked ordered-pair draws over the key histogram (dense regime).

    Draws configurable blocks of (initiator, responder) key pairs realising
    exactly the uniform ordered-pair law at key level: the initiator's key
    ``a`` with probability ``c_a / n`` and the responder's with
    ``(c_b - [a = b]) / (n - 1)``, the same-key case resolved by the
    vectorised rejection ``accept (a, a) with probability (c_a - 1) / c_a,
    else redraw the responder`` — the batch analogue of
    ``BatchBackend._sample_dense_pair``.

    Any count change invalidates the unconsumed remainder of the current
    block (the pre-drawn pairs follow the stale histogram law); the block
    size adapts — doubling after full consumption, halving after early
    invalidation — so churning configurations stop over-drawing.

    Block draws only amortise when the histogram holds still between
    events.  A protocol whose configuration changes on (nearly) every
    interaction — the composed counting stack's phase clocks tick every
    time — invalidates every block after a single event, at which point
    the vectorised draws cost more than the Python sampler they replace;
    :attr:`thrashing` reports that signature (same shape as the alias
    strategy's churn heuristic) so the batch backend can fall back.
    """

    MIN_BLOCK = 16
    MAX_BLOCK = 4096
    #: Blocks drawn before the thrash heuristic may engage.
    CHURN_BLOCKS = 8
    #: A block must serve at least this many events on average to amortise.
    CHURN_EVENT_FACTOR = 2

    def __init__(
        self,
        counts: Dict[Hashable, int],
        seed: int,
        block: int = 256,
    ) -> None:
        require_numpy("the dense block kernel")
        if block < 1:
            raise ConfigurationError("block size must be positive")
        self.sampler = VectorSampler(dict(counts))
        self._generator = _np.random.default_rng(seed)
        self._block = max(self.MIN_BLOCK, min(int(block), self.MAX_BLOCK))
        self._pairs_a = None
        self._pairs_b = None
        self._cursor = 0
        self.blocks = 0
        self.events = 0
        self.invalidations = 0
        self.rejections = 0

    # --------------------------------------------------------------- updates
    def set_count(self, key: Hashable, count: int) -> None:
        """Set one key's multiplicity, invalidating the pending block."""
        if self.sampler.weight_of(key) == count:
            return
        self.sampler.update(key, count)
        self.invalidate()

    def rebuild(self, counts: Dict[Hashable, int]) -> None:
        """Replace the whole histogram (restarts, wholesale corruption)."""
        self.sampler.rebuild(dict(counts))
        self.invalidate()

    def invalidate(self) -> None:
        """Discard the unconsumed remainder of the current block."""
        if self._pairs_a is not None:
            drawn = len(self._pairs_a)
            if self._cursor < drawn:
                self.invalidations += 1
                # Early invalidation: the next block should be smaller.
                if self._cursor * 4 < drawn:
                    self._block = max(self.MIN_BLOCK, self._block // 2)
        self._pairs_a = None
        self._pairs_b = None
        self._cursor = 0

    @property
    def thrashing(self) -> bool:
        """Whether the histogram churns too fast for blocks to amortise."""
        return (
            self.blocks >= self.CHURN_BLOCKS
            and self.events < self.CHURN_EVENT_FACTOR * self.blocks
        )

    # ----------------------------------------------------------------- draws
    def _draw_block(self) -> None:
        sampler = self.sampler
        generator = self._generator
        size = self._block
        a = sampler.sample_block(generator, size)
        b = sampler.sample_block(generator, size)
        # Same-key rejection, vectorised: accept (a, a) with probability
        # (c_a - 1) / c_a, else redraw the responder (only the responder —
        # the initiator's law is unconditional).
        leaf = _np.asarray(sampler._leaf, dtype=_np.int64)
        same = a == b
        while True:
            candidates = _np.nonzero(same)[0]
            if not len(candidates):
                break
            counts_a = leaf[a[candidates]]
            accept = generator.random(len(candidates)) * counts_a < counts_a - 1
            rejected = candidates[~accept]
            self.rejections += len(rejected)
            if not len(rejected):
                break
            b[rejected] = sampler.sample_block(generator, len(rejected))
            same = _np.zeros_like(same)
            same[rejected] = a[rejected] == b[rejected]
        self._pairs_a = a
        self._pairs_b = b
        self._cursor = 0
        self.blocks += 1

    def next_pair(self) -> Tuple[Hashable, Hashable]:
        """Return the next (initiator key, responder key) ordered pair."""
        if self._pairs_a is None or self._cursor >= len(self._pairs_a):
            if self._pairs_a is not None:
                # Fully consumed: the histogram held still, draw bigger.
                self._block = min(self.MAX_BLOCK, self._block * 2)
            self._draw_block()
        cursor = self._cursor
        self._cursor = cursor + 1
        self.events += 1
        sampler = self.sampler
        return (
            sampler.key_at(int(self._pairs_a[cursor])),
            sampler.key_at(int(self._pairs_b[cursor])),
        )

    @property
    def generator(self):
        """The kernel's ``numpy.random.Generator`` (handed on at engagement)."""
        return self._generator

    def stats(self) -> Dict[str, Any]:
        record = {
            "kernel": "dense-block",
            "block_size": self._block,
            "blocks": self.blocks,
            "events": self.events,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
        }
        record.update(
            {f"sampler_{key}": value for key, value in self.sampler.stats().items()}
        )
        return record


class FactorisedPairKernel:
    """Pruning-regime event sampling from factorised pair weights.

    Maintains, over the slot-indexed live key set:

    * ``c`` — the count vector (``int64``);
    * ``A`` — the boolean activity matrix, ``A[a, b] =
      can_interaction_change(key_a, key_b)``.  Activity depends on keys
      only, so ``A`` entries are computed once when a key first appears and
      never touched by count changes;
    * ``s = A @ c`` — the row sums, maintained incrementally: a count
      change ``c_d += delta`` is one column update ``s += delta * A[:, d]``;
    * ``D = sum(c[a] for a with A[a, a])`` — the diagonal correction.

    The exact active weight is then ``W = c . s - D`` (every term integer:
    ``sum_{a != b, active} c_a c_b + sum_{diag active} c_a (c_a - 1)``),
    which drives the ``Geometric(W / T)`` skip draws — blocked, with the
    whole block (skips *and* row choices) invalidated whenever a count
    changes, since both follow the stale weights.

    An event's pair is drawn by the two-stage factorised scheme: row ``a``
    with probability ``c_a s_a / (c . s)``, partner ``b`` with probability
    ``c_b A[a, b] / s_a``, accepting same-key proposals with probability
    ``(c_a - 1) / c_a`` and redrawing the whole pair otherwise — the
    accepted law is exactly ``w(a, b) / W`` over active ordered pairs.
    """

    #: Hard bound on the key-set width (live + dead slots after
    #: compaction): the K x K activity matrix at this size costs ~16 MB;
    #: wider protocols fall back to the Python path.
    MATRIX_LIMIT = 4096

    #: Compact (rebuild dropping dead slots) when over half the slots are
    #: dead and the table is at least this large — long churny runs mint
    #: transient keys, and without compaction every key *ever seen* would
    #: count against :attr:`MATRIX_LIMIT`.
    COMPACT_MIN_SIZE = 64

    MIN_BLOCK = 16
    MAX_BLOCK = 1024

    def __init__(
        self,
        counts: Dict[Hashable, int],
        can_change: Callable[[Hashable, Hashable], bool],
        seed: int,
        block: int = 128,
    ) -> None:
        require_numpy("the factorised pair kernel")
        if block < 1:
            raise ConfigurationError("block size must be positive")
        self._can_change = can_change
        self._generator = _np.random.default_rng(seed)
        self._block = max(self.MIN_BLOCK, min(int(block), self.MAX_BLOCK))
        self._keys: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        capacity = 64
        self._c = _np.zeros(capacity, dtype=_np.int64)
        self._A = _np.zeros((capacity, capacity), dtype=bool)
        self._s = _np.zeros(capacity, dtype=_np.int64)
        self._diag_mass = 0
        self._dead = 0  # slots whose count is 0 (keys no longer live)
        self._active_weight: Optional[int] = None
        # Pending block state: skips, row choices, and the cached row cumsum.
        self._skips = None
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self._row_cum = None
        self._partner_cum: Dict[int, Any] = {}
        self.draws = 0
        self.updates = 0
        self.update_columns = 0  # count-change column updates (O(changed) proof)
        self.blocks = 0
        self.invalidations = 0
        self.rejections = 0
        for key, count in counts.items():
            self.set_count(key, count)

    @property
    def size(self) -> int:
        """Number of slots in use (live and dead keys)."""
        return len(self._keys)

    # --------------------------------------------------------------- updates
    def _grow(self, needed: int) -> None:
        capacity = len(self._c)
        while capacity < needed:
            capacity *= 2
        if capacity == len(self._c):
            return
        c = _np.zeros(capacity, dtype=_np.int64)
        c[: len(self._c)] = self._c
        s = _np.zeros(capacity, dtype=_np.int64)
        s[: len(self._s)] = self._s
        matrix = _np.zeros((capacity, capacity), dtype=bool)
        size = self.size
        matrix[:size, :size] = self._A[:size, :size]
        self._c, self._s, self._A = c, s, matrix

    def ensure_key(self, key: Hashable) -> int:
        """Slot of ``key``, assigning one (and its activity row) when new."""
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        size = self.size
        if size >= self.MATRIX_LIMIT:
            raise AccelCapacityError(
                f"key-set width exceeded the factorised kernel's "
                f"{self.MATRIX_LIMIT}-key activity matrix"
            )
        self._grow(size + 1)
        slot = size
        self._keys.append(key)
        self._slots[key] = slot
        # The slot is born with count 0; set_count revives it immediately
        # in the common case, and compaction reclaims it otherwise.
        self._dead += 1
        can_change = self._can_change
        matrix = self._A
        row_sum = 0
        c = self._c
        for other_slot, other_key in enumerate(self._keys):
            forward = bool(can_change(key, other_key))
            matrix[slot, other_slot] = forward
            if other_slot != slot:
                matrix[other_slot, slot] = bool(can_change(other_key, key))
            if forward:
                row_sum += int(c[other_slot])
        self._s[slot] = row_sum
        # The new key enters with count 0, so no other row sum changes and
        # the diagonal mass is unaffected until set_count raises its count.
        return slot

    def set_count(self, key: Hashable, count: int) -> None:
        """Set one key's multiplicity — O(changed) Python-level work.

        One entry of ``c``, one vectorised column update of ``s``, one
        diagonal-mass adjustment; no per-pair bookkeeping.  Invalidates the
        pending skip/row block (its distribution followed the old weights).
        """
        if count < 0:
            raise ConfigurationError("key counts must be non-negative")
        slot = self.ensure_key(key)
        old = int(self._c[slot])
        delta = count - old
        if delta == 0:
            return
        self.updates += 1
        self.update_columns += 1
        size = self.size
        self._c[slot] = count
        self._s[:size] += delta * self._A[:size, slot]
        if self._A[slot, slot]:
            self._diag_mass += delta
        self._active_weight = None
        self._drop_block()
        if old and not count:
            self._dead += 1
        elif count and not old:
            self._dead -= 1
        if size >= self.COMPACT_MIN_SIZE and self._dead * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild over live keys only, reclaiming dead slots.

        Keys whose count returned to 0 keep consuming matrix width until
        compaction; without it a long churny run minting transient keys
        would walk into :attr:`MATRIX_LIMIT` (and a spurious Python
        fallback) with only a handful of *live* keys.  Activity lookups
        are served from the caller's ``can_interaction_change`` cache, so
        the O(live^2) matrix rebuild is dict reads, not protocol calls.
        """
        live = [
            (key, int(self._c[slot]))
            for key, slot in self._slots.items()
            if self._c[slot]
        ]
        capacity = 64
        while capacity < max(len(live), 1):
            capacity *= 2
        self._keys = []
        self._slots = {}
        self._c = _np.zeros(capacity, dtype=_np.int64)
        self._A = _np.zeros((capacity, capacity), dtype=bool)
        self._s = _np.zeros(capacity, dtype=_np.int64)
        self._diag_mass = 0
        self._dead = 0
        self._active_weight = None
        self._drop_block()
        can_change = self._can_change
        for slot, (key, _count) in enumerate(live):
            self._keys.append(key)
            self._slots[key] = slot
            for other_slot in range(slot + 1):
                other_key = self._keys[other_slot]
                self._A[slot, other_slot] = bool(can_change(key, other_key))
                if other_slot != slot:
                    self._A[other_slot, slot] = bool(can_change(other_key, key))
        for key, count in live:
            slot = self._slots[key]
            self._c[slot] = count
            if self._A[slot, slot]:
                self._diag_mass += count
        size = len(live)
        if size:
            self._s[:size] = self._A[:size, :size] @ self._c[:size]

    def resync(self, counts: Dict[Hashable, int]) -> None:
        """Reconcile the kernel with ``counts`` after a wholesale edit."""
        for key in list(self._slots):
            if key not in counts:
                self.set_count(key, 0)
        for key, count in counts.items():
            self.set_count(key, count)

    # ------------------------------------------------------------- weights
    def active_weight(self) -> int:
        """Exact total weight of active ordered pairs (``W = c . s - D``)."""
        if self._active_weight is None:
            size = self.size
            self._active_weight = int(
                _np.dot(self._c[:size], self._s[:size])
            ) - self._diag_mass
        return self._active_weight

    def pair_weight(self, key_a: Hashable, key_b: Hashable) -> int:
        """Implied weight of one ordered pair (differential-test hook)."""
        slot_a = self._slots.get(key_a)
        slot_b = self._slots.get(key_b)
        if slot_a is None or slot_b is None or not self._A[slot_a, slot_b]:
            return 0
        count_a = int(self._c[slot_a])
        if slot_a == slot_b:
            return count_a * (count_a - 1)
        return count_a * int(self._c[slot_b])

    def pair_weights(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """The implied active-pair weight table (positive entries only)."""
        table: Dict[Tuple[Hashable, Hashable], int] = {}
        for key_a, slot_a in self._slots.items():
            if not self._c[slot_a]:
                continue
            for key_b, slot_b in self._slots.items():
                if not self._c[slot_b]:
                    continue
                weight = self.pair_weight(key_a, key_b)
                if weight > 0:
                    table[(key_a, key_b)] = weight
        return table

    # ----------------------------------------------------------------- draws
    def _drop_block(self) -> None:
        if self._skips is not None and self._skip_cursor < len(self._skips):
            self.invalidations += 1
            if self._skip_cursor * 4 < len(self._skips):
                self._block = max(self.MIN_BLOCK, self._block // 2)
        self._skips = None
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self._row_cum = None
        self._partner_cum.clear()

    def _draw_block(self, ordered_pairs: int) -> None:
        weight = self.active_weight()
        generator = self._generator
        size = self._block
        if weight >= ordered_pairs:
            skips = _np.zeros(size, dtype=_np.int64)
        else:
            # Geometric(p) skips, p = W / T, via the inverse CDF on
            # uniform = 1 - u in (0, 1] — the Python path's formula,
            # vectorised.
            uniforms = 1.0 - generator.random(size)
            log_q = math.log1p(-weight / ordered_pairs)
            skips = (_np.log(uniforms) / log_q).astype(_np.int64)
        self._skips = skips
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self.blocks += 1

    def _ensure_rows(self) -> None:
        if self._rows is not None and self._row_cursor < len(self._rows):
            return
        size = self.size
        if self._row_cum is None:
            proposal = self._c[:size] * self._s[:size]
            self._row_cum = _np.cumsum(proposal)
        cum = self._row_cum
        total = int(cum[-1])
        count = max(len(self._skips) if self._skips is not None else 0, self.MIN_BLOCK)
        targets = self._generator.random(count) * total
        rows = _np.searchsorted(cum, targets, side="right")
        _np.clip(rows, 0, size - 1, out=rows)
        self._rows = rows
        self._row_cursor = 0

    def _next_row(self) -> int:
        self._ensure_rows()
        cursor = self._row_cursor
        self._row_cursor = cursor + 1
        row = int(self._rows[cursor])
        # Float end-corner: walk back over zero-width row intervals.
        cum = self._row_cum
        while row > 0 and cum[row] == cum[row - 1]:
            row -= 1
        return row

    def _draw_partner(self, row: int) -> int:
        cum = self._partner_cum.get(row)
        if cum is None:
            size = self.size
            cum = _np.cumsum(self._c[:size] * self._A[row, :size])
            self._partner_cum[row] = cum
        total = int(cum[-1])
        target = self._generator.random() * total
        partner = int(_np.searchsorted(cum, target, side="right"))
        if partner >= len(cum):
            partner = len(cum) - 1
        while partner > 0 and cum[partner] == cum[partner - 1]:
            partner -= 1
        return partner

    def next_skip(self, ordered_pairs: int) -> int:
        """Number of configuration-preserving interactions before the event."""
        if self._skips is None or self._skip_cursor >= len(self._skips):
            if self._skips is not None:
                self._block = min(self.MAX_BLOCK, self._block * 2)
            self._draw_block(ordered_pairs)
        skip = int(self._skips[self._skip_cursor])
        self._skip_cursor += 1
        return skip

    def next_pair(self) -> Tuple[Hashable, Hashable]:
        """Sample one active ordered pair type from the factorised weights."""
        self.draws += 1
        c = self._c
        generator = self._generator
        while True:
            row = self._next_row()
            partner = self._draw_partner(row)
            if partner != row:
                break
            count = int(c[row])
            if count > 1 and generator.random() * count < count - 1:
                break
            # Rejected diagonal proposal: redraw the whole pair.
            self.rejections += 1
        return self._keys[row], self._keys[partner]

    def stats(self) -> Dict[str, Any]:
        return {
            "kernel": "factorised-pair",
            "block_size": self._block,
            "slots": self.size,
            "dead_slots": self._dead,
            "draws": self.draws,
            "updates": self.updates,
            "update_columns": self.update_columns,
            "blocks": self.blocks,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
        }


def expected_run_length(n: int) -> float:
    """Mean length ``sqrt(pi n / 8)`` of a collision-free run of interactions.

    The engagement rule of :class:`CollisionFreeKernel` compares it with
    :attr:`CollisionFreeKernel.MIN_EXPECTED_RUN`; it is a function of ``n``
    only, so whether a run is batched never depends on timing.
    """
    return math.sqrt(math.pi * n / 8.0)


class RunLengthLaw:
    """Law of the length ``L`` of a collision-free run at population ``n``.

    ``L`` counts the interactions before the first one that involves an
    agent already touched in the run: ``P(L >= l) = prod_{i < l} (n - 2i)
    (n - 2i - 1) / (n (n - 1))`` for ``l <= floor(n / 2)``, and 0 beyond.
    The array of ``-log P(L >= l)`` is built lazily in chunks of about
    ``4 sqrt(n)`` entries, so a law costs ``O(sqrt(n))`` unless a rare long
    draw asks for more.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ConfigurationError("a collision-free run needs at least 2 agents")
        self.n = n
        self._last = n // 2  # largest l with P(L >= l) > 0
        self._chunk = 4 * math.isqrt(n) + 16
        self._neg_log = _np.zeros(1)  # -log P(L >= 0) = 0
        self._complete = False

    def _extend(self) -> None:
        start = len(self._neg_log) - 1  # next factor index i
        stop = min(start + self._chunk, self._last)
        n = self.n
        index = _np.arange(start, stop, dtype=_np.float64)
        steps = -(_np.log1p(-2.0 * index / n) + _np.log1p(-2.0 * index / (n - 1)))
        tail = self._neg_log[-1] + _np.cumsum(steps)
        if stop >= self._last:
            tail = _np.append(tail, _np.inf)  # P(L >= last + 1) = 0
            self._complete = True
        self._neg_log = _np.concatenate((self._neg_log, tail))
        self._chunk *= 2

    def sample(self, generator) -> int:
        """Draw ``L`` by inverse transform: the largest ``l`` with ``P(L >= l) > u``."""
        uniform = generator.random()
        level = math.inf if uniform <= 0.0 else -math.log(uniform)
        while not self._complete and self._neg_log[-1] < level:
            self._extend()
        return int(_np.searchsorted(self._neg_log, level, side="left")) - 1

    @property
    def built(self) -> int:
        """Entries of the survival table built so far."""
        return len(self._neg_log)


class CollisionFreeKernel:
    """Batched dense-regime simulation, one collision-free run per step.

    The batched algorithm of Berenbrink et al. (ESA 2020), as used by
    Doty & Severson's ppsim (CMSB 2021).  One :meth:`step` of the uniform
    random scheduler's chain, over the key histogram ``c``:

    1. Draw the run length ``L`` from :class:`RunLengthLaw` and truncate it
       at the interactions left to the caller's target (exact: the first
       ``m`` interactions are collision-free exactly when ``L >= m``).
    2. The ``2L`` participants are distinct agents drawn uniformly:
       ``Generator.multivariate_hypergeometric`` draws their key counts, a
       shuffle orders them, and the first half initiates against the second.
    3. The interactions of a run touch disjoint agents, so they all apply
       to the pre-run configuration at once, through the outcome table: a
       pair type with a coin takes each coin value with probability ½ per
       interaction (over ``k`` interactions of a type, a ``Binomial(k, ½)``
       split).
    4. Unless the run was truncated, the colliding interaction is played
       exactly: uniform over the ordered pairs with at least one touched
       agent, i.e. touched/touched, touched/untouched or untouched/touched
       with weights ``t (t - 1)``, ``t u`` and ``u t`` (``t = 2L`` touched,
       ``u = n - 2L`` untouched agents), each participant drawn from the
       post-run touched or the untouched counts.

    After the collision every agent is fresh again, so the next step starts
    a new run from the new configuration (the chain is Markov).

    Outcomes are memoised twice: by key pair in the run's
    :class:`~repro.engine.outcomes.OutcomeTable`, and by slot pair in dense
    ``C x C`` arrays (``C`` the slot capacity) so a step gathers every
    interaction's outcome in one vectorised lookup.  Slot pairs the arrays
    have not seen are filled from the table by probes, which consume no run
    randomness.  A pair type that turns out non-memoisable is evaluated
    once per interaction with the run's ``rng`` (still exact) and
    :attr:`memoisable` drops, so the caller can hand the run back to the
    sequential path.
    """

    #: Engagement threshold on :func:`expected_run_length`: batching pays
    #: once the mean run is this long.  Set from the dense rows of
    #: ``repro-bench --accel`` and the crossover table in README
    #: ("Acceleration"): ``approximate`` breaks even near a mean run of 9-10
    #: (n = 192: 0.94x, n = 256: 1.25x) and ``count-exact`` wins from
    #: n = 128 on, so the kernel engages from n = 255 (mean run 10.0).
    #: n = 128 (mean run 7.1) stays on the sequential path.
    MIN_EXPECTED_RUN = 10.0

    #: Slot capacity a step may start with; the ``C x C`` outcome arrays
    #: cost ``9 C^2`` bytes.  Slots grow freely inside a step, so a drawn
    #: step is always finished; between steps dead slots are compacted away,
    #: and a configuration with more than half this many live keys hands the
    #: run back to the sequential path.  Outcome slots are stored as
    #: ``int16``, so every capacity must stay below 2^15.
    MAX_SLOTS = 1024
    #: Initial slot capacity (doubled as keys appear); small, because a
    #: backend's arrays live until the simulator is garbage-collected.
    MIN_SLOTS = 16

    #: Outcome-array kinds.
    _UNKNOWN, _KNOWN, _ONE_BY_ONE = 0, 1, 2

    def __init__(
        self,
        table: Any,
        generator,
        rng: random.Random,
        observe: Optional[Callable[[Hashable], None]] = None,
    ) -> None:
        require_numpy("the collision-free kernel")
        self._table = table
        self._generator = generator
        self._rng = rng
        self._observe = observe
        self._law: Optional[RunLengthLaw] = None
        self.memoisable = True
        self.batches = 0
        self.interactions = 0
        self.collisions = 0
        self.compactions = 0
        self._reset_slots(self.MIN_SLOTS)

    # ----------------------------------------------------------------- slots
    def _reset_slots(self, capacity: int) -> None:
        self._keys: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        self._capacity = capacity
        self._c = _np.zeros(capacity, dtype=_np.int64)
        self._seen = _np.zeros(capacity, dtype=bool)
        self._kind = _np.zeros(capacity * capacity, dtype=_np.int8)
        self._out_a = _np.zeros((2, capacity * capacity), dtype=_np.int16)
        self._out_b = _np.zeros((2, capacity * capacity), dtype=_np.int16)

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2

        def widen(array):
            grown = _np.zeros((len(array), new, new), dtype=array.dtype)
            grown[:, :old, :old] = array.reshape(len(array), old, old)
            return grown.reshape(len(array), new * new)

        self._kind = widen(self._kind[None, :])[0]
        self._out_a = widen(self._out_a)
        self._out_b = widen(self._out_b)
        self._c = _np.concatenate((self._c, _np.zeros(old, dtype=_np.int64)))
        self._seen = _np.concatenate((self._seen, _np.zeros(old, dtype=bool)))
        self._capacity = new

    def _slot(self, key: Hashable) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self._keys)
            if slot >= self._capacity:
                self._grow()
            self._keys.append(key)
            self._slots[key] = slot
        return slot

    def _check_live(self, live: int) -> None:
        if 2 * live > self.MAX_SLOTS:
            raise AccelCapacityError(
                f"{live} live keys outgrew the collision-free kernel's "
                f"{self.MAX_SLOTS} slots"
            )

    def _capacity_for(self, live: int) -> int:
        capacity = self.MIN_SLOTS
        while capacity < 2 * live:
            capacity *= 2
        return capacity

    def load(self, counts: Dict[Hashable, int]) -> None:
        """Take the configuration from ``counts`` (every key already observed).

        Raises :class:`AccelCapacityError`, with the kernel untouched, when
        the live keys are too many for :attr:`MAX_SLOTS`.  Keys new to the
        kernel (joins, corruptions) start the slots over from the live keys
        when they would push the slots past :attr:`MAX_SLOTS`.
        """
        live = [(key, count) for key, count in counts.items() if count]
        self._check_live(len(live))
        slots = self._slots
        fresh = sum(1 for key, _ in live if key not in slots)
        if len(self._keys) + fresh > self.MAX_SLOTS:
            self._reset_slots(self._capacity_for(len(live)))
        self._c[:] = 0
        for key, count in live:
            slot = self._slot(key)
            self._c[slot] = count
            self._seen[slot] = True

    def _make_room(self) -> None:
        """Prepare the slots for a step (called only between steps).

        Raises :class:`AccelCapacityError` when the live keys are too many;
        otherwise rebuilds the slots from the live keys once dead ones
        dominate or the last step grew them past :attr:`MAX_SLOTS`.  A
        drifting key set (phase clocks) keeps minting keys whose counts
        return to zero; without compaction they would fill the slots.  The
        outcome arrays are refilled from the outcome table on demand.  Both
        depend on the configuration only, so a hand-back never discards a
        sampled step.
        """
        live = int(_np.count_nonzero(self._c))
        self._check_live(live)
        if len(self._keys) <= min(self.MAX_SLOTS, 2 * live + 64):
            return
        counts = {}
        self.store(counts)
        self._reset_slots(self._capacity_for(live))
        self.load(counts)
        self.compactions += 1

    def store(self, counts: Dict[Hashable, int]) -> None:
        """Write the configuration back into the mapping ``counts``."""
        counts.clear()
        keys = self._keys
        c = self._c
        for slot in _np.flatnonzero(c).tolist():
            counts[keys[slot]] = int(c[slot])

    def live_keys(self) -> int:
        """Number of keys present in the loaded configuration."""
        return int(_np.count_nonzero(self._c))

    # -------------------------------------------------------------- outcomes
    def _resolve(self, slot_a: int, slot_b: int) -> None:
        """Fill one slot pair's outcome arrays from the outcome table."""
        entry = self._table.lookup(self._keys[slot_a], self._keys[slot_b])
        if entry.__class__ is tuple:
            outcomes = (entry, entry)
        elif entry.__class__ is list:
            outcomes = (entry[0], entry[1])
        else:
            self.memoisable = False
            self._kind[slot_a * self._capacity + slot_b] = self._ONE_BY_ONE
            return
        slots = [(self._slot(a), self._slot(b)) for a, b in outcomes]
        code = slot_a * self._capacity + slot_b  # after any growth
        for coin, (new_a, new_b) in enumerate(slots):
            self._out_a[coin, code] = new_a
            self._out_b[coin, code] = new_b
        self._kind[code] = self._KNOWN

    def _outcomes(self, initiators, responders):
        """Post-interaction slots of disjoint (initiator, responder) pairs."""
        capacity = self._capacity
        codes = initiators * capacity + responders
        kinds = self._kind[codes]
        if not kinds.all():
            unknown = _np.flatnonzero(kinds == self._UNKNOWN)
            for slot_a, slot_b in set(
                zip(initiators[unknown].tolist(), responders[unknown].tolist())
            ):
                self._resolve(slot_a, slot_b)
            if self._capacity != capacity:  # resolving grew the slots
                codes = initiators * self._capacity + responders
        coins = self._generator.integers(0, 2, size=len(codes))
        new_a = self._out_a[coins, codes]
        new_b = self._out_b[coins, codes]
        if not self.memoisable:
            for index in _np.flatnonzero(self._kind[codes] == self._ONE_BY_ONE).tolist():
                key_a, key_b = self._table.evaluate(
                    self._keys[initiators[index]], self._keys[responders[index]], self._rng
                )
                new_a[index] = self._slot(key_a)
                new_b[index] = self._slot(key_b)
        return new_a, new_b

    def _draw(self, counts, total: int) -> int:
        """One slot drawn with probability ``counts[slot] / total``."""
        ticket = int(self._generator.integers(0, total))
        return int(_np.searchsorted(_np.cumsum(counts), ticket, side="right"))

    def _observe_new(self, present) -> None:
        if self._observe is None:
            return
        fresh = _np.flatnonzero(present[: len(self._keys)] & ~self._seen[: len(self._keys)])
        for slot in fresh.tolist():
            self._seen[slot] = True
            self._observe(self._keys[slot])

    # ------------------------------------------------------------------ step
    def step(self, n: int, remaining: int, tracer: Any = None) -> int:
        """Advance one collision-free run (plus its collision); return its length.

        ``n`` is the population size (the loaded counts must sum to it) and
        ``remaining`` (> 0) the interactions left to the caller's target.
        """
        tic = perf_counter()
        self._make_room()
        generator = self._generator
        law = self._law
        if law is None or law.n != n:
            law = self._law = RunLengthLaw(n)
        length = law.sample(generator)
        collides = length < remaining
        if not collides:
            length = remaining
        size = len(self._keys)
        drawn = generator.multivariate_hypergeometric(self._c[:size], 2 * length)
        participants = _np.repeat(_np.arange(size), drawn)
        generator.shuffle(participants)
        toc = perf_counter()
        new_a, new_b = self._outcomes(participants[:length], participants[length:])
        capacity = self._capacity  # resolving may have grown the slots
        untouched = self._c.copy()
        untouched[:size] -= drawn
        touched = _np.bincount(new_a, minlength=capacity) + _np.bincount(
            new_b, minlength=capacity
        )
        self._observe_new(touched > 0)
        done = length
        if collides:
            self._collide(n, length, touched, untouched)
            done += 1
        else:
            self._c = untouched + touched
        self.batches += 1
        self.interactions += done
        if tracer is not None:
            tracer.add("sampling", toc - tic, ops=done)
            tracer.add("transition", perf_counter() - toc, ops=done)
        return done

    def _collide(self, n: int, length: int, touched, untouched) -> None:
        """Play the run's colliding interaction and merge the configuration."""
        touched_n = 2 * length
        untouched_n = n - touched_n
        both = touched_n * (touched_n - 1)
        mixed = touched_n * untouched_n
        ticket = int(self._generator.integers(0, both + 2 * mixed))
        if ticket < both:
            slot_a = self._draw(touched, touched_n)
            touched[slot_a] -= 1
            slot_b = self._draw(touched, touched_n - 1)
            touched[slot_a] += 1
        elif ticket < both + mixed:
            slot_a = self._draw(touched, touched_n)
            slot_b = self._draw(untouched, untouched_n)
        else:
            slot_a = self._draw(untouched, untouched_n)
            slot_b = self._draw(touched, touched_n)
        c = untouched + touched
        new_a, new_b = self._outcomes(
            _np.array([slot_a], dtype=_np.int64), _np.array([slot_b], dtype=_np.int64)
        )
        if len(c) < self._capacity:
            c = _np.concatenate((c, _np.zeros(self._capacity - len(c), dtype=_np.int64)))
        c[slot_a] -= 1
        c[slot_b] -= 1
        c[int(new_a[0])] += 1
        c[int(new_b[0])] += 1
        self._c = c
        self.collisions += 1
        self._observe_new(c > 0)

    def stats(self) -> Dict[str, Any]:
        return {
            "kernel": "collision-free",
            "batches": self.batches,
            "interactions": self.interactions,
            "collisions": self.collisions,
            "mean_run": round(self.interactions / self.batches, 3) if self.batches else 0.0,
            "slots": len(self._keys),
            "compactions": self.compactions,
            "law_entries": self._law.built if self._law is not None else 0,
        }
