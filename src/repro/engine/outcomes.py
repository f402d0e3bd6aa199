"""Coin-keyed outcome table: memoised key-level transitions per pair type.

Every protocol in this library draws at most one fair synthetic coin per
interaction (``rng.getrandbits(1)``, see
:func:`repro.primitives.synthetic_coin.flip`), and its ``delta_key`` is a
function of the two keys and the values it draws from ``rng`` (the
contract stated on :meth:`~repro.engine.protocol.Protocol.delta_key`).  So
an ordered pair type ``(key_a, key_b)`` has either one outcome or one
outcome per coin value, and the table learns which on first use:

* On a miss it evaluates ``delta_key`` through a thin recorder around the
  run's ``rng``.  A pair type that drew nothing stores its one outcome; a
  pair type that drew exactly one ``getrandbits(1)`` stores the outcome
  under the coin it drew.  A pair type that used the ``rng`` in any other
  way is marked non-memoisable and is re-evaluated on every use.
* On a hit of a coin pair type it draws the same single ``getrandbits(1)``
  that the transition itself would have drawn, so the run's random stream
  is identical to evaluating ``delta_key`` directly.

Control flow before a transition's first ``rng`` use depends on the two
keys only, so every evaluation of a pair type makes the same first draw;
that is what makes the two cases above exhaustive.

:meth:`OutcomeTable.lookup` fills entries by *probing*: ``delta_key`` runs
against a stand-in ``rng`` that serves a chosen coin and consumes no run
randomness.  The batched kernel uses it to complete both coin outcomes, and
the dense fixed-point check uses it to test a self-interaction.

The table is bounded (:data:`OutcomeTable.CAPACITY` entries): when it
fills it starts over, which keeps long runs whose key set drifts (phase
clocks) at a flat memory footprint.  Outcome keys are interned, so the
table holds one object per distinct key rather than one per outcome.

Memoising costs a few dictionary operations per miss, which on wide keys
(the composed counting protocols, whose keys carry fast-moving counters)
is a large share of a transition.  When pair types stop repeating, the
table stops memoising for the rest of the run: :meth:`OutcomeTable.apply`
then calls ``delta_key`` directly, which consumes the run's ``rng`` exactly
as before.  A table that is still filling misses as often as one whose keys
drift, so the hit rate is only judged once the table holds as many entries
as the population can form pair types (``n^2``) or has filled up: the
misses are then new pair types that do not repeat, not the first sight of
a large but finite set.  The decision depends on ``n`` and the sequence of
pair types only, so replays stay identical.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

__all__ = ["OutcomeTable", "NOT_MEMOISABLE"]

Keys = Tuple[Hashable, Hashable]
Delta = Callable[[Hashable, Hashable, Any], Keys]


class _NotMemoisable:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_MEMOISABLE"


#: Entry of a pair type whose transition uses the ``rng`` other than by
#: drawing one ``getrandbits(1)``; it is re-evaluated on every use.
NOT_MEMOISABLE: Any = _NotMemoisable()

#: One table entry: a tuple (one outcome), a two-slot list (the outcome per
#: coin, ``None`` while unknown) or :data:`NOT_MEMOISABLE`.
Entry = Union[Keys, List[Optional[Keys]], _NotMemoisable]


class _ProbeAbort(Exception):
    """A probe's transition asked for randomness beyond its one coin."""


class _CoinRecorder:
    """Stand-in for the run's ``rng`` while the table evaluates ``delta_key``.

    The first ``getrandbits(1)`` is served from ``preset`` when set, else
    drawn from the wrapped ``rng``.  Any other use of the ``rng`` marks the
    evaluation as non-memoisable; it is forwarded to the wrapped ``rng`` (so
    the run's stream is what a direct call would have consumed) or, in a
    probe (no wrapped ``rng``), aborts the evaluation.
    """

    __slots__ = ("rng", "preset", "coin", "other")

    def __init__(self) -> None:
        self.rng: Optional[random.Random] = None
        self.preset: Optional[int] = None
        self.coin: Optional[int] = None
        self.other = False

    def reset(self, rng: Optional[random.Random], preset: Optional[int]) -> "_CoinRecorder":
        self.rng = rng
        self.preset = preset
        self.coin = None
        self.other = False
        return self

    def getrandbits(self, bits: int) -> int:
        if bits == 1 and self.coin is None and not self.other:
            coin = self.preset if self.preset is not None else self.rng.getrandbits(1)
            self.coin = coin
            return coin
        self.other = True
        if self.rng is None:
            raise _ProbeAbort
        return self.rng.getrandbits(bits)

    def __getattr__(self, name: str) -> Any:
        self.other = True
        if self.rng is None:
            raise _ProbeAbort
        return getattr(self.rng, name)


class OutcomeTable:
    """Memoised outcomes of ``delta`` per ordered pair type (see module doc).

    Attributes:
        calls: Number of ``delta`` evaluations made (hits do not count).
        memoisable: ``False`` once any pair type turned out non-memoisable.
    """

    #: Entries held before the table starts over.  Unbounded, the table of
    #: a long composed-counting run grows with every key the phase clocks
    #: mint; 4,096 entries cover the few hundred live pair types of those
    #: protocols many times over.
    CAPACITY = 4096

    #: Evaluations per review of the hit rate, and the lookups per
    #: evaluation below which the table stops memoising (see module doc).
    REVIEW_EVALUATIONS = 256
    MIN_LOOKUPS_PER_EVALUATION = 2

    def __init__(self, delta: Delta, population: int) -> None:
        """``population`` bounds the pair types a run can form at once."""
        self._delta = delta
        self._pair_types = population * population
        self._entries: Dict[Keys, Entry] = {}
        self._interned: Dict[Hashable, Hashable] = {}
        self._recorder = _CoinRecorder()
        self.calls = 0
        self.memoisable = True
        self.resets = 0
        #: ``True`` once memoising stopped paying (see module doc).
        self.bypass = False
        self._lookups = 0
        self._window = (0, 0, 0)  # (lookups, calls, resets) when the window opened

    def __len__(self) -> int:
        return len(self._entries)

    # -------------------------------------------------------------- storage
    def _store(self, pair: Keys, entry: Entry) -> None:
        entries = self._entries
        if len(entries) >= self.CAPACITY and pair not in entries:
            entries.clear()
            self._interned.clear()
            self.resets += 1
        entries[pair] = entry

    def _evaluate(
        self, key_a: Hashable, key_b: Hashable, rng: Optional[random.Random], preset: Optional[int]
    ) -> Tuple[Optional[Keys], _CoinRecorder]:
        """Run ``delta`` through the recorder; ``None`` when a probe aborts."""
        recorder = self._recorder.reset(rng, preset)
        self.calls += 1
        try:
            return self._delta(key_a, key_b, recorder), recorder
        except _ProbeAbort:
            return None, recorder

    def _learn(self, pair: Keys, outcome: Optional[Keys], recorder: _CoinRecorder) -> Entry:
        """Store what one evaluation revealed about ``pair``; return the entry."""
        if outcome is not None:
            intern = self._interned.setdefault
            new_a, new_b = outcome
            outcome = (intern(new_a, new_a), intern(new_b, new_b))
        if recorder.other:
            self.memoisable = False
            self._store(pair, NOT_MEMOISABLE)
            return NOT_MEMOISABLE
        if recorder.coin is None:
            self._store(pair, outcome)
            return outcome
        entry = self._entries.get(pair)
        if entry.__class__ is not list:
            entry = [None, None]
            self._store(pair, entry)
        entry[recorder.coin] = outcome
        return entry

    # ------------------------------------------------------------ sequential
    def apply(self, key_a: Hashable, key_b: Hashable, rng: random.Random) -> Keys:
        """Outcome of one interaction, consuming ``rng`` exactly as ``delta`` would."""
        self._lookups += 1
        pair = (key_a, key_b)
        entry = self._entries.get(pair)
        if entry.__class__ is tuple:
            return entry
        if entry is None:
            outcome, recorder = self._evaluate(key_a, key_b, rng, None)
            self._learn(pair, outcome, recorder)
            if self.calls - self._window[1] >= self.REVIEW_EVALUATIONS:
                self._review()
            return outcome
        if entry is NOT_MEMOISABLE:
            return self.evaluate(key_a, key_b, rng)
        coin = rng.getrandbits(1)
        outcome = entry[coin]
        if outcome is None:
            # The other coin was seen first: replay this one through the
            # recorder, which serves the coin already drawn and forwards
            # any further draw to ``rng`` (marking the pair non-memoisable).
            outcome, recorder = self._evaluate(key_a, key_b, rng, coin)
            self._learn(pair, outcome, recorder)
        return outcome

    def _review(self) -> None:
        """Stop memoising when a full table's lookups barely outnumber evaluations."""
        lookups, calls, resets = self._window
        self._window = (self._lookups, self.calls, self.resets)
        full = resets != self.resets or len(self._entries) >= min(
            self._pair_types, self.CAPACITY
        )
        if full and self._lookups - lookups < self.MIN_LOOKUPS_PER_EVALUATION * (
            self.calls - calls
        ):
            self.bypass = True
            self.apply = self.evaluate  # the hit path keeps no bypass check
            self._entries.clear()
            self._interned.clear()

    # ---------------------------------------------------------------- probes
    def lookup(self, key_a: Hashable, key_b: Hashable) -> Entry:
        """The complete entry of a pair type, probing what is not yet known.

        Returns a tuple (one outcome), a list ``[outcome_0, outcome_1]`` (the
        outcome per coin, both known) or :data:`NOT_MEMOISABLE`.  Probes
        consume no run randomness.
        """
        pair = (key_a, key_b)
        entry = self._entries.get(pair)
        if entry is None:
            outcome, recorder = self._evaluate(key_a, key_b, None, 0)
            entry = self._learn(pair, outcome, recorder)
        if entry.__class__ is list:
            for coin in (0, 1):
                if entry[coin] is None:
                    outcome, recorder = self._evaluate(key_a, key_b, None, coin)
                    entry = self._learn(pair, outcome, recorder)
                    if entry is NOT_MEMOISABLE:
                        break
        return entry

    def evaluate(self, key_a: Hashable, key_b: Hashable, rng: Any) -> Keys:
        """Evaluate ``delta`` directly, memoising nothing."""
        self.calls += 1
        return self._delta(key_a, key_b, rng)

    def fixed_point(self, key: Hashable) -> bool:
        """Whether a population all in ``key`` provably never changes.

        True when every outcome of the ``(key, key)`` self-interaction, for
        either coin, leaves both agents in ``key``.
        """
        entry = self.lookup(key, key)
        if entry is NOT_MEMOISABLE:
            return False
        outcomes = entry if entry.__class__ is list else (entry,)
        return all(outcome == (key, key) for outcome in outcomes)
