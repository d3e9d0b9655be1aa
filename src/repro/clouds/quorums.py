"""Byzantine dissemination quorum systems beyond uniform thresholds.

DepSky hard-codes *uniform threshold* quorums: ``n = 3f + 1`` clouds, any
``n - f`` acknowledgements commit a write, any ``f + 1`` matching digests
certify a version.  That integer-count assumption is what every layer of this
repo used to pass around as ``required: int``.  This module makes the quorum
structure first-class, following the generalized Byzantine quorum systems of
Malkhi & Reiter and their weighted descendants: a
:class:`QuorumSystem` names its *universe* of providers and exposes two
predicates over responder sets —

* the **quorum** predicate: the sets whose acknowledgement commits an
  operation.  Consistency requires any two quorums to intersect in at least
  one *correct* provider (so a reader always meets a cloud that saw the
  latest committed write);
* the **certificate** predicate: the sets that cannot consist entirely of
  faulty providers.  A (version, digest) pair confirmed by a certificate is
  guaranteed authentic — this generalizes DepSky's ``f + 1`` matching-digest
  check.

Two structures are provided:

* :class:`ThresholdQuorumSystem` — the classic uniform system (quorum =
  ``n - f`` responses, certificate = ``f + 1``);
* :class:`WeightedQuorumSystem` — per-provider trust weights, any ``f``
  providers faulty: with ``B`` the weight of the ``f`` heaviest, quorums are
  the sets of weight strictly above ``(W + B) / 2``, certificates the sets of
  weight strictly above ``B``.

Each system's :meth:`~QuorumSystem.validate` checks both properties —
**consistency** (quorum intersections survive every tolerated fault set) and
**availability** (after any tolerated fault set fails, some quorum remains
responsive) — so an unsatisfiable configuration is rejected loudly at config
time instead of wedging every quorum call at runtime.  :func:`quorum_system`
builds and validates either one; the config, the cloud-of-clouds backend and
the benchmarks all go through it.

The dispatch engine itself consumes the weaker :class:`QuorumPredicate`
protocol (``satisfied_by`` over responder names plus a ``min_size``), of
which :class:`CountQuorum` is the bare-``int`` adapter: counting *responses*
exactly like the legacy m-th-success engine, so the threshold system stays
byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Protocol, Sequence

from repro.common.errors import ConfigurationError


class QuorumPredicate(Protocol):
    """What the dispatch engine needs from a quorum: a floor and a test."""

    @property
    def min_size(self) -> int:
        """No responder set smaller than this can satisfy the predicate."""
        ...

    def satisfied_by(self, responders: Sequence[str]) -> bool:
        """True when ``responders`` satisfy the predicate."""
        ...


@dataclass(frozen=True)
class CountQuorum:
    """The legacy predicate: any ``required`` successful responses satisfy it.

    Counts *responses*, not distinct clouds — exactly the m-th-success
    semantics the dispatch engine has always had, so wrapping a bare ``int``
    in a :class:`CountQuorum` changes no behaviour and no wire bytes.
    """

    required: int

    @property
    def min_size(self) -> int:
        """Smallest number of responses that can satisfy the predicate."""
        return self.required

    def satisfied_by(self, responders: Sequence[str]) -> bool:
        """True when enough responses arrived (monotone in ``responders``)."""
        return len(responders) >= self.required


@dataclass(frozen=True)
class WeightedCountQuorum:
    """Weighted predicate: distinct responders of total weight above a bar.

    All weight arithmetic is *exact* (:class:`~fractions.Fraction`; converting
    a float is lossless).  Float summation is order-dependent: a responder set
    whose true weight lands exactly on the bar can drift to either side of the
    strict comparison, and accepting such a set breaks quorum intersection —
    two "quorums" of weight exactly ``(W + B) / 2`` may overlap entirely
    inside a tolerated fault set.
    """

    #: ``(cloud, weight)`` pairs of the universe.
    weights: tuple[tuple[str, float], ...]
    #: The predicate holds when the responder weight strictly exceeds this.
    threshold_weight: float | Fraction

    def _weight(self, responders: Sequence[str]) -> Fraction:
        table = {name: Fraction(weight) for name, weight in self.weights}
        distinct = dict.fromkeys(responders)  # dedup, first-seen order
        return sum((table[cloud] for cloud in distinct if cloud in table),
                   start=Fraction(0))

    @property
    def min_size(self) -> int:
        """Fewest distinct clouds that can clear the bar (heaviest first)."""
        total = Fraction(0)
        bar = Fraction(self.threshold_weight)
        for count, (_, weight) in enumerate(
                sorted(self.weights, key=lambda item: (-item[1], item[0])), start=1):
            total += Fraction(weight)
            if total > bar:
                return count
        return len(self.weights) + 1  # unsatisfiable even by the full universe

    def satisfied_by(self, responders: Sequence[str]) -> bool:
        return self._weight(responders) > Fraction(self.threshold_weight)


def as_quorum(required: int | QuorumPredicate) -> QuorumPredicate:
    """Normalize a bare ``required: int`` to a quorum predicate."""
    if isinstance(required, int):
        return CountQuorum(required)
    return required


def minimal_quorums(pool: Sequence[str],
                    predicate: int | QuorumPredicate) -> Iterator[tuple[str, ...]]:
    """Yield every *minimal* satisfying subset of ``pool``.

    A subset is minimal when removing any one member breaks the predicate.
    Enumeration order is deterministic (by size, then by ``pool`` order).
    Exponential in the pool size: meant for planner-sized pools (a handful of
    providers).
    """
    predicate = as_quorum(predicate)
    names = list(pool)
    for size in range(max(1, predicate.min_size), len(names) + 1):
        for combo in itertools.combinations(names, size):
            if not predicate.satisfied_by(combo):
                continue
            if any(predicate.satisfied_by(combo[:i] + combo[i + 1:])
                   for i in range(len(combo))):
                continue  # a proper subset already satisfies: not minimal
            yield combo


class QuorumSystem:
    """Base class of a Byzantine dissemination quorum system.

    Subclasses define :meth:`quorum` (the commit predicate), :meth:`certificate`
    (the authenticity predicate) and :meth:`validate`; the convenience wrappers
    below are shared.
    """

    # Annotation-only on purpose: assigning a class-level default here would
    # leak into the dataclass subclasses as a field default and break their
    # required-field ordering.
    universe: tuple[str, ...]

    def quorum(self) -> QuorumPredicate:
        """Predicate over responder sets whose acknowledgement commits."""
        raise NotImplementedError

    def certificate(self) -> QuorumPredicate:
        """Predicate over responder sets that cannot be entirely faulty."""
        raise NotImplementedError

    def validate(self) -> None:
        """Raise :class:`ValueError` unless consistency and availability hold."""
        raise NotImplementedError

    def satisfied_by(self, responders: Iterable[str]) -> bool:
        """True when ``responders`` form a quorum."""
        return self.quorum().satisfied_by(tuple(responders))

    def certifies(self, responders: Iterable[str]) -> bool:
        """True when ``responders`` certify a value (≥ 1 correct member)."""
        return self.certificate().satisfied_by(tuple(responders))


@dataclass(frozen=True)
class ThresholdQuorumSystem(QuorumSystem):
    """The classic DepSky system: ``n = |universe|`` clouds tolerating ``f``.

    Quorums are any ``n - f`` responses, certificates any ``f + 1``; validity
    is the familiar ``n >= 3f + 1`` (two write quorums then intersect in at
    least ``f + 1`` clouds, one of which must be correct).
    """

    universe: tuple[str, ...]
    f: int

    def quorum(self) -> CountQuorum:
        return CountQuorum(len(self.universe) - self.f)

    def certificate(self) -> CountQuorum:
        return CountQuorum(self.f + 1)

    def validate(self) -> None:
        if self.f < 0:
            raise ValueError("the fault threshold f must be non-negative")
        if len(self.universe) != len(set(self.universe)):
            raise ValueError("the quorum universe lists a provider twice")
        if len(self.universe) < 3 * self.f + 1:
            raise ValueError(
                f"a threshold quorum system with f={self.f} needs at least "
                f"{3 * self.f + 1} providers, got {len(self.universe)}")


@dataclass(frozen=True)
class WeightedQuorumSystem(QuorumSystem):
    """Weighted-majority quorums tolerating any ``f`` providers.

    Every provider carries a trust weight, and any ``f`` providers may fail or
    misbehave simultaneously, so the fault *budget* ``B`` is the weight of the
    ``f`` heaviest: no tolerated fault set weighs more (the fault structure
    "any f", from which Alpos & Cachin derive generalized quorums).  With
    total weight ``W``:

    * **quorums** are the sets of weight strictly above ``(W + B) / 2`` — any
      two such sets intersect in weight strictly above ``B``, so their
      intersection cannot lie inside a tolerated fault set (it contains a
      correct provider: the dissemination-quorum consistency condition);
    * **certificates** are the sets of weight strictly above ``B`` — they
      cannot consist entirely of faulty providers;
    * **availability** demands that the providers left by the heaviest fault
      set, weight ``W - B``, still form a quorum: ``B < W / 3``.
    """

    universe: tuple[str, ...]
    #: ``(provider, weight)`` pairs covering the universe exactly.
    weights: tuple[tuple[str, float], ...]
    f: int

    def _exact_total(self) -> Fraction:
        # Exact arithmetic throughout (see WeightedCountQuorum): the quorum
        # bar is a strict inequality, where float rounding flips
        # borderline-exact configurations.
        return sum((Fraction(weight) for _, weight in self.weights),
                   start=Fraction(0))

    @property
    def fault_budget(self) -> Fraction:
        """``B``: the weight of the ``f`` heaviest providers."""
        heaviest = sorted((Fraction(weight) for _, weight in self.weights), reverse=True)
        return sum(heaviest[:self.f], start=Fraction(0))

    def quorum(self) -> WeightedCountQuorum:
        return WeightedCountQuorum(
            weights=self.weights,
            threshold_weight=(self._exact_total() + self.fault_budget) / 2)

    def certificate(self) -> WeightedCountQuorum:
        return WeightedCountQuorum(weights=self.weights, threshold_weight=self.fault_budget)

    def validate(self) -> None:
        names = [name for name, _ in self.weights]
        if len(names) != len(set(names)):
            raise ValueError("a provider carries two weights")
        if set(names) != set(self.universe) or len(self.universe) != len(set(self.universe)):
            raise ValueError(
                f"the weight table must cover the universe exactly: it names "
                f"{sorted(names)}, the universe is {sorted(self.universe)}")
        if not all(math.isfinite(weight) and weight > 0 for _, weight in self.weights):
            raise ValueError("provider weights must be finite and positive")
        if self.f < 0:
            raise ValueError("the fault threshold f must be non-negative")
        total, budget = self._exact_total(), self.fault_budget
        if 3 * budget >= total:
            raise ValueError(
                f"weighted quorum system is unavailable: the {self.f} heaviest "
                f"providers weigh {float(budget):g}, not below a third of the "
                f"total weight {float(total):g}")


def quorum_system(universe: Sequence[str], f: int,
                  weights: tuple[tuple[str, float], ...] = ()) -> QuorumSystem:
    """The validated quorum system over ``universe`` tolerating any ``f`` providers.

    DepSky's :class:`ThresholdQuorumSystem` without ``weights``, a
    :class:`WeightedQuorumSystem` with them.  Raises
    :class:`~repro.common.errors.ConfigurationError` when the system fails its
    checks: too few providers, weights naming other providers than
    ``universe``, or a weighted system the ``f`` heaviest could make
    unavailable.
    """
    names = tuple(universe)
    system = (WeightedQuorumSystem(names, weights, f) if weights
              else ThresholdQuorumSystem(names, f))
    try:
        system.validate()
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return system
