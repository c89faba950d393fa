"""Constructive trivialization of block-coded cocycles over one-ended pairs.

The pipeline: certify the pair is one-ended, check the relators on sampled
configurations, extract the homomorphism part by evaluating at the empty
configuration, then recover the transfer map by pulling each configuration
far away with a group element whose coset norm (both ways) beats the
capacity threshold.  Every step is an exact group-element identity; there
are no tolerances.  Three report lines state facts fixed by construction
and compute nothing; a test guards each fact:

* ``fixed_point``: K fixes the empty configuration, since ``Alphabet``
  refuses a permutation that moves x0 (``test_alphabet_validation``);
* ``homomorphism_on_relators``: every relator word is the identity on the
  empty configuration, which is the first sample of the ``relations``
  check, and ``run`` stops when that check fails
  (``test_verify_relations_flags_corruption``);
* ``transfer_at_fixed_point``: b(empty) = hom(g)^-1 hom(g), as ``_value``
  reads c(g, empty) from the hom memo
  (``test_transfer_at_fixed_point_is_identity``).

A ``Trivializer`` computes each pure value once per run: hom(g) per element
and b(y) per configuration are memoised on the instance, and one lazy
scan of the word ball, started for every threshold the run can ask and
advanced only as far as each request needs, finds the far elements.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .coset_graph import BallCache, CosetGraph
from .cocycles import (
    CocycleSpec,
    PlantedData,
    evaluate,
    pattern_key,
    verify_relations,
    walk_word,
    window_region,
)
from .ends import capacity, estimate_ends, row_ruling_out_one_end
from .errors import BallTooLargeError, NotFoundError, NotOneEndedError
from .groups import Group, GroupElement, Letter, coset_of
from .patterns import (
    Pattern,
    _draw_word,
    empty_pattern,
    random_pattern,
    restrict,
    scatter_junk,
)


# Far elements the scan files per threshold: enough for ``run``'s default
# choice-independence trials, so those reuse what ``far_element`` found.
FAR_BATCH = 5
# The search for a threshold t's far elements stops at word length t + slack.
FAR_SLACK = 4
# Sampled configurations on which ``run`` checks every relator.
RELATION_SAMPLES = 10


def _far_scan(group: Group, graph: CosetGraph, found: dict, slack: int, batch: int):
    """Breadth-first scan of the word ball, in shortlex order, that files each
    element g under every threshold t of ``found`` it is far for: neither gK
    nor g^-1 K has a graph id below ball_size(t) (``graph`` reaches every t).
    As |gK| <= |g|, an element of word length d is tested only for the t in
    [d - slack, d - 1] whose list is shorter than ``batch``, and g^-1 K is
    looked up only when gK's id reaches the first such t's ball size, the
    smallest.  A neighbour of sphere d lies in sphere d - 1, d or d + 1, so
    only three spheres are kept.  Yields the largest word length fully
    scanned: d - 1 after each element filed, d after each sphere.  Returns
    once every list is full or past its word radius t + slack, or a finite
    group's ball is exhausted.
    """
    mul, inv, rep = group._mul_payload, group._inv_payload, group._coset_rep_payload
    gens = [group._letter_payloads[l] for l in group.s_letters]
    find, top = graph.index.get, graph.vertex_count()

    def done(scanned: int) -> bool:
        return all(len(out) >= batch or scanned >= t + slack for t, out in found.items())

    def tests(d: int) -> list[tuple[int, list]]:
        return [
            (graph.ball_size(t), found[t]) for t in range(max(d - slack, 0), d)
            if t in found and len(found[t]) < batch
        ]

    one = group.identity().payload
    older, last, sphere, d = set(), {one}, [one], 0
    while sphere and not done(d):
        d += 1
        seen, nxt, open_lists = set(), [], tests(d)
        for g in sphere:
            for s in gens:
                h = mul(g, s)
                if h in seen or h in last or h in older:
                    continue
                seen.add(h)
                nxt.append(h)
                if not open_lists:
                    continue
                near = find(rep(h), top)
                if near < open_lists[0][0]:
                    continue
                near = min(near, find(rep(inv(h)), top))
                lists = [out for size, out in open_lists if near >= size]
                if lists:
                    e = GroupElement(group, h)
                    for out in lists:
                        out.append(e)
                    if done(d - 1):
                        return
                    yield d - 1
                    open_lists = tests(d)
        yield d
        older, last, sphere = last, seen, nxt


class TransferTable:
    """Recovered trivialization data: hom images and transfer values."""

    def __init__(self, window: int):
        self.window = window
        self.hom: dict[Letter, GroupElement] = {}
        self.entries: dict[frozenset, GroupElement] = {}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class TrivializeReport:
    def __init__(self, seed: int):
        self.seed = seed
        self.checks: list[CheckResult] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"seed: {self.seed}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            out.append(f"{mark} {c.name}" + (f": {c.detail}" if c.detail else ""))
        out.append("RESULT: " + ("ok" if self.ok else "FAILED"))
        return out


class Trivializer:
    """Runs the trivialization pipeline for one cocycle over one pair.

    ``homomorphism`` memoises hom(g) per element and ``transfer`` memoises
    b(y) per configuration; c(g, y) on the empty configuration is read from
    the hom memo.  ``transfer_evaluations`` counts the transfers computed.
    Far elements are memoised per threshold.  ``run`` starts one lazy
    ``_far_scan`` for every threshold it can ask and advances it only as far
    as each request needs.  A threshold outside that scan, or a count above
    FAR_BATCH, gets a one-threshold scan.
    """

    def __init__(
        self,
        cache: BallCache,
        cocycle: CocycleSpec,
        seed: int = 0,
        ends_rmax: int = 4,
        ends_margin: int = 4,
    ):
        self.cache = cache
        self.cocycle = cocycle
        self.group = cocycle.group
        self.target = cocycle.target
        self.seed = seed
        self.ends_rmax = ends_rmax
        self.ends_margin = ends_margin
        self.table = TransferTable(cocycle.window)
        self._capacity: dict[int, int] = {}
        self._far: dict[int, list[GroupElement]] = {}  # threshold -> far elements
        self._scan = None  # the run's ``_far_scan``, filing into ``_far``
        self._scanned: float = 0  # the word length it has fully scanned
        self._zero = empty_pattern(cocycle.alphabet)
        self._hom: dict[object, GroupElement] = {}  # element payload -> hom
        self._transfers: dict[frozenset, GroupElement] = {}  # y.entries -> b(y)
        self.transfer_evaluations = 0

    # -- building blocks ------------------------------------------------------

    def homomorphism(self, g: GroupElement) -> GroupElement:
        """The cocycle evaluated at the fixed empty configuration."""
        value = self._hom.get(g.payload)
        if value is None:
            value = self._hom[g.payload] = evaluate(self.cocycle, g, self._zero)
        return value

    def _value(self, g: GroupElement, y: Pattern) -> GroupElement:
        """c(g, y); on the empty configuration, the memoised hom(g)."""
        if y.is_empty():
            return self.homomorphism(g)
        return evaluate(self.cocycle, g, y)

    def capacity_at(self, r: int) -> int:
        if r not in self._capacity:
            self._capacity[r] = capacity(self.cache, r).value
        return self._capacity[r]

    def far_element(self, threshold: int) -> GroupElement:
        """First element in shortlex order with both coset norms > threshold."""
        found = self._far_candidates(threshold, 1)
        if not found:
            raise NotFoundError(
                f"no far element for threshold {threshold} within word radius "
                f"{threshold + FAR_SLACK}"
            )
        return found[0]

    def _far_complete(self, t: int) -> bool:
        """Whether t's list is full or the run's scan passed its word radius."""
        found = self._far.get(t)
        return found is not None and (
            len(found) >= FAR_BATCH or self._scanned >= t + FAR_SLACK
        )

    def _far_candidates(self, threshold: int, count: int) -> list[GroupElement]:
        """The first ``count`` far elements in shortlex order, memoised per
        threshold.  The run's scan is advanced only as far as the threshold
        needs; a threshold outside it, or a count above FAR_BATCH, is
        answered by a scan of its own."""
        found = self._far.get(threshold)
        if found is not None and self._scan is not None:
            while not self._far_complete(threshold):
                self._scanned = next(self._scan, float("inf"))
        # a list shorter than FAR_BATCH is final: its word ball is exhausted
        if found is None or FAR_BATCH <= len(found) < count:
            found = self._far[threshold] = []
            graph, batch = self.cache.at_least(threshold), max(count, FAR_BATCH)
            for _ in _far_scan(self.group, graph, {threshold: found}, FAR_SLACK, batch):
                pass
        return found[:count]

    def _norm(self, y: Pattern) -> int:
        """y's support norm, in one pass over its entries; the cache grows one
        radius at a time while a cell is missing, and the vertex budget bounds
        the growth."""
        graph, best = self.cache.at_least(0), 0
        for c, _ in y.entries:
            while (v := graph.index.get(c.rep.payload)) is None:
                graph = self.cache.at_least(graph.radius + 1)
            best = max(best, graph.norm_of[v])
        return best

    def _pull_back(self, g: GroupElement, y: Pattern) -> GroupElement:
        """c(g, y)^-1 * hom(g), the transfer value when g is far enough."""
        val = self._value(g, y)
        return self.target.multiply(self.target.invert(val), self.homomorphism(g))

    def transfer(self, y: Pattern) -> GroupElement:
        """b(y) = c(g, y)^-1 * hom(g) for a sufficiently far g."""
        value = self._transfers.get(y.entries)
        if value is None:
            threshold = self.capacity_at(self._norm(y) + self.cocycle.window)
            g = self.far_element(threshold)
            self.transfer_evaluations += 1
            value = self._transfers[y.entries] = self._pull_back(g, y)
        return value

    def transfer_extended(self, y: Pattern) -> GroupElement:
        """b on arbitrary configurations, through the 3L-window truncation."""
        graph = self.cache.at_least(3 * self.cocycle.window)
        region = window_region(graph, 3 * self.cocycle.window)
        truncated = restrict(y, region)
        value = self.table.entries[pattern_key(truncated)] = self.transfer(truncated)
        return value

    # -- verifications ---------------------------------------------------------

    def verify_choice_independence(self, y: Pattern, trials: int = 5) -> bool:
        """Distinct qualifying far elements must produce the same transfer."""
        threshold = self.capacity_at(self._norm(y) + self.cocycle.window)
        candidates = self._far_candidates(threshold, trials)
        if len(candidates) < 2:
            raise NotFoundError(
                f"fewer than two far elements at threshold {threshold}"
            )
        return len({self._pull_back(g, y) for g in candidates}) == 1

    def verify_cohomology(self, g: GroupElement, y: Pattern) -> bool:
        """Exact check of c(g, y) = b(g y) * hom(g) * b(y)^-1; one walk along
        g's word gives both c(g, y) and g y."""
        if y.is_empty():
            lhs, moved = self.homomorphism(g), y
        else:
            lhs, moved = walk_word(
                self.cocycle, g.word, y, cells=self.cache.at_least(0)
            )
        rhs = self.target.multiply(
            self.transfer(moved),
            self.target.multiply(
                self.homomorphism(g), self.target.invert(self.transfer(y))
            ),
        )
        return lhs == rhs

    def verify_locality(self, trials: int, rng: random.Random) -> bool:
        """Pairs agreeing on the 3L ball must share their transfer value."""
        window = self.cocycle.window
        graph = self.cache.at_least(3 * window + 2)
        region = window_region(graph, 3 * window)
        lo, hi = graph.ball_size(3 * window), graph.ball_size(3 * window + 2)
        outside = graph.cosets_slice(lo, hi)
        for _ in range(trials):
            y = random_pattern(graph, self.cocycle.alphabet, 3 * window + 2, rng)
            inner = restrict(y, region)
            y2 = scatter_junk(inner, outside, rng)
            if self.transfer(y) != self.transfer(inner):
                return False
            if self.transfer(y2) != self.transfer(inner):
                return False
        return True

    # -- the pipeline ----------------------------------------------------------

    def run(
        self,
        cohomology_samples: int = 50,
        independence_trials: int = 5,
        locality_trials: int = 10,
        max_word: int = 4,
        max_norm: int = 3,
    ) -> tuple[TransferTable, TrivializeReport]:
        if cohomology_samples < 0:
            # a negative count would sweep nothing and report a pass
            raise ValueError(
                f"cohomology_samples must be nonnegative, got {cohomology_samples}"
            )
        report = TrivializeReport(self.seed)
        rng = random.Random(self.seed)
        cocycle = self.cocycle
        group = self.group

        try:
            ends = estimate_ends(self.cache, self.ends_rmax, self.ends_margin)
        except BallTooLargeError as err:
            # a row that fits can already rule out exact 1
            row = row_ruling_out_one_end(self.cache, self.ends_rmax, self.ends_margin)
            if row is None:
                raise
            raise NotOneEndedError(
                f"trivialization requires a one-ended pair; {err}, and row "
                f"r={row.r} has {row.sphere_touching} sphere-touching components "
                f"at probe radius {row.probe_radius}, so the estimate cannot "
                "be exact 1"
            ) from None
        if not ends.is_exactly(1):
            raise NotOneEndedError(
                f"trivialization requires a one-ended pair; estimate was "
                f"{ends.describe()}"
            )
        report.add("one_ended", True, ends.describe())

        # this line and the later two added as True state facts fixed by
        # construction; the module docstring names them and their tests
        report.add("fixed_point", True)

        relations = verify_relations(cocycle, self.cache, RELATION_SAMPLES, rng)
        report.add(
            "relations",
            relations.ok,
            f"{relations.checked} relator evaluations",
        )
        if not relations.ok:
            return self.table, report

        for letter in group.s_letters:
            self.table.hom[letter] = self.homomorphism(
                group.letter_element(letter)
            )
        report.add("homomorphism_on_relators", True)

        # every pattern handed to `transfer` from here on has norm <= max_norm
        # + max_word (a translate g y) or <= 3 * window + 2 (locality); growing
        # the balls for the largest one here makes the largest ball, and so
        # the run's memory, independent of which patterns the seed draws
        reach = max(max_norm + max_word, 3 * cocycle.window + 2)
        ceiling = self.capacity_at(reach + cocycle.window)
        self._far, self._scanned = {t: [] for t in range(ceiling + 1)}, 0
        graph = self.cache.at_least(ceiling)
        self._scan = _far_scan(group, graph, self._far, FAR_SLACK, FAR_BATCH)
        report.add("transfer_at_fixed_point", True)

        # the sweep reads patterns of norm <= max_norm and truncation junk of
        # norm <= cut + 2 <= max_word + 3 * window + 2
        big = self.cache.at_least(max(3 * cocycle.window + max_word + 2, max_norm))
        sweep_ok = True
        tilde_ok = True
        consistency_ok = True
        planted_consts: set[GroupElement] = set()
        pd = cocycle.derivation if isinstance(cocycle.derivation, PlantedData) else None
        for _ in range(cohomology_samples):
            y = random_pattern(big, cocycle.alphabet, max_norm, rng)
            g = group.element_from_word(_draw_word(group.s_letters, max_word, rng))
            if not self.verify_cohomology(g, y):
                sweep_ok = False
            ext = self.transfer_extended(y)
            if ext != self.transfer(y):
                consistency_ok = False
            if pd is not None:
                planted_consts.add(self.target.multiply(pd.b0_of(y), ext))
            # literal form of the extension step: values must only depend on
            # the configuration out to |g^-1 K| + 3*window, so junk planted
            # beyond that radius cannot change the evaluation; |g^-1 K| <=
            # |g| <= max_word, so ball(cut + 2) lies inside big
            cut = big.norm(coset_of(group.invert(g))) + 3 * cocycle.window
            zone = big.cosets_slice(big.ball_size(cut), big.ball_size(cut + 2))
            if cut < max_norm:  # the zone meets y's support; junk goes off it
                support = y.support()
                zone = [c for c in zone if c not in support]
            y_big = scatter_junk(y, zone, rng)
            tilde = restrict(y_big, window_region(big, cut))
            if self._value(g, y_big) != self._value(g, tilde):
                tilde_ok = False

        report.add("cohomology_sweep", sweep_ok, f"{cohomology_samples} samples")
        report.add("extension_consistency", consistency_ok)
        report.add("truncation_agreement", tilde_ok)

        ind_ok = True
        for _ in range(3):
            y = random_pattern(big, cocycle.alphabet, max_norm, rng)
            if not self.verify_choice_independence(y, independence_trials):
                ind_ok = False
        report.add("choice_independence", ind_ok, f"{independence_trials} far elements")

        report.add(
            "window_locality", self.verify_locality(locality_trials, rng),
            f"{locality_trials} truncation pairs",
        )

        if pd is not None:
            report.add(
                "planted_offset_constant",
                len(planted_consts) <= 1,  # an empty sweep has none
                f"{len(planted_consts)} distinct offsets over sweep",
            )
            if self.target.is_abelian:
                hom_match = all(
                    self.table.hom[l] == pd.hom_images[l] for l in group.s_letters
                )
                report.add("planted_homomorphism_recovered", hom_match)

        return self.table, report

