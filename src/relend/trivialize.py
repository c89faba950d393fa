"""Constructive trivialization of block-coded cocycles over one-ended pairs.

The pipeline: certify the pair is one-ended, check the empty configuration
is fixed, extract the homomorphism part by evaluating at that fixed point,
then recover the transfer map by pulling each configuration far away with a
group element whose coset norm (both ways) beats the capacity threshold.
Every step is an exact group-element identity; there are no tolerances.
A ``Trivializer`` computes each pure value once per run: hom(g) per element
and b(y) per configuration are memoised on the instance, and one scan of
the word ball, grown as larger thresholds are asked, finds the far
elements of every threshold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coset_graph import BallCache, CosetGraph
from .cocycles import (
    CocycleSpec,
    PlantedData,
    evaluate,
    evaluate_word,
    pattern_key,
    verify_relations,
    walk_word,
    window_region,
)
from .ends import capacity, estimate_ends
from .errors import NotFoundError, NotOneEndedError
from .groups import Group, GroupElement, Letter, coset_of
from .patterns import (
    Pattern,
    empty_pattern,
    random_pattern,
    restrict,
    scatter_junk,
    verify_coinduced_fixed_point,
)


# Far elements the scan files per threshold: enough for ``run``'s default
# choice-independence trials, so those reuse what ``far_element`` found.
FAR_BATCH = 5


class _FarScan:
    """One breadth-first scan of the word ball that answers every threshold.

    Elements are discovered in ``iter_ball`` order: sphere by sphere, the
    neighbours of each element in ``s_letters`` order.  An element g of word
    length d is far for a threshold t when both |gK| and |g^-1 K| exceed t,
    and the search for t stops at word length t + slack; as |gK| <= |g|, g
    is tested only for the open thresholds t in [d - slack, d - 1].  A
    threshold joins once the coset graph reaches its radius, and only while
    the scan has discovered nothing it could use (t >= d); it stays open
    until ``batch`` elements are filed under it or its word radius is
    passed.  A neighbour of sphere d lies in sphere d - 1, d or d + 1, so
    the scan keeps only its last three spheres; ``_release`` drops them.
    The methods are module-private, so that perfbench's per-layer trace
    charges the scan to ``far_element``, as it did the per-threshold scans.
    """

    def __init__(self, group: Group, slack: int, batch: int):
        self.group, self.slack, self.batch = group, slack, batch
        self.found: dict[int, list[GroupElement]] = {}  # threshold -> far elements
        self.sphere = 0  # word length of the elements being discovered
        self.passed = 0  # every sphere up to this one is fully discovered
        self._graph = None  # the coset graph, while ``_answer`` runs
        self._steps = self._scan()

    def _complete(self, t: int) -> bool:
        return len(self.found[t]) >= self.batch or self.passed >= t + self.slack

    def _answer(self, t: int, graph: CosetGraph) -> list[GroupElement] | None:
        """The far elements for t, scanning on as far as t needs; None when t
        missed this scan, or the scan was released before t was complete."""
        for u in range(self.sphere, graph.radius + 1):
            self.found.setdefault(u, [])
        if t not in self.found or not (self._steps or self._complete(t)):
            return None
        self._graph = graph
        try:
            while not self._complete(t):
                next(self._steps)
        finally:
            self._graph = None
        return self.found[t]

    def _covers(self, ceiling: int) -> bool:
        """Whether every threshold up to the ceiling is answered."""
        return all(u in self.found and self._complete(u) for u in range(ceiling + 1))

    def _release(self) -> None:
        self._steps = None

    def _open(self, d: int) -> list[int]:
        """The thresholds an element of word length d is tested for."""
        found, batch = self.found, self.batch
        return [
            t for t in range(max(d - self.slack, 0), d)
            if t in found and len(found[t]) < batch
        ]

    def _far_lists(self, h, tests: list[int]) -> list[list[GroupElement]]:
        """The lists of the thresholds in ``tests`` that the element with
        payload h is far for.  A coset is near t when its graph id is below
        ball_size(t); a coset outside the built graph counts as far."""
        group, graph = self.group, self._graph
        find, top = graph.index.get, graph.vertex_count()
        rep = group._coset_rep_payload
        near = min(find(rep(h), top), find(rep(group._inv_payload(h)), top))
        return [self.found[t] for t in tests if near >= graph.ball_size(t)]

    def _scan(self):
        """Yields after each element it files and after each sphere."""
        group, mul = self.group, self.group._mul_payload
        gens = [group._letter_payloads[l] for l in group.s_letters]
        one = group.identity().payload
        older, last, sphere = set(), {one}, [one]
        while sphere:
            d = self.sphere = self.sphere + 1
            seen, nxt, tests = set(), [], self._open(d)
            for g in sphere:
                for s in gens:
                    h = mul(g, s)
                    if h in seen or h in last or h in older:
                        continue
                    seen.add(h)
                    nxt.append(h)
                    lists = self._far_lists(h, tests) if tests else None
                    if lists:
                        e = GroupElement(group, h)
                        for out in lists:
                            out.append(e)
                        yield
                        tests = self._open(d)
            self.passed = d
            yield
            older, last, sphere = last, seen, nxt
        self.passed = float("inf")  # a finite group: the whole ball is scanned
        yield


@dataclass
class TransferTable:
    """Recovered trivialization data: hom images and transfer values."""

    window: int
    hom: dict[Letter, GroupElement] = field(default_factory=dict)
    entries: dict[frozenset, GroupElement] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class TrivializeReport:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

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
    Far elements come from one ``_FarScan`` of the word ball, grown as
    larger thresholds are asked and memoised per threshold; ``run`` caps
    the thresholds it can still ask, so the scan's spheres are dropped once
    every threshold up to the cap is answered.
    """

    def __init__(
        self,
        cache: BallCache,
        cocycle: CocycleSpec,
        seed: int = 0,
        ends_rmax: int = 4,
        ends_margin: int = 4,
        far_search_slack: int = 4,
    ):
        self.cache = cache
        self.cocycle = cocycle
        self.group = cocycle.group
        self.target = cocycle.target
        self.seed = seed
        self.ends_rmax = ends_rmax
        self.ends_margin = ends_margin
        self.far_search_slack = far_search_slack
        self.table = TransferTable(cocycle.window)
        self._capacity: dict[int, int] = {}
        # threshold -> (far elements found, how many the scan looked for)
        self._far: dict[int, tuple[list[GroupElement], int]] = {}
        self._scan: _FarScan | None = None
        # the largest threshold the run will ask for, once known
        self._far_ceiling: int | None = None
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
                f"{threshold + self.far_search_slack}"
            )
        return found[0]

    def _far_candidates(self, threshold: int, count: int) -> list[GroupElement]:
        """The first ``count`` far elements in shortlex order, memoised per
        threshold.  One scan answers every threshold; a threshold that
        missed it, or a count above its batch, starts a new scan."""
        memo = self._far.get(threshold)
        # a scan that filed fewer than it looked for exhausted the word ball
        if memo is None or (count > memo[1] and len(memo[0]) == memo[1]):
            graph = self.cache.at_least(threshold)
            scan = self._scan
            found = None
            if scan is not None and count <= scan.batch:
                found = scan._answer(threshold, graph)
            if found is None:
                batch = max(count, FAR_BATCH)
                scan = self._scan = _FarScan(self.group, self.far_search_slack, batch)
                found = scan._answer(threshold, graph)
            memo = self._far[threshold] = (found, scan.batch)
            self._release_far_scan()
        return memo[0][:count]

    def _limit_far_thresholds(self, ceiling: int) -> None:
        """Note that the run asks for no threshold above the ceiling from
        here on: once every threshold up to it is answered, the scan's
        spheres are dropped, and a larger threshold would start a new scan."""
        self._far_ceiling = ceiling
        self._release_far_scan()

    def _release_far_scan(self) -> None:
        ceiling, scan = self._far_ceiling, self._scan
        if ceiling is not None and scan is not None and scan._covers(ceiling):
            scan._release()

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
        relation_samples: int = 10,
        independence_trials: int = 5,
        locality_trials: int = 10,
        max_word: int = 4,
        max_norm: int = 3,
    ) -> tuple[TransferTable, TrivializeReport]:
        report = TrivializeReport(self.seed)
        rng = random.Random(self.seed)
        cocycle = self.cocycle
        group = self.group

        ends = estimate_ends(self.cache, self.ends_rmax, self.ends_margin)
        if not ends.is_exactly(1):
            raise NotOneEndedError(
                f"trivialization requires a one-ended pair; estimate was "
                f"{ends.describe()}"
            )
        report.add("one_ended", True, ends.describe())

        fixed = verify_coinduced_fixed_point(
            group, cocycle.alphabet, cocycle.alphabet.x0, radius=3
        )
        report.add("fixed_point", fixed)
        if not fixed:
            return self.table, report

        relations = verify_relations(cocycle, self.cache, relation_samples, rng)
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
        # along each relator's own word: a relator's element is the identity,
        # whose canonical word is empty
        hom_ok = all(
            evaluate_word(cocycle, rel, self._zero).is_identity()
            for rel in group.relator_words()
        )
        report.add("homomorphism_on_relators", hom_ok)

        report.add(
            "transfer_at_fixed_point",
            self.transfer(self._zero).is_identity(),
        )

        # every pattern handed to `transfer` below has norm <= max_norm +
        # max_word (a translate g y) or <= 3 * window + 2 (locality); growing
        # the balls for the largest one here makes the largest ball, and so
        # the run's memory, independent of which patterns the seed draws
        reach = max(max_norm + max_word, 3 * cocycle.window + 2)
        self._limit_far_thresholds(self.capacity_at(reach + cocycle.window))
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
            g = group.element_from_word(
                rng.choice(group.s_letters) for _ in range(rng.randrange(0, max_word + 1))
            )
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

        # the checks left read patterns of norm <= max_norm or 3 * window + 2
        self._limit_far_thresholds(
            self.capacity_at(max(max_norm, 3 * cocycle.window + 2) + cocycle.window)
        )
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

