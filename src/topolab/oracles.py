"""Definitional oracles for `verify` and the tests.

The production path decides the properties of a finite T0 space by the
finite theorems (see `products_properties.predicates`) and reads its
closed-set families off the specialization order (see `families`).  The
checks here re-derive both from the definitions by enumeration, so that a
theorem checker never uses the theorem it checks; no module on the
production path imports this one.  A membership oracle returns a Verdict:
passed, failed, or skipped with a reason naming the budget below that
stopped it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    bit_indices,
    canonical_masks,
    mask_key,
)
from .errors import ResourceCapError
from .families import CategoryTag
from .hyperspaces import ClosedFamily, SmythSpace, box, diamond

SOBER_BUDGET = 250_000        # |closed sets|^2: pairs tested for irreducibility
D_SPACE_BUDGET = 2_000_000    # 2^n * n^2: subsets tested for directedness
WF_MAX_COMPACTS = 32          # nonempty compact saturated sets in the sweep
WF_MAX_FAMILY = 3             # members of each filtered family in the sweep
LOCAL_BUDGET = 2_000_000      # n * |opens| and |opens|^2: pairs tested
RUDIN_MAX_POINTS = 5          # carrier size of the filtered-family Rudin check
DCPO_MAX_POINTS = 10          # poset size of the 2^n directed-subset checks


@dataclass(frozen=True)
class Verdict:
    """The outcome of an oracle: `holds` is True (passed), False (failed) or
    None (skipped, and `reason` names the budget that stopped it)."""

    holds: Optional[bool]
    reason: str

    def expect(self, value: bool) -> Verdict:
        """The verdict of comparing this oracle's answer with `value`."""
        if self.holds is None:
            return self
        return Verdict(self.holds == value, f"oracle {self.holds}: {self.reason}")


def _over(measure: str, size: int, budget: int) -> Verdict:
    return Verdict(None, f"{measure} = {size} exceeds the budget {budget}")


def conjunction(verdicts: Iterable[Verdict]) -> Verdict:
    """Every verdict holds: failed if one fails, else skipped if one skipped."""
    verdicts = list(verdicts)
    for state in (False, None):
        for v in verdicts:
            if v.holds is state:
                return v
    return Verdict(True, "; ".join(v.reason for v in verdicts))


# ---------------------------------------------------------------------------
# closed-set families by enumeration


def is_irreducible_closed_set(x: FiniteSpace, a: int) -> bool:
    """Nonempty closed `a` is irreducible: it is not the union of two proper
    closed subsets.  Checked by ranging the first component over the closed
    subsets of `a`; the second can then be taken to be cl(a minus first)."""
    if a == 0 or not x.is_closed(a):
        return False
    for f in x.closed_sets:
        if f != a and f & ~a == 0:
            if x.closure(a & ~f) != a:
                return False
    return True


def is_irreducible_subset(x: FiniteSpace, a: int) -> bool:
    """A subset is irreducible iff its closure is an irreducible closed set."""
    return a != 0 and is_irreducible_closed_set(x, x.closure(a))


def irreducible_closed_sets(x: FiniteSpace) -> tuple[int, ...]:
    """Irr_c: the closed sets that pass the irreducibility test, in
    canonical order."""
    return tuple(a for a in x.closed_sets if is_irreducible_closed_set(x, a))


def _subset_tables(up: Sequence[int], down: Sequence[int]) -> tuple[list[int], bytearray]:
    """The closure of every subset of a finite order, and whether the subset
    is directed (nonempty, and every two members have an upper bound in it),
    both indexed by mask and both read off smaller subsets.

    The closure of S is that of S without its lowest point, joined with that
    point's down-row.  For directedness take a minimal member a of S, a
    member outside the union of the strict up-rows of S's members (a second
    table of the same shape).  S is directed iff S - a is empty, or S - a is
    directed and every member of S - a has an upper bound in common with a
    inside S, that is, lies in the closure of up(a) & S.  Minimality makes
    this hold under any labelling: a bounds no pair of S - a from above."""
    size = 1 << len(up)
    closures = [0] * size
    strict_above = [0] * size  # the union of the strict up-rows of the members
    directed = bytearray(size)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        closures[mask] = closures[mask ^ low] | down[i]
        above = strict_above[mask] = strict_above[mask ^ low] | (up[i] ^ low)
        a = mask & ~above
        a &= -a
        rest = mask ^ a
        directed[mask] = not rest or (
            directed[rest] and rest & ~closures[up[a.bit_length() - 1] & mask] == 0)
    return closures, directed


def directed_closure_masks(x: FiniteSpace) -> frozenset[int]:
    """D_c: closures of every directed subset, over all 2^n subsets."""
    closures, directed = _subset_tables(x.up_masks, x.down_masks)
    return frozenset(cl for cl, d in zip(closures, directed) if d)


def _minimal(meeting: Sequence[int]) -> list[int]:
    """The minimal members of a canonically sorted family, in its order."""
    out = []
    for i, a in enumerate(meeting):
        if not any(b & ~a == 0 for b in meeting[:i]):
            out.append(a)
    return out


def minimal_meeting_all(closed: Sequence[int], compacts: Sequence[int]) -> list[int]:
    """Minimal members, in canonical order, of the closed sets meeting every
    compact in `compacts`.  `closed` must be canonically sorted."""
    return _minimal([a for a in closed if all(a & k for k in compacts)])


# ---------------------------------------------------------------------------
# membership and property oracles


def sober(x: FiniteSpace) -> Verdict:
    """Every irreducible closed set is the closure of exactly one point."""
    work = len(x.closed_sets) ** 2
    if work > SOBER_BUDGET:
        return _over("|closed sets|^2", work, SOBER_BUDGET)
    for a in irreducible_closed_sets(x):
        if x.down_masks.count(a) != 1:
            return Verdict(False, f"irreducible closed {x.render_subset(a)} has "
                                  f"{x.down_masks.count(a)} generic points")
    return Verdict(True, "every irreducible closed set is a unique point closure")


def d_space(x: FiniteSpace) -> Verdict:
    """The closure of every directed subset is a point closure."""
    work = (1 << x.n) * x.n * x.n
    if work > D_SPACE_BUDGET:
        return _over("2^n * n^2", work, D_SPACE_BUDGET)
    extra = directed_closure_masks(x) - frozenset(x.down_masks)
    if extra:
        a = min(extra, key=mask_key)
        return Verdict(False, f"directed closure {x.render_subset(a)} is not a point closure")
    return Verdict(True, "directed closures collapse to point closures")


def _is_filtered(family: tuple[int, ...]) -> bool:
    """The intersection of any two members contains some member."""
    for a, b in itertools.combinations(family, 2):
        ab = a & b
        for m in family:
            if m & ~ab == 0:
                break
        else:
            return False
    return True


def _filtered_families(q: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Every filtered family of at most `max_size` members of `q`, by size,
    then in the order of `itertools.combinations`."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(q, size):
            if _is_filtered(combo):
                yield combo


def well_filtered(x: FiniteSpace) -> Verdict:
    """Sweep every filtered family of at most WF_MAX_FAMILY compact saturated
    sets: an open containing the intersection must contain a member."""
    opens = x.opens
    q = [u for u in opens if u]  # saturated = upper = open; finite sets are compact
    if len(q) > WF_MAX_COMPACTS:
        return _over("|Q|", len(q), WF_MAX_COMPACTS)
    # bit j of supersets[k]: the open opens[j] contains k; an intersection
    # of opens is an open, so every intersection below has an entry
    supersets = {k: sum(1 << j for j, u in enumerate(opens) if k & ~u == 0) for k in opens}
    count = 0
    for combo in _filtered_families(q, WF_MAX_FAMILY):
        count += 1
        inter = x.full_mask
        holding = 0  # the opens containing some member
        for k in combo:
            inter &= k
            holding |= supersets[k]
        if supersets[inter] & ~holding:
            return Verdict(False, f"violating family {[x.render_subset(k) for k in combo]}")
    return Verdict(True, f"sweep over {count} filtered families agreed")


def compact(x: FiniteSpace) -> Verdict:
    """Every open cover has a finite subcover."""
    return Verdict(True, f"an open cover is a set of the {len(x.opens)} opens, so finite")


def local_compactness(x: FiniteSpace) -> Verdict:
    """C-space, locally hypercompact and locally compact at once: for each
    point i of each open u, the principal upper set of i (finite, hence
    compact, and saturated) fits inside u with i in its interior."""
    work = x.n * len(x.opens)
    if work > LOCAL_BUDGET:
        return _over("n * |opens|", work, LOCAL_BUDGET)
    for i, up_i in enumerate(x.up_masks):
        for u in x.opens:
            if u >> i & 1 and not (up_i & ~u == 0 and x.interior(up_i) >> i & 1):
                return Verdict(False, f"no principal upper set fits between "
                                      f"{x.points[i]} and {x.render_subset(u)}")
    return Verdict(True, "each principal upper set fits inside the opens of its point")


def core_compact(x: FiniteSpace) -> Verdict:
    """Every open is the union of the opens way below it.  A directed family
    of opens of a finite space contains its union, so u is way below v iff
    u is a subset of v."""
    work = len(x.opens) ** 2
    if work > LOCAL_BUDGET:
        return _over("|opens|^2", work, LOCAL_BUDGET)
    for v in x.opens:
        union = 0
        for u in x.opens:
            if u & ~v == 0:
                union |= u
        if union != v:
            return Verdict(False, f"{x.render_subset(v)} is not the union of its way-below opens")
    return Verdict(True, "every open is the union of its way-below opens")


def category(x: FiniteSpace, c: CategoryTag) -> Verdict:
    """Membership of `x` in the category `c`, from its definition."""
    return {CategoryTag.SOBRIETY: sober, CategoryTag.D_SPACE: d_space,
            CategoryTag.WELL_FILTERED: well_filtered}[c](x)


def flag_verdicts(x: FiniteSpace) -> dict[str, Verdict]:
    """The oracle verdict for each flag of a property report."""
    local = local_compactness(x)
    return {"sober": sober(x), "d_space": d_space(x), "well_filtered": well_filtered(x),
            "compact": compact(x), "locally_hypercompact": local, "c_space": local,
            "core_compact": core_compact(x), "locally_compact": local}


# ---------------------------------------------------------------------------
# Rudin sets


def rudin_sets_by_filtered_enumeration(x: FiniteSpace, max_size: int = 3) -> frozenset[int]:
    """Union of the minimal meeting sets over every filtered family of
    compact saturated sets of size at most `max_size`; `max_size=1` is the
    single-set reduction.  A family's meeting closed sets are the AND of
    its members' bitsets over the closed sets; the minimal ones are found
    once per distinct bitset."""
    closed = x.closed_sets
    q = [u for u in x.opens if u]
    # bit j of meets[k]: the closed set closed[j] meets k
    meets = {k: sum(1 << j for j, a in enumerate(closed) if a & k) for k in q}
    every = (1 << len(closed)) - 1
    minimal: dict[int, list[int]] = {}
    found: set[int] = set()
    for combo in _filtered_families(q, max_size):
        meeting = every
        for k in combo:
            meeting &= meets[k]
        got = minimal.get(meeting)
        if got is None:
            got = minimal[meeting] = _minimal([closed[j] for j in bit_indices(meeting)])
        found.update(got)
    return frozenset(found)


def rudin_cross_check(x: FiniteSpace, rd: frozenset[int]) -> Verdict:
    """`rd`, the Rudin sets by the single-set reduction, equals the
    enumeration over filtered families of size up to 3."""
    if x.n > RUDIN_MAX_POINTS:
        return _over("n", x.n, RUDIN_MAX_POINTS)
    agree = rudin_sets_by_filtered_enumeration(x) == rd
    return Verdict(agree, "single-set reduction " + ("agrees with" if agree else "disagrees with")
                   + " filtered-family enumeration")


# ---------------------------------------------------------------------------
# raw hyperspace lattices


def _close(family: set[int], op, caps: Caps, what: str) -> set[int]:
    """The closure of `family` under the binary operation `op`."""
    while True:
        grown = family | {op(a, b) for a in family for b in family}
        if len(grown) > caps.max_opens:
            raise ResourceCapError(f"{what} open lattice", "max_opens", caps.max_opens)
        if len(grown) == len(family):
            return family
        family = grown


def diamond_lattice(g: ClosedFamily, caps: Caps | None = None) -> tuple[int, ...]:
    """The definitional open family of P_H(G): {diamond(U)} closed under
    intersections, then unions."""
    caps = caps or default_caps()
    family = _close({diamond(g, u) for u in g.base.opens}, int.__and__, caps, "hyperspace")
    return canonical_masks(_close(family, int.__or__, caps, "hyperspace"))


def box_lattice(s: SmythSpace, caps: Caps | None = None) -> tuple[int, ...]:
    """The definitional open family of P_S: unions of the box subbasis
    (which is already closed under intersection)."""
    caps = caps or default_caps()
    return canonical_masks(_close({box(s, u) for u in s.base.opens}, int.__or__, caps,
                                  "Smyth power"))


# ---------------------------------------------------------------------------
# canonical embeddings


def _embedding_laws(f: ContinuousMap, x: FiniteSpace, basic, what: str) -> Verdict:
    """`f` pulls each basic open basic(U) back to the open U of `x` and
    carries U onto basic(U) within its image."""
    image = f.image_mask(x.full_mask)
    for u in x.opens:
        b = basic(u)
        if f.preimage_mask(b) != u:
            return Verdict(False, f"{what} preimage of {x.render_subset(u)} differs from the open")
        if f.image_mask(u) != b & image:
            return Verdict(False, f"{what} is not open onto its image")
    return Verdict(True, f"{what} laws hold on {len(x.opens)} opens")


def eta_laws(f: ContinuousMap, g: ClosedFamily) -> Verdict:
    """The diamond laws of the embedding x -> cl{x} into P_H(g)."""
    return _embedding_laws(f, g.base, lambda u: diamond(g, u), "eta")


def xi_laws(f: ContinuousMap, s: SmythSpace) -> Verdict:
    """The box laws of the embedding x -> up x into P_S(x), whose image is
    the set of supercompact members."""
    if f.image_mask(s.base.full_mask) != sum(1 << s.point_of_member(m)
                                             for m in s.supercompact_members()):
        return Verdict(False, "xi image differs from the supercompact members")
    return _embedding_laws(f, s.base, lambda u: box(s, u), "xi")


# ---------------------------------------------------------------------------
# dcpo completion


def _sup_of_directed(p: FiniteSpace, mask: int) -> Optional[int]:
    return next((i for i in bit_indices(mask) if mask & ~p.down_masks[i] == 0), None)


def dcpo_completion(p: FiniteSpace, q: FiniteSpace, unit: tuple[int, ...]) -> Verdict:
    """`q` is a dcpo and the map `unit` from `p` to `q` preserves directed
    suprema: every directed subset of either poset has a supremum (on a
    finite poset, a maximum), and `unit` sends each one of `p` to that of
    the image."""
    if max(p.n, q.n) > DCPO_MAX_POINTS:
        return _over("n", max(p.n, q.n), DCPO_MAX_POINTS)
    _, q_directed = _subset_tables(q.up_masks, q.down_masks)
    for mask in range(1, 1 << q.n):
        if q_directed[mask] and _sup_of_directed(q, mask) is None:
            return Verdict(False, "a directed subset of the completion has no supremum")
    _, p_directed = _subset_tables(p.up_masks, p.down_masks)
    for mask in range(1, 1 << p.n):
        if p_directed[mask]:
            sup = _sup_of_directed(p, mask)
            image = sum(1 << k for k in {unit[i] for i in bit_indices(mask)})
            if sup is None or _sup_of_directed(q, image) != unit[sup]:
                return Verdict(False, "the unit does not preserve a directed supremum")
    return Verdict(True, "the unit preserves the directed suprema of a dcpo")
