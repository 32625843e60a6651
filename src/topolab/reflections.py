"""Reflections of finite T0 spaces into the sober, d-space, and well-filtered
categories: the hyperspace construction on the K-set family, the canonical
embedding, extension of maps along it, the functorial action, a universal
property verifier, and the dcpo completion of finite posets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence, Union

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    _canonical_form,
    bit_indices,
    check_continuous,
    enumerate_continuous_maps,
    from_poset,
)
from .errors import ContractViolation, UnsupportedSpaceError, ValidationError
from .families import CategoryTag, k_family
from .hyperspaces import ClosedFamily, HyperSpace, _inclusion_up_rows, eta, lower_vietoris


@dataclass(frozen=True)
class Reflection:
    """X^k = P_H(K(X)) together with the canonical embedding x -> cl{x}."""

    category: CategoryTag
    base: FiniteSpace
    family: ClosedFamily
    hyper: HyperSpace
    embedding: ContinuousMap

    @property
    def space(self) -> FiniteSpace:
        return self.hyper.space


def reflect(x: FiniteSpace, c: CategoryTag) -> Reflection:
    """Build the reflection of `x` for the category `c` and verify that the
    embedding is an order embedding (`oracles.eta_laws` checks the diamond
    laws open by open).  The result is a finite T0 space, hence an object of
    every category."""
    family = k_family(x, c)
    hyper = lower_vietoris(family)
    embedding = eta(family, hyper)
    return Reflection(c, x, family, hyper, embedding)


def extend(f: ContinuousMap, r: Reflection, caps: Caps | None = None,
           verify_unique: bool = False) -> ContinuousMap:
    """The unique continuous f* on the reflection with f* o eta = f.

    The value on a family member A is the unique target point whose closure
    equals the closure of f(A); failure to find one means the target is not
    actually an object of the category.  With `verify_unique` the uniqueness
    claim is additionally checked against every continuous map out of the
    reflection (a finite oracle; costs a full map enumeration).
    """
    caps = caps or default_caps()
    if f.source != r.base:
        raise ValidationError("map source must be the reflected space")
    y = f.target
    closure_to_point = {y.down_masks[i]: i for i in range(y.n)}
    mapping = []
    for a in r.family.members:
        cl_image = y.closure(f.image_mask(a))
        if cl_image not in closure_to_point:
            raise ContractViolation(
                "target admits no point whose closure is "
                f"{y.render_subset(cl_image)}; it is not a "
                f"{r.category.value}-space"
            )
        mapping.append(closure_to_point[cl_image])
    fstar = ContinuousMap(r.space, y, tuple(mapping))
    if not check_continuous(fstar).ok:
        raise ContractViolation("extension is not continuous")
    if fstar.after(r.embedding).mapping != f.mapping:
        raise ContractViolation("extension does not factor the original map")
    if verify_unique:
        matches = [g for g in enumerate_continuous_maps(r.space, y, caps)
                   if g.after(r.embedding).mapping == f.mapping]
        if [g.mapping for g in matches] != [fstar.mapping]:
            raise ContractViolation(
                f"expected exactly one factorization, found {len(matches)}"
            )
    return fstar


def functor_map(f: ContinuousMap, c: CategoryTag,
                source_reflection: Reflection | None = None,
                target_reflection: Reflection | None = None) -> ContinuousMap:
    """The action on reflections: A -> cl(f(A)), the unique continuous map
    making the naturality square with the two embeddings commute."""
    rx = source_reflection or reflect(f.source, c)
    ry = target_reflection or reflect(f.target, c)
    mapping = []
    for a in rx.family.members:
        b = f.target.closure(f.image_mask(a))
        if b not in ry.family:
            raise ContractViolation(
                "image closure of a K-set is not a K-set of the target"
            )
        mapping.append(ry.family.member_position(b))
    fk = ContinuousMap(rx.space, ry.space, tuple(mapping))
    if not check_continuous(fk).ok:
        raise ContractViolation("functorial action is not continuous")
    if fk.after(rx.embedding).mapping != ry.embedding.after(f).mapping:
        raise ContractViolation("naturality square does not commute")
    return fk


# ---------------------------------------------------------------------------
# universal property verification


@dataclass(frozen=True)
class UniversalPropertyReport:
    space_name: str
    category: CategoryTag
    targets: int
    maps_tested: int
    unique_factorizations: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and self.maps_tested == self.unique_factorizations


def universal_property_report(x: FiniteSpace, c: CategoryTag,
                              targets: Sequence[FiniteSpace] | None = None,
                              caps: Caps | None = None) -> UniversalPropertyReport:
    """For every continuous map from `x` into each target, count the
    continuous factorizations through the embedding; exactly one must exist.
    Targets default to the catalog of T0 spaces on at most 4 points; finite
    T0 spaces are sober, so every target belongs to every category."""
    caps = caps or default_caps()
    if targets is None:
        targets = sober_target_catalog(4)
    r = reflect(x, c)
    eta_table = r.embedding.mapping
    maps_tested = 0
    unique = 0
    violations: list[str] = []
    for y in targets:
        by_composite: dict[tuple[int, ...], int] = {}
        for g in enumerate_continuous_maps(r.space, y, caps):
            mapping = g.mapping
            key = tuple([mapping[v] for v in eta_table])
            by_composite[key] = by_composite.get(key, 0) + 1
        for f in enumerate_continuous_maps(x, y, caps):
            maps_tested += 1
            found = by_composite.get(f.mapping, 0)
            if found == 1:
                unique += 1
            else:
                violations.append(
                    f"{found} factorizations for {f.mapping} into "
                    f"{y.name or y.points}"
                )
    return UniversalPropertyReport(
        x.name or "space", c, len(targets), maps_tested, unique, tuple(violations)
    )


@cache
def _catalog(max_points: int) -> tuple[FiniteSpace, ...]:
    """The first order of each isomorphism class among the DAGs i -> j
    (i < j) on each size in turn, told apart by their canonical forms."""
    kept: list[FiniteSpace] = []
    forms: set[tuple[int, ...]] = set()
    for n in range(1, max_points + 1):
        labels = tuple(f"t{i}" for i in range(n))
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [(labels[i], labels[j])
                     for k, (i, j) in enumerate(pairs) if bits >> k & 1]
            space = from_poset(labels, edges)
            form = _canonical_form(space.up_masks)[0]
            if form not in forms:
                forms.add(form)
                kept.append(space.renamed(f"sober{n}.{len(kept)}"))
    return tuple(kept)


def sober_target_catalog(max_points: int = 4) -> tuple[FiniteSpace, ...]:
    """All T0 spaces on up to `max_points` points, one per homeomorphism
    class; finite T0 spaces are sober."""
    return _catalog(max_points)


# ---------------------------------------------------------------------------
# dcpo completion


@dataclass(frozen=True)
class DcpoCompletion:
    """The universal dcpo completion of a poset: the closed d-sets of its
    Scott space ordered by inclusion, with unit x -> cl{x}."""

    base: object          # FiniteSpace or the omega-chain symbolic space
    completed: object     # FiniteSpace or the omega-plus-one symbolic space
    unit: object          # point table, or a symbolic embedding descriptor


def d_completion(p: Union[FiniteSpace, object]) -> DcpoCompletion:
    """Finite posets complete to an isomorphic copy of themselves; the
    omega chain completes to the chain with one new top point.  The unit is
    checked to be monotone, which on finite posets preserves directed suprema
    (their maxima); `oracles.dcpo_completion` enumerates them."""
    if not isinstance(p, FiniteSpace):
        from . import symbolic

        if isinstance(p, symbolic.SymbolicSpace) and p.variant is symbolic.SymbolicVariant.OMEGA_CHAIN:
            reflection = symbolic.sym_reflect(p, CategoryTag.D_SPACE)
            return DcpoCompletion(p, reflection.space, reflection.embedding)
        raise UnsupportedSpaceError(
            "dcpo completion supports finite posets and the omega chain only"
        )
    family = k_family(p, CategoryTag.D_SPACE)
    completed = FiniteSpace._of_order(tuple(p.render_subset(m) for m in family.members),
                                      _inclusion_up_rows(family.members))
    unit = tuple(family.member_position(p.down_masks[i]) for i in range(p.n))
    for i in range(p.n):
        for j in bit_indices(p.up_masks[i]):
            if not completed.leq(unit[i], unit[j]):
                raise ContractViolation("completion unit is not monotone")
    return DcpoCompletion(p, completed, unit)
