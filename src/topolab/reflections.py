"""Reflections of finite T0 spaces into the sober, d-space, and well-filtered
categories: the hyperspace construction on the K-set family, the canonical
embedding, extension of maps along it, the functorial action as an
extension, a universal property verifier, and the dcpo completion as the
d-reflection.
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
    check_continuous,
    enumerate_continuous_maps,
    from_poset,
)
from .errors import ContractViolation, UnsupportedSpaceError, ValidationError
from .families import CategoryTag, k_family
from .hyperspaces import ClosedFamily, HyperSpace, eta, lower_vietoris
from .symbolic import SymbolicReflection, SymbolicSpace, SymbolicVariant, sym_reflect


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


def extend(f: ContinuousMap, r: Reflection) -> ContinuousMap:
    """The unique continuous f* on the reflection with f* o eta = f.

    The value on a family member A is the unique target point whose closure
    equals the closure of f(A); failure to find one means the target is not
    actually an object of the category.  `universal_property_report` checks
    the uniqueness against every continuous map out of the reflection.
    """
    if f.source != r.base:
        raise ValidationError("map source must be the reflected space")
    y = f.target
    closure_to_point = y._closure_points
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
    return fstar


def functor_map(f: ContinuousMap, c: CategoryTag) -> ContinuousMap:
    """The action on reflections: the extension of eta_Y o f along eta_X,
    which sends A to the point cl(f(A)) and makes the naturality square
    commute."""
    return extend(reflect(f.target, c).embedding.after(f), reflect(f.source, c))


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
def sober_target_catalog(max_points: int = 4) -> tuple[FiniteSpace, ...]:
    """All T0 spaces on up to `max_points` points, one per homeomorphism
    class; finite T0 spaces are sober.  Each class keeps the first order
    among the DAGs i -> j (i < j) on each size in turn, told apart by their
    canonical forms."""
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


# ---------------------------------------------------------------------------
# dcpo completion


def d_completion(p: Union[FiniteSpace, SymbolicSpace]) -> Union[Reflection, SymbolicReflection]:
    """The D-completion of Keimel and Lawson is the d-reflection: a finite
    poset completes to an isomorphic copy of itself, and the omega chain to
    the chain with one new top point.  `oracles.dcpo_completion` checks that
    the unit preserves directed suprema."""
    if isinstance(p, FiniteSpace):
        return reflect(p, CategoryTag.D_SPACE)
    if isinstance(p, SymbolicSpace) and p.variant is SymbolicVariant.OMEGA_CHAIN:
        return sym_reflect(p, CategoryTag.D_SPACE)
    raise UnsupportedSpaceError(
        "dcpo completion supports finite posets and the omega chain only"
    )
