"""Resource limits for constructors that can blow up combinatorially.

Every limit is a hard bound: exceeding one raises ResourceCapError, nothing
is ever silently truncated.  The TOPOLAB_CAP environment variable overrides
the defaults, either as a single integer (the carrier cap `max_points`) or
as comma-separated ``field=value`` pairs.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, fields, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Caps:
    max_points: int = 12        # carrier size
    max_opens: int = 1 << 17    # size of an open lattice that is listed or walked
    max_maps: int = 1 << 20     # map enumeration: bound on y.n ** x.n, all functions
    max_iso_points: int = 8     # order-isomorphism (homeomorphism) search bound

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValidationError(f"cap {f.name} must be positive")


def default_caps() -> Caps:
    """Default caps, with TOPOLAB_CAP applied on top when set."""
    return _caps_from_env(os.environ.get("TOPOLAB_CAP"))


@functools.lru_cache(maxsize=16)
def _caps_from_env(env: str | None) -> Caps:
    """The caps for one TOPOLAB_CAP value, parsed once per distinct value
    (a Caps is frozen, so callers can share it); an invalid value is not
    cached and raises on every call."""
    caps = Caps()
    if not env:
        return caps
    env = env.strip()
    try:
        if "=" not in env:
            overrides = {"max_points": int(env)}
        else:
            overrides = {}
            valid = {f.name for f in fields(Caps)}
            for part in env.split(","):
                key, _, raw = part.partition("=")
                key = key.strip()
                if key not in valid:
                    raise ValidationError(f"TOPOLAB_CAP: unknown cap {key!r}")
                overrides[key] = int(raw)
    except ValueError as exc:
        raise ValidationError(f"TOPOLAB_CAP: {env!r} is not a valid override") from exc
    try:
        return replace(caps, **overrides)
    except ValidationError as exc:  # a value that is not positive
        raise ValidationError(f"TOPOLAB_CAP: {exc}") from exc
