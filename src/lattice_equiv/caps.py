"""Work caps for the exhaustive procedures.

The defaults keep every enumeration at desk scale.  They can be raised
(never lowered) through the LATTICE_EQUIV_CAPS environment variable,
e.g. ``LATTICE_EQUIV_CAPS="region_points=60,max_volume=20"``.
"""

import os
from dataclasses import dataclass, fields

ENV_VAR = "LATTICE_EQUIV_CAPS"


@dataclass(frozen=True)
class Caps:
    region_points: int = 40      # max lattice points in an enumerated region
    oracle_vertices: int = 8     # max vertex count for oracle_equivalent
    max_volume: int = 12         # max V for the by-volume searches
    hull_points: int = 1000      # max lattice points of a barany hull

    @classmethod
    def from_env(cls):
        """Default caps, raised by any values set in LATTICE_EQUIV_CAPS."""
        base = cls()
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return base
        known = {f.name for f in fields(cls)}
        overrides = {}
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in known or not value.strip().isdigit():
                raise ValueError(f"bad {ENV_VAR} entry: {item!r}")
            overrides[key] = max(int(value), getattr(base, key))
        return cls(**{f.name: overrides.get(f.name, getattr(base, f.name))
                      for f in fields(cls)})


def resolve(caps):
    return caps if caps is not None else Caps.from_env()
