"""Work caps for the exhaustive procedures.

The defaults keep every enumeration at desk scale.  They can be raised
(never lowered) through the LATTICE_EQUIV_CAPS environment variable,
e.g. ``LATTICE_EQUIV_CAPS="region_points=60,max_volume=20"``.
"""

import os

from .errors import DegenerateInput
from .geometry import _Value, _whole

ENV_VAR = "LATTICE_EQUIV_CAPS"


class Caps(_Value):
    _defaults = {
        "region_points": 40,     # max lattice points in an enumerated region
        "oracle_vertices": 8,    # max vertex count for oracle_equivalent
        "max_volume": 12,        # max V for the by-volume searches
        "hull_points": 1000,     # lattice_points and barany list at most this
    }
    __slots__ = tuple(_defaults)

    def __post_init__(self):
        for name in self._fields:
            _whole(getattr(self, name), 1, f"caps.{name}")

    @classmethod
    def from_env(cls):
        """Default caps, raised by any values set in LATTICE_EQUIV_CAPS:
        the one shared _DEFAULT when it is unset."""
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return _DEFAULT
        overrides = {}
        for item in filter(None, map(str.strip, raw.split(","))):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in cls._fields or not value.strip().isdigit():
                raise ValueError(f"bad {ENV_VAR} entry: {item!r}")
            overrides[key] = max(int(value), getattr(_DEFAULT, key))
        return cls(**{name: overrides.get(name, getattr(_DEFAULT, name))
                      for name in cls._fields})


_DEFAULT = Caps()


def resolve(caps):
    """`caps` itself, or Caps.from_env() when it is None."""
    if caps is None:
        return Caps.from_env()
    if not isinstance(caps, Caps):
        raise DegenerateInput(f"caps must be None or a Caps, got {caps!r}")
    return caps
