"""Size limits shared by constructors and search routines."""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Bounds guarding table materialization and brute-force searches.

    table_size caps the carrier size of any materialized operation table;
    morphism_search caps the carriers involved in exhaustive morphism
    enumeration, which is the expensive part.
    """

    table_size: int = 64
    morphism_search: int = 32


DEFAULT_CAPS = Caps()

ENV_TABLE_CAP = "HOMPOSET_TABLE_CAP"


def caps_from_env() -> Caps:
    """DEFAULT_CAPS with the optional table-size override applied.

    Raises ValueError when the override is set but not a positive integer.
    """
    raw = os.environ.get(ENV_TABLE_CAP)
    if raw is None:
        return DEFAULT_CAPS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{ENV_TABLE_CAP} must be a positive integer, got {raw!r}")
    return Caps(table_size=value, morphism_search=DEFAULT_CAPS.morphism_search)
