"""Deterministic seed derivation.

All randomness in the project flows through numpy's PCG64 generator.
Child seeds are derived from a master seed plus an integer path, so
replicates can run in any order (or in parallel) and still reproduce
the exact sequential results.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

RNG_ALGORITHM = "pcg64"
TIE_STREAM = 0x71E5  # path tag of the tie-breaking draws, distinct from data paths


def check_seed(seed) -> int:
    """``seed`` as an int; ConfigError unless a non-negative Python or numpy integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def check_count(value, name: str, floor: int = 1) -> int:
    """``value`` as an int; ConfigError unless a Python or numpy integer >= ``floor``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ConfigError(f"{name} must be >= {floor}, got {value}")
    return int(value)


def derive_seed(master: int, *path: int) -> int:
    """Return a 64-bit seed derived from ``master`` and an index path."""
    ss = np.random.SeedSequence([check_seed(master), *(int(p) for p in path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_seed(seed))


def tie_uniform(seed: int, t: int) -> float:
    """Uniform U_t that breaks a tie S_t == h_t at step t of a detector.

    The draw is a pure function of the histogram seed and the detector's
    own step, so online detectors, monitors and the batch engine that
    replay the same histogram draw the same U_t in any order.
    """
    return float(rng_from(derive_seed(seed, TIE_STREAM, t)).random())
