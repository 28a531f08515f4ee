"""Resource bounds.

All exhaustive computations in this package walk the full subset lattice
of a ground set, so every entry point is guarded by one of these caps.
``AMALGAM_MAX_ELEMENTS`` overrides the hard table cap (default 20); the
per-operation defaults below are clamped to it.
"""

import os

from .errors import ResourceError

_DEFAULT_TABLE_CAP = 20

# Per-operation defaults, before clamping to the table cap.
CIRCUITS_CAP = 16
ZETA_CAP = 16
REALIZE_CAP = 16
NAIVE_MSO_CAP = 12
FLATS_CAP = 16

# Compiled-MSO table entries per subformula.
MSO_BUDGET = 10**6

# Type-map entries the Tutte DP may make in one run: JoinContext.pair_cost
# per signature pair a shape joins for the first time.
TUTTE_BUDGET = 10**6


def table_cap():
    """Largest ground set for which a full rank table may be built."""
    raw = os.environ.get("AMALGAM_MAX_ELEMENTS")
    if raw is None:
        return _DEFAULT_TABLE_CAP
    try:
        return max(1, int(raw))
    except ValueError:
        return _DEFAULT_TABLE_CAP


def check_cap(n, what, cap=None):
    """Raise ResourceError when n passes ``cap`` clamped to the table cap.

    Without ``cap`` the table cap itself applies; either way the
    environment is read once per check.
    """
    limit = table_cap()
    if cap is not None:
        limit = min(cap, limit)
    if n > limit:
        raise ResourceError(
            f"{what} needs a ground set of at most {limit} elements, got {n}"
        )
