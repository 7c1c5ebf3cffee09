"""Contraction certificates for switched systems with non-contracting modes.

The library certifies contraction on subspaces via weighted seminorms, turns
the per-subspace certificates into average dwell/leave-time bounds over a
separating family, and validates the bounds empirically through hybrid
simulation. The `semicontract` CLI exposes the full pipeline.
"""

__version__ = "0.1.0"
