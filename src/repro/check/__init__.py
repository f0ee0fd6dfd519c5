"""``repro.check`` — the BSP race sanitizer.

A dynamic sanitizer (:mod:`repro.check.sanitizer`) that wraps per-GPU
slice arrays in shadow memory and flags mid-superstep peer access and
non-combinable write-write races at each barrier
(``Enactor(..., sanitize=True)`` / ``repro run --sanitize``).

See ``docs/static_analysis.md`` for the hazard catalogue and the
mutation score that decides what it must catch.
"""

from .sanitizer import BspSanitizer, Hazard, ShadowArray

__all__ = [
    "BspSanitizer",
    "Hazard",
    "ShadowArray",
]
