"""Per-file memoization cache for the deep analysis tiers.

``repro check --deep``/``--mc`` re-run whole-module static analysis on
every invocation; in CI the check-deep job analyzes the same unchanged
modules on every push.  This cache keys each module's results on its
content identity so unchanged files are never re-analyzed:

* fast path — ``(mtime_ns, size)`` match ⇒ trust the entry without
  reading the file twice;
* slow path — stat changed (fresh checkout, touch) ⇒ compare the
  source's SHA-256; a content match revalidates the entry in place.

Entries are invalidated by :data:`ANALYSIS_VERSION`, which must be
bumped whenever any deep-tier rule logic changes (new rules, changed
classifications) — a stale cache must never mask a new finding.  The
store is one JSON document under ``.repro-check-cache/`` (git-ignored);
``--no-cache`` bypasses it entirely.

Payloads are plain dicts of ``to_dict()`` forms; the report layer
rehydrates them through the matching ``from_dict`` constructors
(:class:`~repro.check.findings.Finding`,
:class:`~repro.check.deep.certify.CombinerCertificate`,
:class:`~repro.check.deep.modelcheck.ScheduleCertificate`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

__all__ = ["ANALYSIS_VERSION", "DeepCheckCache", "DEFAULT_CACHE_DIR"]

#: bump on ANY change to deep-tier analysis semantics (interp, certify,
#: modelcheck, schedules): entries from other versions are discarded
ANALYSIS_VERSION = 2

DEFAULT_CACHE_DIR = ".repro-check-cache"
_STORE_NAME = "deep.json"


def _stable_path(path: str) -> str:
    """Same normalization the baseline uses, so cache keys survive
    running from a different working directory."""
    p = path.replace("\\", "/")
    marker = "src/"
    idx = p.rfind("/" + marker)
    if idx >= 0:
        return p[idx + 1:]
    if p.startswith(marker):
        return p
    return p.lstrip("./")


def _sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class DeepCheckCache:
    """Content-addressed result cache for ``--deep``/``--mc`` analysis.

    One instance per CLI invocation: ``get`` / ``put`` during the walk,
    one ``save`` at the end.  All failures (unreadable store, bad JSON,
    unwritable directory) degrade to cache misses — the cache must never
    change analysis results, only skip recomputing them.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root
        self.store_path = os.path.join(root, _STORE_NAME)
        self._entries: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.store_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict):
            return
        if doc.get("analysis_version") != ANALYSIS_VERSION:
            return  # rule logic changed: every entry is stale
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = {
                k: v for k, v in entries.items() if isinstance(v, dict)
            }

    @staticmethod
    def _key(path: str, tier: str) -> str:
        return "%s::%s" % (tier, _stable_path(path))

    def get(self, path: str, source: str, tier: str) -> Optional[dict]:
        """Return the cached payload for ``(path, tier)`` if the file is
        unchanged, else ``None``."""
        entry = self._entries.get(self._key(path, tier))
        if entry is None:
            self.misses += 1
            return None
        try:
            st = os.stat(path)
            stat_match = (entry.get("mtime_ns") == st.st_mtime_ns
                          and entry.get("size") == st.st_size)
        except OSError:
            stat_match = False
        if not stat_match:
            if entry.get("sha256") != _sha256(source):
                self.misses += 1
                return None
            # same content, new stat (fresh checkout): revalidate
            try:
                st = os.stat(path)
                entry["mtime_ns"] = st.st_mtime_ns
                entry["size"] = st.st_size
                self._dirty = True
            except OSError:
                pass
        self.hits += 1
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, path: str, source: str, tier: str,
            payload: dict) -> None:
        entry = {
            "sha256": _sha256(source),
            "payload": payload,
        }
        try:
            st = os.stat(path)
            entry["mtime_ns"] = st.st_mtime_ns
            entry["size"] = st.st_size
        except OSError:
            pass
        self._entries[self._key(path, tier)] = entry
        self._dirty = True

    def save(self) -> bool:
        """Persist the store; returns False (and stays silent) when the
        cache directory cannot be written."""
        if not self._dirty:
            return True
        doc = {
            "analysis_version": ANALYSIS_VERSION,
            "tool": "repro-check-deep",
            "entries": self._entries,
        }
        try:
            os.makedirs(self.root, exist_ok=True)
            tmp = self.store_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self.store_path)
        except OSError:
            return False
        self._dirty = False
        return True

    def describe(self) -> str:
        return "deep-check cache: %d hit%s, %d miss%s" % (
            self.hits, "" if self.hits == 1 else "s",
            self.misses, "" if self.misses == 1 else "es")
