"""Content-addressed result store for sweep cells.

Every cell's identity is ``sha256(schema_version, code_fingerprint,
canonical cell config, seed)`` — the seed rides inside the canonical
config, and the code fingerprint hashes every ``.py`` file of the
``repro`` package, so *any* source change (a tweaked cache model, a new
policy priority rule) invalidates every cached cell rather than serving
stale physics.  Results live under ``<root>/<key[:2]>/<key>/``:

* ``cell.json`` — provenance (schema, key, fingerprint, the cell's kind
  and config), written first;
* ``trace.rct`` — optional columnar trace of the cell's run;
* ``result.json`` — the schema-tagged result payload, written *last*
  with an atomic rename: its presence is the commit marker, so a crash
  at any point leaves either a complete entry or no entry, never a
  half-entry that a resume would trust.

Payloads are plain JSON dicts; because Python's ``repr`` float
serialization round-trips exactly, a cache hit reconstructs the same
numbers bit-for-bit and downstream reports are byte-identical to a
fresh run.  ``result.json`` keeps the payload's own key order (every
other file is key-sorted): a mix's per-job metrics are keyed by job
name in the mix's order, which renderers print and means sum in, so a
sorted file would hand a hit its jobs in alphabetical order instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import typing

import repro
from repro import ioutil
from repro.sweep.spec import SweepCell, canonical_json

#: Version of the cache-key recipe and payload layout.  Bump on any
#: change to what a key covers or what a payload contains; old entries
#: then simply stop matching.
CACHE_SCHEMA = "repro.sweep.cache/2"

#: Schema tag carried inside every persisted result payload.
RESULT_SCHEMA = "repro.sweep.result/1"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_RESULT_FILE = "result.json"
_CELL_FILE = "cell.json"
_TRACE_FILE = "trace.rct"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """sha256 over every ``.py`` file of the installed ``repro`` package.

    Files are hashed as ``(posix relpath, sha256(bytes))`` pairs in
    sorted-path order, so the fingerprint is stable across platforms and
    directory-walk order but changes whenever any source byte does.
    Cached per process — the executor and its workers each pay the walk
    once.
    """
    root = os.path.dirname(os.path.abspath(repro.__file__))
    entries: typing.List[typing.Tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append((rel, digest))
    summary = hashlib.sha256()
    for rel, digest in entries:
        summary.update(rel.encode("utf-8"))
        summary.update(b"\x00")
        summary.update(digest.encode("ascii"))
        summary.update(b"\n")
    return summary.hexdigest()


def cell_key(cell: SweepCell, fingerprint: typing.Optional[str] = None) -> str:
    """The cell's content address (64 hex chars).

    Hashes the canonical JSON of ``{schema, code_fingerprint, kind,
    config, seed}``; the seed is already inside the config but is lifted
    out explicitly too, so the key recipe visibly covers it even if a
    future cell kind moves seeds elsewhere.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint()
    material = canonical_json({
        "schema": CACHE_SCHEMA,
        "code_fingerprint": fingerprint,
        "kind": cell.kind,
        "config": cell.config,
        "seed": cell.seed,
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed, content-addressed store of cell results.

    Safe for concurrent writers of the *same* key: both compute the
    identical payload (keys are content addresses over deterministic
    simulations) and the atomic rename makes the last writer win with a
    complete file either way.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root

    # -- layout -------------------------------------------------------- #

    def cell_dir(self, key: str) -> str:
        """``<root>/<key[:2]>/<key>`` — two-level fanout keeps any single
        directory small on large sweeps."""
        return os.path.join(self.root, key[:2], key)

    def trace_path(self, key: str) -> str:
        return os.path.join(self.cell_dir(key), _TRACE_FILE)

    # -- read side ----------------------------------------------------- #

    def load(
        self, key: str, cell: SweepCell
    ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        """``cell``'s cached payload under ``key``, or ``None`` on a miss.

        The one rule for whether an entry serves a cell: ``result.json``
        parses, carries :data:`RESULT_SCHEMA`, names ``cell``'s kind and
        config, and has a dict ``data``.  ``result.json`` is only ever
        published by an atomic rename, so any other entry means damage
        (a disk fault, a manual edit, an entry copied under another
        cell's key).  It is evicted and reported as a miss, so the cell
        is recomputed instead of crashing or serving garbage; whichever
        caller reads it first evicts it, ``sweep status`` included.
        """
        path = os.path.join(self.cell_dir(key), _RESULT_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != RESULT_SCHEMA
            or payload.get("kind") != cell.kind
            or payload.get("cell") != cell.config
            or not isinstance(payload.get("data"), dict)
        ):
            self.evict(key)
            return None
        return payload

    # -- write side ---------------------------------------------------- #

    def store(
        self,
        cell: SweepCell,
        key: str,
        payload: typing.Mapping[str, typing.Any],
        fingerprint: typing.Optional[str] = None,
    ) -> None:
        """Persist a computed cell: provenance first, result last.

        Each file is written atomically, and ``result.json`` goes last:
        until it lands, :meth:`load` reports a miss, so an
        interrupted store is indistinguishable from never having run.
        """
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"refusing to cache a payload without schema {RESULT_SCHEMA!r}"
            )
        cell_dir = self.cell_dir(key)
        os.makedirs(cell_dir, exist_ok=True)
        provenance = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "code_fingerprint": fingerprint or code_fingerprint(),
            "kind": cell.kind,
            "config": cell.config,
        }
        ioutil.atomic_write_text(
            os.path.join(cell_dir, _CELL_FILE),
            json.dumps(provenance, sort_keys=True, indent=2) + "\n",
        )
        ioutil.atomic_write_text(
            os.path.join(cell_dir, _RESULT_FILE),
            json.dumps(payload) + "\n",
        )

    def evict(self, key: str) -> bool:
        """Drop one entry (used for damaged entries and ``sweep clean``)."""
        cell_dir = self.cell_dir(key)
        if not os.path.isdir(cell_dir):
            return False
        shutil.rmtree(cell_dir, ignore_errors=True)
        # Prune the fanout directory if this was its last entry.
        parent = os.path.dirname(cell_dir)
        try:
            os.rmdir(parent)
        except OSError:
            pass
        return True
