"""Durable on-disk BDD store with crash-safe checkpoints.

The persistence layer of ROADMAP item 3: a content-addressed object
store for BDDs (level-ordered streaming encode per Hansen/Rao/
Tiedemann's "Compressing Binary Decision Diagrams") with an sqlite
index mapping names and tags to roots, plus the reachability
checkpointer built on top of it.  The same object format copies a
function between managers (:func:`transfer`).

Durability contract (see ``docs/persistence.md``):

* every object write is atomic — encode to a temporary file, fsync,
  ``os.replace`` into place, fsync the directory;
* every load verifies per-segment CRC32 frames, the whole-object
  sha256 content address, and the structural invariants of the decoded
  graph (backward references, strictly increasing levels, no redundant
  nodes);
* any interrupted or corrupted write is therefore either *invisible*
  (the rename never happened) or *detected* as a structured
  :class:`StoreCorruptError` — never a silently wrong BDD.
"""

from .checkpoint import ReachCheckpointer
from .errors import StoreCorruptError, StoreError
from .format import FORMAT_VERSION, decode_roots, encode_roots, transfer
from .store import BDDStore

__all__ = [
    "BDDStore",
    "ReachCheckpointer",
    "StoreError",
    "StoreCorruptError",
    "FORMAT_VERSION",
    "encode_roots",
    "decode_roots",
    "transfer",
]
