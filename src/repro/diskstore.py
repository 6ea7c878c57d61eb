"""Where the reproduction keeps its files, and how it writes them.

Everything a run leaves on disk lives under one root,
:func:`cache_root` -- ``$REPRO_CACHE_DIR``, default ``.repro_cache``
under the working directory -- so that one variable moves all of it::

    <root>/*.json              sweep results       ResultCache
    <root>/traces/*.trace      recorded tapes      TraceCache
    <root>/traces/profiles/    row profiles        ProfileCache
    <root>/sessions/*.jsonl    sweep journals      SessionJournal
    <root>/repros/             shrunk fuzz repros  write_repro

and every file there but the journals is written one way,
:func:`atomic_write`: a per-PID temporary, then ``os.replace``, so
concurrent writers (``--jobs`` workers, fabric workers, several
processes sharing a root) can race on one name without anyone ever
reading a torn file.  A journal is an append-only log, one line per
sweep point, whose reader drops a torn last line instead.  The keyed caches
share one read rule as well (:class:`FileCache`): a file that does not
decode is damage -- the format version is part of the file name, so
whatever sits at the name *should* decode -- and is warned about once,
deleted and reported as a miss, so the next write heals it.

This module imports nothing from the rest of the package, so every
layer that keeps files can build on it.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path

__all__ = ["cache_root", "atomic_write", "FileCache"]

_LOG = logging.getLogger(__name__)


def cache_root() -> Path:
    """The root every default location derives from (``$REPRO_CACHE_DIR``,
    default ``.repro_cache``) -- the one place the environment is read."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def atomic_write(path: Path, data) -> None:
    """Replace ``path`` with ``data`` -- ``bytes``, or a list of
    bytes-like parts written back to back -- through a per-PID
    temporary; on any failure the temporary is removed and the error
    re-raised, and ``path`` keeps its previous content."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FileCache:
    """One file per key: ``sha256(f"{tag}:{key}")[:24] + suffix`` under
    ``directory`` (created once, here; a read costs one ``open``).

    A subclass is a codec: ``_encode(value, key)`` gives what
    :func:`atomic_write` takes, and ``_decode(raw, key)`` the value --
    or ``None`` for a well-formed file that answers another key, a plain
    miss that is left in place.  Anything ``_decode`` raises marks the
    file damaged (see the module docstring).  Each subclass spells its
    own typed ``get`` / ``put`` over :meth:`_get` / :meth:`_put`.
    """

    def __init__(self, directory: Path, tag: str, suffix: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tag = tag
        self._suffix = suffix
        self._warned_corrupt = False

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(
            f"{self._tag}:{key}".encode()).hexdigest()[:24]
        return self.directory / f"{digest}{self._suffix}"

    def _get(self, key: str):
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return self._decode(raw, key)
        except Exception as exc:   # outside bytes: any failure is damage
            if not self._warned_corrupt:
                self._warned_corrupt = True
                _LOG.warning("discarding corrupt cache file %s (%s); it "
                             "will be rebuilt", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _put(self, key: str, value) -> None:
        atomic_write(self._path(key), self._encode(value, key))
