"""Persistent measurement cache backing the sweep engine.

Every measured variant is stored under a *stable content key*: a SHA-256
digest of everything that determines the measurement -- the kernel (name
and spec structure), the full GPU spec, the tuning configuration, the
input size, the timing model's :class:`~repro.sim.timing.ModelParams`,
and the measurement protocol (repetitions / trial index).  Changing any
of these yields a different key, so a cache never serves stale results
after a model recalibration; bumping
:data:`CACHE_SCHEMA_VERSION` invalidates every
entry at once when the measurement semantics themselves change.

The store is a single SQLite file (stdlib ``sqlite3``; no third-party
dependency).  Only the coordinating process writes -- workers compute,
the engine persists -- but several *engines* (concurrent tuning
sessions) may share one store, so connections open in WAL journal mode
with a busy timeout: readers never block the writer and a briefly
contended write waits instead of raising ``database is locked``.

The store is also hardened against damage, because a measurement cache
must never be able to abort the sweep it exists to accelerate:

- a payload that fails to decode is counted (``corrupt``), moved to a
  ``quarantine`` side table for post-mortem, and reported as a miss --
  the point is simply re-measured;
- a database file that is corrupt at open (``sqlite3.DatabaseError``)
  is renamed aside (``*.corrupt-N``) and a fresh store is built in its
  place (``recovered_path`` records the sidelined file).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import asdict, fields
from pathlib import Path

from repro.arch.specs import GPUSpec
from repro.autotune.measure import VariantMeasurement
from repro.sim.timing import ModelParams
from repro.util.hashing import stable_hash

__all__ = [
    "CACHE_SCHEMA_VERSION", "CacheStore", "context_key", "default_cache_dir",
    "measurement_key", "point_key", "stable_hash",
]

CACHE_SCHEMA_VERSION = 1
"""Bump to invalidate all persisted measurements at once."""

_ENV_VAR = "REPRO_CACHE_DIR"
_DB_NAME = "measurements.sqlite"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def context_key(
    benchmark_name: str,
    gpu: GPUSpec,
    params: ModelParams,
    repetitions: int = 10,
    trial_index: int = 4,
    specs=None,
) -> str:
    """Digest of everything a whole sweep shares: kernel name *and specs*,
    full GPU spec, model parameters, and measurement protocol.  Computed
    once per sweep (hashing the dataclasses is the expensive part), then
    combined with each point via :func:`point_key`.

    ``specs`` is the benchmark's kernel-spec tuple; including its (fully
    deterministic) repr means editing a kernel invalidates its cached
    measurements even though the name is unchanged.  Changes to the
    compiler or timing model themselves are what
    :data:`CACHE_SCHEMA_VERSION` is for.
    """
    return stable_hash({
        "v": CACHE_SCHEMA_VERSION,
        "kernel": benchmark_name,
        "specs": repr(specs) if specs is not None else None,
        "gpu": asdict(gpu),
        "params": asdict(params),
        "repetitions": int(repetitions),
        "trial_index": int(trial_index),
    })


def point_key(context: str, config: dict, size: int) -> str:
    """The cache key of one ``(config, size)`` point under a context."""
    return stable_hash({
        "ctx": context,
        "config": {k: config[k] for k in sorted(config)},
        "size": int(size),
    })


def measurement_key(
    benchmark_name: str,
    gpu: GPUSpec,
    config: dict,
    size: int,
    params: ModelParams,
    repetitions: int = 10,
    trial_index: int = 4,
    specs=None,
) -> str:
    """The cache key of one ``(kernel, GPU, config, size, model)`` point."""
    return point_key(
        context_key(benchmark_name, gpu, params, repetitions, trial_index,
                    specs=specs),
        config, size,
    )


_FIELDS = tuple(f.name for f in fields(VariantMeasurement))


def _encode(m: VariantMeasurement) -> str:
    """``json.dumps(asdict(m))``, byte for byte, without ``asdict``'s
    deep copy of the config."""
    return json.dumps({name: getattr(m, name) for name in _FIELDS})


def _decode(payload: str) -> VariantMeasurement:
    return VariantMeasurement(**json.loads(payload))


BUSY_TIMEOUT_MS = 10_000
"""How long a contended write waits before ``database is locked``."""


class CacheStore:
    """On-disk key -> :class:`VariantMeasurement` store.

    ``path`` may be a directory (the database file is created inside it)
    or an explicit ``*.sqlite`` / ``*.db`` file path.  Stores are
    context managers (``with CacheStore(p) as store: ...`` closes the
    connection deterministically); ``close`` is idempotent.
    """

    def __init__(self, path: str | Path | None = None):
        path = (
            Path(path).expanduser() if path is not None
            else default_cache_dir()
        )
        if path.suffix in (".sqlite", ".db"):
            self.db_path = path
        else:
            self.db_path = path / _DB_NAME
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        """Payloads that failed to decode and were quarantined."""
        self.recovered_path: Path | None = None
        """Where a corrupt database file was moved aside, if one was."""
        # One connection per thread: SQLite connections are not safe to
        # share across threads, and -- the subtler seed bug -- pragmas
        # are *per connection*, so every connection (not just the first)
        # must set WAL + busy_timeout or a concurrent session's writes
        # land in rollback-journal mode and raise "database is locked"
        # under contention.
        self._local = threading.local()
        self._all_conns: list[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        self._closed = False
        try:
            self._local.conn = self._open()
        except sqlite3.DatabaseError:
            # corrupt database file: move it aside and rebuild
            self.recovered_path = self._sideline_database()
            self._local.conn = self._open()

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use."""
        if self._closed:
            raise sqlite3.ProgrammingError(
                "Cannot operate on a closed database."
            )
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open()
            self._local.conn = conn
        return conn

    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False so close() can shut every thread's
        # connection down from the owning thread; each connection is
        # still *used* by exactly one thread (thread-local storage)
        conn = sqlite3.connect(str(self.db_path), check_same_thread=False)
        try:
            conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode = WAL")
            self._schema(conn)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        with self._conn_lock:
            self._all_conns.append(conn)
        return conn

    def _schema(self, conn: sqlite3.Connection) -> None:
        """Create the store's tables (subclass hook: the service's
        :class:`~repro.service.store.MeasurementStore` extends it)."""
        conn.execute(
            "CREATE TABLE IF NOT EXISTS measurements ("
            " key TEXT PRIMARY KEY,"
            " payload TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " key TEXT PRIMARY KEY,"
            " payload TEXT,"
            " error TEXT)"
        )

    def _sideline_database(self) -> Path:
        """Rename the (corrupt) database file out of the way, with its
        stale WAL/SHM siblings, so a fresh store can be built."""
        n = 1
        while True:
            target = self.db_path.with_name(
                f"{self.db_path.name}.corrupt-{n}"
            )
            if not target.exists():
                break
            n += 1
        os.replace(self.db_path, target)
        for suffix in ("-wal", "-shm"):
            sibling = Path(str(self.db_path) + suffix)
            if sibling.exists():
                sibling.unlink()
        return target

    def _decode_or_quarantine(self, key: str, payload):
        """Decode a payload; a corrupt one is moved to the quarantine
        table and reported as a miss (``None``), never raised."""
        try:
            return _decode(payload)
        except Exception as e:
            self.corrupt += 1
            self._conn.execute(
                "INSERT OR REPLACE INTO quarantine (key, payload, error)"
                " VALUES (?, ?, ?)",
                (key, str(payload), f"{type(e).__name__}: {e}"),
            )
            self._conn.execute(
                "DELETE FROM measurements WHERE key = ?", (key,)
            )
            self._conn.commit()
            return None

    # -- single-item API -----------------------------------------------------

    def get(self, key: str) -> VariantMeasurement | None:
        row = self._conn.execute(
            "SELECT payload FROM measurements WHERE key = ?", (key,)
        ).fetchone()
        m = self._decode_or_quarantine(key, row[0]) if row else None
        if m is None:
            self.misses += 1
            return None
        self.hits += 1
        return m

    def put(self, key: str, measurement: VariantMeasurement) -> None:
        self.put_many([(key, measurement)])

    # -- batch API (what the engine uses) ------------------------------------

    def get_many(self, keys) -> dict:
        """``{key: measurement}`` for every key present in the store."""
        keys = list(keys)
        found: dict = {}
        CHUNK = 400  # stay well under SQLite's bound-variable limit
        for lo in range(0, len(keys), CHUNK):
            chunk = keys[lo:lo + CHUNK]
            qs = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT key, payload FROM measurements WHERE key IN ({qs})",
                chunk,
            ).fetchall()
            for key, payload in rows:
                m = self._decode_or_quarantine(key, payload)
                if m is not None:
                    found[key] = m
        self.hits += len(found)
        self.misses += len(keys) - len(found)
        return found

    def put_many(self, items) -> None:
        """Persist ``(key, measurement)`` pairs (idempotent upsert)."""
        rows = [(k, _encode(m)) for k, m in items]
        if not rows:
            return
        self._conn.executemany(
            "INSERT OR REPLACE INTO measurements (key, payload)"
            " VALUES (?, ?)",
            rows,
        )
        self._conn.commit()

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM measurements"
        ).fetchone()
        return int(n)

    def quarantined(self) -> list:
        """``(key, error)`` rows of payloads sidelined by decode
        failures, for post-mortem."""
        return self._conn.execute(
            "SELECT key, error FROM quarantine ORDER BY key"
        ).fetchall()

    def clear(self) -> None:
        self._conn.execute("DELETE FROM measurements")
        self._conn.execute("DELETE FROM quarantine")
        self._conn.commit()

    def flush(self) -> None:
        """Commit this thread's work and fold the WAL back into the main
        database file (checkpoint), so a reader opening the file fresh --
        or the server's eviction pass sizing it -- sees everything.
        Idempotent, and a silent no-op once the store is closed."""
        if self._closed:
            return
        try:
            conn = self._conn
            conn.commit()
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            # flush is advisory: a checkpoint blocked by a concurrent
            # reader just leaves the WAL for the next one
            pass

    def close(self) -> None:
        """Idempotent; operations after close raise
        ``sqlite3.ProgrammingError``."""
        if self._closed:
            return
        self._closed = True
        with self._conn_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
