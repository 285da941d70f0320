"""Persistent, versioned on-disk store for experiment results.

One JSON file per job, addressed by the job's full identity -- kind,
application, scale, type system, precision, variant -- plus the backend
that produced it and a store-format version.  A second driver (or a
second process, or tomorrow's run) that asks for the same job gets a
pure cache hit; nothing is recomputed.

Layout under the store root (sharded since v4: entries fan out across
256 two-hex-digit shard directories keyed by a hash of the file name,
so a store holding millions of grid points never puts them all in one
directory)::

    <root>/v<VERSION>/flow/1f/conv-tiny-V2-0.1-reference.json
    <root>/v<VERSION>/report/07/baseline-conv-tiny-reference.json
    <root>/v<VERSION>/report/c2/pca_manual-pca-tiny-V2-0.001-reference.json
    <root>/v<VERSION>/cluster/9a/conv-tiny-V2-0.1-c4r2-reference.json

Every file is a self-describing envelope ``{"version", "kind", "key",
"checksum", "payload"}``; readers reject entries whose version does not
match :data:`STORE_VERSION`.  Bump the version (or wipe the root)
whenever the payload schema or the meaning of a result changes.

Flat pre-shard stores migrate transparently: a key that misses in the
sharded layout is probed at its flat legacy locations (the unsharded
spot in this version's directory, then the previous version's flat
layout when only the on-disk *layout* changed, as in v3 -> v4); a
valid legacy envelope is re-homed into its shard -- payload bytes
unchanged, nothing recomputed -- and counted in ``migrated``.
:meth:`ResultStore.gc` (``repro store gc``) compacts the whole root
the same way: every still-valid previous-version entry is migrated,
superseded versions are dropped, and empty directories are removed.

Writes are atomic (temp file + ``os.replace``), so concurrent workers --
or concurrent ``repro run`` invocations -- can never tear a file; every
write is read back and verified (and rewritten once on mismatch), so a
corrupted write self-heals before anyone can observe it.  Corruption
*at rest* -- torn bytes from a non-atomic writer, bit rot, hand-edits --
is detected on load via the payload checksum and the entry is moved to
a ``quarantine/`` sibling directory instead of silently shadowing the
key as a permanent miss; :meth:`ResultStore.fsck` audits and repairs
the whole store the same way (``repro store fsck`` from the CLI).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.telemetry import span as _span
from repro.tuning.api import DEFAULT_STRATEGY
from repro.util import clean_stale_temps, write_json_atomic

__all__ = [
    "STORE_VERSION",
    "JobSpec",
    "ResultStore",
    "StoreStats",
    "default_store_dir",
    "payload_checksum",
    "shard_of",
]

#: Bump when the payload schema or result semantics change; old entries
#: are ignored (and can be wiped with ``ResultStore.wipe()``).
#: v2: envelope keys and flow payloads carry the tuning-strategy name.
#: v3: envelopes carry a payload checksum (corruption detection).
#: v4: sharded layout (2-hex fan-out by key-name hash); payloads are
#:     unchanged, so v3 entries migrate in place without recomputation.
STORE_VERSION = 4

#: Hex digits of the shard fan-out: 2 -> 256 directories per kind.
SHARD_DIGITS = 2

#: Leftover temp files older than this are swept when a store opens
#: (a killed writer's residue); younger ones may belong to a live
#: concurrent writer and are kept.
STALE_TEMP_TTL_S = 3600.0


def payload_checksum(payload: dict) -> str:
    """Content checksum of a payload (canonical-JSON SHA-256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def shard_of(name: str) -> str:
    """The shard directory a store file name fans out into.

    A hash prefix, not a name prefix: key names share long common
    prefixes (every conv entry starts with ``conv-``), so hashing is
    what actually spreads millions of entries evenly across the
    fan-out.
    """
    return hashlib.sha256(name.encode()).hexdigest()[:SHARD_DIGITS]


@dataclass
class StoreStats:
    """Counter snapshot of one store's cache behaviour.

    ``deduped`` counts :meth:`ResultStore.get_or_begin` callers that
    found the key already being computed -- they are *not* hits (no
    payload was served from disk) and *not* misses (nothing will be
    recomputed for them); conflating them with either would make a
    burst of identical requests look like a cold or a warm store.
    ``migrated`` counts legacy-layout entries re-homed into the sharded
    layout without recomputation.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    repaired: int = 0
    migrated: int = 0
    deduped: int = 0

    def to_payload(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "repaired": self.repaired,
            "migrated": self.migrated,
            "deduped": self.deduped,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StoreStats":
        return cls(
            hits=payload["hits"],
            misses=payload["misses"],
            corrupt=payload["corrupt"],
            repaired=payload["repaired"],
            migrated=payload["migrated"],
            deduped=payload["deduped"],
        )


def default_store_dir() -> Path:
    """Where flow results persist when nobody says otherwise."""
    return Path.cwd() / "results" / "store"


@dataclass(frozen=True)
class JobSpec:
    """One grid point: what to compute, not how or where.

    ``kind`` is ``"flow"`` (the five-step flow, yielding a
    :class:`~repro.flow.FlowResult`), ``"report"`` (a derived virtual-
    platform replay, yielding a :class:`~repro.hardware.RunReport`;
    ``variant`` names which one) or ``"cluster"`` (the tuned kernel
    partitioned across a multi-core cluster, yielding a
    :class:`~repro.cluster.ClusterReport`; ``cores``/``fpu_ratio`` name
    the topology).  ``strategy`` names the tuning strategy the job's
    flow (or the derived job's parent flow) uses; it is part of the
    identity whenever the job depends on a tuning, so a bisection
    campaign can never alias stored greedy results.  Frozen and built
    from primitives, so specs are hashable dict keys and pickle cleanly
    across the process pool.
    """

    kind: str
    app: str
    scale: str
    type_system: str = ""
    precision: float = 0.0
    variant: str = ""
    strategy: str = DEFAULT_STRATEGY
    #: Cluster topology (cluster jobs only; fixed at 1/1 elsewhere so
    #: single-core job identities -- and their store keys -- are
    #: untouched by the cluster dimension).
    cores: int = 1
    fpu_ratio: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("flow", "report", "cluster"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "report" and not self.variant:
            raise ValueError("report jobs need a variant name")
        if self.kind in ("flow", "cluster") and not self.type_system:
            raise ValueError(f"{self.kind} jobs need a type system")
        if self.kind != "cluster":
            if self.cores != 1 or self.fpu_ratio != 1:
                raise ValueError(
                    "cores/fpu_ratio are a cluster-job dimension; "
                    f"{self.kind} jobs are single-core"
                )
        else:
            if self.cores < 1 or self.fpu_ratio < 1:
                raise ValueError(
                    f"bad cluster topology {self.cores}x{self.fpu_ratio}"
                )
            if self.cores == 1 and self.fpu_ratio != 1:
                # One core never shares: every ratio is the same run.
                # Normalize so the grid's 1-core column is computed
                # (and stored) once.
                object.__setattr__(self, "fpu_ratio", 1)
        if not self.type_system and self.strategy != DEFAULT_STRATEGY:
            # Tuning-independent jobs (e.g. the binary32 baseline
            # replay) are identical under every strategy: normalize so
            # campaigns run under any strategy share those entries.
            object.__setattr__(self, "strategy", DEFAULT_STRATEGY)

    # ------------------------------------------------------------------
    def key_fields(self) -> tuple[str, ...]:
        """The identity fields that address this job in the store.

        The default strategy is omitted (keeping its keys identical to
        the pre-strategy layout); any other strategy is appended, ahead
        of the backend tag the store adds.
        """
        parts = [self.variant] if self.variant else []
        parts += [self.app, self.scale]
        if self.type_system:
            parts.append(self.type_system)
            parts.append(f"{self.precision:g}")
        if self.kind == "cluster":
            parts.append(f"c{self.cores}r{self.fpu_ratio}")
        if self.strategy != DEFAULT_STRATEGY:
            parts.append(self.strategy)
        return tuple(parts)

    def describe(self) -> str:
        """One human line, used for progress output."""
        fields = [self.app, self.scale]
        if self.type_system:
            fields += [self.type_system, f"{self.precision:g}"]
        if self.variant:
            fields.append(self.variant)
        if self.kind == "cluster":
            fields.append(f"{self.cores} cores 1:{self.fpu_ratio}")
        if self.strategy != DEFAULT_STRATEGY:
            fields.append(self.strategy)
        return f"{self.kind} {' '.join(fields)}"


class ResultStore:
    """Read/write :class:`JobSpec`-addressed payloads with hit counters.

    Parameters
    ----------
    root:
        Store root directory (versioned subdirectory created on demand).
    backend:
        Name of the arithmetic backend producing results; part of every
        key, so results from different backends never alias.
    version:
        Store-format version (tests override to simulate migrations).

    Besides ``hits``/``misses``, the store counts ``corrupt`` (entries
    quarantined on load: they are *not* cold misses, and conflating the
    two hides store rot) and ``repaired`` (write verifications that had
    to rewrite a just-corrupted file).
    """

    def __init__(
        self,
        root: "Path | str | None" = None,
        backend: str = "reference",
        version: int = STORE_VERSION,
        verify_writes: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.backend = backend
        self.version = version
        self.verify_writes = verify_writes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.repaired = 0
        self.migrated = 0
        self.deduped = 0
        # In-flight computation claims (see get_or_begin): the lock
        # makes claim-vs-hit accounting atomic under concurrent callers
        # (the job server probes from executor threads).
        self._inflight: set[Path] = set()
        self._inflight_lock = threading.Lock()
        # A writer killed mid-save leaves temp residue behind; sweep it
        # on open so it cannot accumulate across campaigns.
        clean_stale_temps(self.version_dir, ttl_s=STALE_TEMP_TTL_S)

    # ------------------------------------------------------------------
    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    @property
    def quarantine_dir(self) -> Path:
        """Sibling directory corrupt entries are moved to (never read)."""
        return self.root / "quarantine" / f"v{self.version}"

    def name(self, spec: JobSpec) -> str:
        """The file name addressing a job (shard-independent)."""
        return "-".join(spec.key_fields() + (self.backend,)) + ".json"

    def path(self, spec: JobSpec) -> Path:
        name = self.name(spec)
        return self.version_dir / spec.kind / shard_of(name) / name

    def legacy_paths(self, spec: JobSpec) -> "list[tuple[Path, int]]":
        """Flat pre-shard locations a missing key may still live at.

        ``(path, expected envelope version)`` pairs, probed in order:
        the unsharded spot inside this version's directory (a store
        written by pre-shard code running the current version), then
        the previous version's flat layout -- v3 -> v4 changed only the
        on-disk layout, so a v3 envelope's payload is still valid
        verbatim.
        """
        name = self.name(spec)
        candidates = [(self.version_dir / spec.kind / name, self.version)]
        if self.version >= 1:
            candidates.append(
                (
                    self.root / f"v{self.version - 1}" / spec.kind / name,
                    self.version - 1,
                )
            )
        return candidates

    def _key(self, spec: JobSpec) -> dict:
        """The exact identity stored in (and checked against) envelopes.

        Filenames render precision with ``%g`` (6 significant digits),
        so two nearby precisions *can* share a file name; the envelope
        records the exact value and :meth:`load` cross-checks it, which
        turns such a collision into an honest miss instead of silently
        handing one grid point another's results.
        """
        key = {
            "app": spec.app,
            "scale": spec.scale,
            "type_system": spec.type_system,
            "precision": spec.precision,
            "variant": spec.variant,
            "strategy": spec.strategy,
            "backend": self.backend,
            # Retired environment tag, kept empty so envelopes written
            # with it stay hits without a STORE_VERSION bump.
            "env": "",
        }
        if spec.kind == "cluster":
            # Only cluster envelopes carry the topology: flow/report
            # entries written before the cluster dimension existed keep
            # validating (and new ones stay byte-compatible with them).
            key["cores"] = spec.cores
            key["fpu_ratio"] = spec.fpu_ratio
        return key

    # ------------------------------------------------------------------
    def quarantine(self, path: Path) -> "Path | None":
        """Move a corrupt entry aside (counted; never silently deleted).

        The entry stops shadowing its key -- the next load is an honest
        miss and the recomputed result re-populates the file -- while
        the corrupt bytes stay available for post-mortems under
        :attr:`quarantine_dir`.  Returns the destination, or None if
        the file vanished first (a racing quarantine is not an error).
        """
        try:
            rel = path.relative_to(self.version_dir).parent
        except ValueError:
            rel = Path(path.parent.name)
        dest_dir = self.quarantine_dir / rel
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / path.name
        serial = 0
        while dest.exists():
            serial += 1
            dest = dest_dir / f"{path.name}.{serial}"
        try:
            os.replace(path, dest)
        except OSError:
            return None
        self.corrupt += 1
        return dest

    def load(self, spec: JobSpec) -> dict | None:
        """The stored payload for a job, or None.

        Counts hits and misses; a *corrupt* entry (unparsable bytes, a
        malformed envelope, or a checksum mismatch) is counted as
        ``corrupt`` -- not a cold miss -- and quarantined, so it can
        never shadow the key forever.  A wrong-version or aliased-key
        envelope remains an honest miss and is left in place.
        """
        with _span("store.load") as sp:
            payload = self._load_impl(spec)
            if sp is not None:
                # Attrs only on the traced path: the warm-serve hot
                # path computes nothing extra when telemetry is off.
                sp.attrs["job"] = spec.describe()
                sp.attrs["hit"] = payload is not None
            return payload

    def _load_impl(self, spec: JobSpec) -> dict | None:
        path = self.path(spec)
        try:
            # Injected transient read failures degrade to a miss: the
            # caller recomputes, which is always safe.
            faults.maybe_io_error("store-load", path.stem)
            raw = path.read_text()
        except OSError:
            migrated = self._migrate_load(spec)
            if migrated is not None:
                self.hits += 1
                return migrated
            self.misses += 1
            return None
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError:
            self.quarantine(path)
            return None
        if not isinstance(envelope, dict):
            self.quarantine(path)
            return None
        if envelope.get("version") != self.version:
            self.misses += 1
            return None
        if envelope.get("key") != self._key(spec):
            # A different job behind an aliased file name (%g filename
            # collision) or a hand-edited key: an honest miss.
            self.misses += 1
            return None
        payload = envelope.get("payload")
        if (
            payload is None
            or envelope.get("checksum") != payload_checksum(payload)
        ):
            self.quarantine(path)
            return None
        self.hits += 1
        return payload

    def _migrate_load(self, spec: JobSpec) -> "dict | None":
        """Read-through migration: re-home a valid flat legacy entry.

        Probes the key's flat pre-shard locations; a fully valid
        envelope (matching key, intact checksum, expected version) is
        rewritten into the sharded layout -- payload verbatim, nothing
        recomputed -- and the legacy file removed.  Anything less than
        fully valid is left where it is: corrupt *legacy* bytes are not
        this version's responsibility, and an honest miss (recompute)
        is always safe.
        """
        for legacy, expected_version in self.legacy_paths(spec):
            try:
                envelope = json.loads(legacy.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                not isinstance(envelope, dict)
                or envelope.get("version") != expected_version
                or envelope.get("key") != self._key(spec)
            ):
                continue
            payload = envelope.get("payload")
            if (
                payload is None
                or envelope.get("checksum") != payload_checksum(payload)
            ):
                continue
            write_json_atomic(
                self.path(spec), self._envelope(spec, payload)
            )
            try:
                legacy.unlink()
            except OSError:
                pass  # a racing migrator won; the sharded copy stands
            self.migrated += 1
            return payload
        return None

    # ------------------------------------------------------------------
    # In-flight computation claims (the job server's dedup primitive)
    # ------------------------------------------------------------------
    def get_or_begin(
        self, spec: JobSpec
    ) -> "tuple[dict | None, bool]":
        """Atomically load a payload or claim the right to compute it.

        Returns ``(payload, leader)``:

        * ``(payload, False)`` -- warm hit, served from disk;
        * ``(None, True)``     -- cold, and *this* caller now owns the
          computation: it must :meth:`save` and then :meth:`finish` the
          spec (``finally``-guaranteed), or every later caller blocks
          on a claim nobody will release;
        * ``(None, False)``    -- cold, but another caller already owns
          the computation: counted in ``deduped`` (not a hit, not a
          miss) -- the caller should wait for the leader's result.

        The check-and-claim is one critical section, so a burst of
        concurrent identical requests books exactly one miss (the
        leader) and N-1 dedups; without it, every waiter would race the
        leader's load and the hit/miss/dedup split would depend on
        scheduling.
        """
        with self._inflight_lock:
            token = self.path(spec)
            if token in self._inflight:
                self.deduped += 1
                return None, False
            payload = self.load(spec)
            if payload is not None:
                return payload, False
            self._inflight.add(token)
            return None, True

    def finish(self, spec: JobSpec) -> None:
        """Release a :meth:`get_or_begin` claim (idempotent)."""
        with self._inflight_lock:
            self._inflight.discard(self.path(spec))

    def in_flight(self) -> int:
        """How many keys are currently claimed for computation."""
        with self._inflight_lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """Counter snapshot (see :class:`StoreStats`)."""
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            corrupt=self.corrupt,
            repaired=self.repaired,
            migrated=self.migrated,
            deduped=self.deduped,
        )

    def _envelope(self, spec: JobSpec, payload: dict) -> dict:
        return {
            "version": self.version,
            "kind": spec.kind,
            "key": self._key(spec),
            "checksum": payload_checksum(payload),
            "payload": payload,
        }

    def _verify(self, path: Path, envelope: dict) -> bool:
        """Does the file on disk hold exactly this envelope?"""
        try:
            return json.loads(path.read_text()) == envelope
        except (OSError, json.JSONDecodeError):
            return False

    def save(self, spec: JobSpec, payload: dict) -> Path:
        """Persist a payload atomically and verified; returns the file.

        The write is read back and compared; a mismatch (torn by a
        hostile filesystem, or injected via a :class:`~repro.faults.
        FaultPlan`) is rewritten once -- the self-healing path -- and a
        second mismatch raises ``OSError``, which the runner treats as
        transient and retries.
        """
        with _span("store.save") as sp:
            path = self.path(spec)
            envelope = self._envelope(spec, payload)
            # Injected transient write failures propagate: save-side
            # faults must be loud so the runner's retry machinery owns
            # them.
            faults.maybe_io_error("store-save", path.stem)
            write_json_atomic(path, envelope)
            faults.maybe_corrupt_file(path, path.stem)
            if self.verify_writes and not self._verify(path, envelope):
                self.repaired += 1
                write_json_atomic(path, envelope)
                if not self._verify(path, envelope):
                    raise OSError(
                        f"store write verification failed twice for {path}"
                    )
            if sp is not None:
                sp.attrs["job"] = spec.describe()
            return path

    def fsck(self, repair: bool = True) -> dict:
        """Audit (and with ``repair=True`` fix) every entry of this
        version: quarantine corrupt/malformed envelopes, re-home valid
        entries sitting outside their shard (flat pre-shard stragglers,
        hand-moved files) and sweep *all* leftover temp files.  Returns
        a summary dict; ``legacy`` counts previous-version entries still
        awaiting migration (``repro store gc`` compacts those).
        """
        report = {
            "scanned": 0,
            "ok": 0,
            "quarantined": [],
            "misplaced": [],
            "legacy": 0,
            "tmp_removed": 0,
            "repaired": repair,
        }
        legacy_dir = self.root / f"v{self.version - 1}"
        if legacy_dir.is_dir():
            report["legacy"] = sum(1 for _ in legacy_dir.rglob("*.json"))
        if not self.version_dir.exists():
            return report
        if repair:
            report["tmp_removed"] = clean_stale_temps(
                self.version_dir, ttl_s=0.0
            )
        else:
            report["tmp_removed"] = sum(
                1 for _ in self.version_dir.rglob("*.tmp")
            )
        for path in self.entries():
            report["scanned"] += 1
            bad = False
            try:
                envelope = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                bad = True
                envelope = None
            if not bad:
                bad = (
                    not isinstance(envelope, dict)
                    or envelope.get("version") != self.version
                    or not isinstance(envelope.get("key"), dict)
                    or envelope.get("payload") is None
                    or envelope.get("checksum")
                    != payload_checksum(envelope["payload"])
                )
            if bad:
                report["quarantined"].append(str(path))
                if repair:
                    self.quarantine(path)
                continue
            kind = envelope.get("kind")
            if not isinstance(kind, str) or not kind:
                kind = path.relative_to(self.version_dir).parts[0]
            expected = (
                self.version_dir / kind / shard_of(path.name) / path.name
            )
            if path != expected:
                report["misplaced"].append(str(path))
                if repair:
                    expected.parent.mkdir(parents=True, exist_ok=True)
                    try:
                        os.replace(path, expected)
                    except OSError:
                        pass  # racing repair; the survivor is audited
            report["ok"] += 1
        return report

    def gc(self, dry_run: bool = False) -> dict:
        """Compact the store root: migrate, then drop, old versions.

        Every still-valid entry of the immediately preceding version
        (same payload schema, different layout -- the read-through
        migration's bulk form) is re-homed into the current sharded
        layout; everything else under a superseded ``v*`` directory is
        dropped, the emptied directories removed, and temp residue of
        any age swept.  ``dry_run=True`` reports without touching
        anything.  Returns a summary dict.
        """
        report = {
            "dry_run": dry_run,
            "migrated": 0,
            "dropped": [],
            "removed_dirs": 0,
            "tmp_removed": 0,
        }
        for vdir in sorted(self.root.glob("v*")):
            if not vdir.is_dir():
                continue
            try:
                old_version = int(vdir.name[1:])
            except ValueError:
                continue
            if old_version >= self.version:
                continue
            for path in sorted(vdir.rglob("*.json")):
                if old_version == self.version - 1 and self._gc_migrate(
                    path, old_version, dry_run
                ):
                    report["migrated"] += 1
                    continue
                report["dropped"].append(str(path))
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            if not dry_run:
                report["removed_dirs"] += self._prune_empty_dirs(vdir)
        if dry_run:
            report["tmp_removed"] = sum(1 for _ in self.root.rglob("*.tmp"))
        else:
            report["tmp_removed"] = clean_stale_temps(self.root, ttl_s=0.0)
        return report

    def _gc_migrate(
        self, path: Path, old_version: int, dry_run: bool
    ) -> bool:
        """Re-home one previous-version entry into the sharded layout.

        Unlike the spec-keyed read-through path, gc only has the file:
        the envelope must carry the expected version, a well-formed key
        and an intact checksum; the exact key-vs-spec cross-check still
        happens on every later :meth:`load`.  An entry whose sharded
        target already exists was migrated (or recomputed) earlier --
        the old copy is superseded and simply dropped.
        """
        try:
            envelope = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != old_version
            or not isinstance(envelope.get("key"), dict)
            or envelope.get("payload") is None
            or envelope.get("checksum")
            != payload_checksum(envelope["payload"])
        ):
            return False
        kind = envelope.get("kind") or path.parent.name
        if not isinstance(kind, str) or not kind:
            return False
        target = self.version_dir / kind / shard_of(path.name) / path.name
        if target.exists():
            return False
        if not dry_run:
            envelope["version"] = self.version
            write_json_atomic(target, envelope)
            try:
                path.unlink()
            except OSError:
                pass
            self.migrated += 1
        return True

    @staticmethod
    def _prune_empty_dirs(root: Path) -> int:
        """Remove now-empty directories bottom-up; returns the count."""
        removed = 0
        dirs = sorted(
            (d for d in root.rglob("*") if d.is_dir()), reverse=True
        )
        for directory in dirs + [root]:
            try:
                directory.rmdir()
                removed += 1
            except OSError:
                continue  # not empty (or already gone)
        return removed

    def contains(self, spec: JobSpec) -> bool:
        """Existence check that does not touch the hit/miss counters.

        Legacy flat locations count: the entry is loadable (via
        read-through migration), which is what existence means here.
        """
        return self.path(spec).exists() or any(
            legacy.exists() for legacy, _ in self.legacy_paths(spec)
        )

    def wipe(self) -> int:
        """Delete every entry of *this* store version; returns the count."""
        removed = 0
        if self.version_dir.exists():
            for path in sorted(
                self.version_dir.rglob("*.json"), reverse=True
            ):
                path.unlink()
                removed += 1
        return removed

    def entries(self) -> list[Path]:
        """Every stored file of this version (for artifact upload/debug)."""
        return sorted(self.version_dir.rglob("*.json"))
