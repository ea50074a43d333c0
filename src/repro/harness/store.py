"""Crash-safe durable storage: atomic checksummed writes + a run WAL.

The paper's evidentiary value rests on byte-identical regeneration of
its artefacts, and ``repro-paper --resume`` trusts whatever it finds on
disk — so every durable byte must be either *absent* or
*verified-correct*.  This module is the one place the harness touches
stable storage:

* :func:`durable_write` — the classic crash-consistent sequence: write
  to a same-directory temp file, ``fsync`` it, ``os.replace`` onto the
  final name, then ``fsync`` the parent directory so the rename itself
  is durable.  Returns the SHA-256 of the bytes written, which the
  manifest records per file (schema v4).

* :class:`RunJournal` — an fsync'd append-only ``journal.jsonl``
  write-ahead log.  Every artefact file gets a ``start`` record before
  its bytes are written and a ``commit`` record (carrying the checksum)
  after the rename is durable; a ``run_start`` record opens the log
  with enough context (artefact selection, scenario spec) to
  reconstruct the run even when a crash struck before ``manifest.json``
  existed.  A torn trailing line — the expected residue of a crash
  mid-append — is tolerated by the reader.

* :func:`audit_run` — the journal + checksum audit behind
  ``repro-paper --verify`` and the recovery half of ``--resume``: every
  file is classified ``ok`` / ``missing`` / ``torn`` (journal ``start``
  without ``commit``) / ``corrupt`` (bytes do not match the recorded
  checksum) / ``extra``, and corrupt files are *quarantined* to
  ``<name>.corrupt`` rather than deleted, so forensics survive
  recovery.

Chaos: every write consults :func:`~repro.resilience.fault_point` at
site ``store:<filename>``, and three ``store:``-specific fault kinds
make crash-consistency testable deterministically:

* ``torn-write`` — a truncated prefix is written straight to the final
  path (no rename, no commit record) and the process is SIGKILLed:
  power loss mid-write, on demand;
* ``bit-flip``   — one bit of the payload is flipped *after* the
  checksum is taken: silent media corruption the audit must catch;
* ``fsync-error``— the durability barrier fails with a typed
  :class:`~repro.errors.StoreError`: a dying disk, surfaced cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import StoreError
from repro.integrity.digest import bytes_digest
from repro.resilience.faultplan import fault_point

__all__ = [
    "JOURNAL_NAME",
    "sha256_file",
    "durable_write",
    "durable_write_text",
    "durable_write_json",
    "fsync_dir",
    "RunJournal",
    "read_journal",
    "FileReport",
    "RunAudit",
    "audit_run",
    "quarantine",
]

#: The write-ahead log's filename inside an ``--output`` directory.
JOURNAL_NAME = "journal.jsonl"

#: Files the audit never treats as artefact payload.
_BOOKKEEPING = ("manifest.json", JOURNAL_NAME)


def sha256_file(path: Path) -> str | None:
    """Hex SHA-256 of a file's bytes, or ``None`` if it cannot be read."""
    try:
        return bytes_digest(Path(path).read_bytes())
    except OSError:
        return None


def fsync_dir(path: Path) -> None:
    """Fsync a directory so a rename inside it is durable.

    Platforms (or filesystems) that cannot open directories simply
    skip the barrier — the write is still atomic, just not provably
    power-loss-durable, which matches ``os.replace``-only stores.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _sigkill_self() -> None:  # pragma: no cover - ends the process
    """Simulated power loss: die exactly like ``kill -9``."""
    try:
        os.kill(os.getpid(), signal.SIGKILL)
    except (AttributeError, OSError):
        os._exit(137)


def durable_write(path: str | Path, data: bytes) -> str:
    """Atomically, durably write ``data`` to ``path``; return its SHA-256.

    The observable guarantee: after this returns, ``path`` holds exactly
    ``data`` and survives power loss; if the process dies at any point
    before the return, ``path`` holds either its previous content or
    nothing — never a torn mixture (absent injected ``store:`` faults,
    which exist precisely to break this promise on purpose).
    """
    path = Path(path)
    checksum = bytes_digest(data)
    fault = fault_point(f"store:{path.name}")
    if fault == "torn-write":
        # Crash mid-write: half the payload lands at the *final* path
        # (as a plain non-atomic writer would leave it) and the process
        # is killed -9.  Nothing commits; the journal shows the tear.
        with open(path, "wb") as fh:
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
        _sigkill_self()
    if fault == "bit-flip":
        # Silent corruption: the recorded checksum stays the intended
        # one while the stored bytes differ by a single bit.
        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0x01
        data = bytes(corrupted)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                if fault == "fsync-error":
                    raise OSError(5, "injected fsync failure")
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StoreError(
                f"durable write of {path.name} failed: {exc}"
            ) from exc
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    fsync_dir(path.parent)
    return checksum


def durable_write_text(path: str | Path, text: str) -> str:
    """Durable write of UTF-8 text with no platform newline translation.

    Artefact bytes must be identical on every platform — checksum
    stability is the whole point — so text goes to disk exactly as
    composed, encoded UTF-8, ``"\\n"`` endings untouched.
    """
    return durable_write(path, text.encode("utf-8"))


def durable_write_json(path: str | Path, payload: Any) -> str:
    """Durable write of a JSON document in the manifest's canonical form."""
    return durable_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


# -- the write-ahead run journal ---------------------------------------------


class RunJournal:
    """Fsync'd append-only WAL for one export run.

    One JSON object per line; every record is flushed and fsync'd
    before the write it describes proceeds (``start``) or before the
    caller trusts the write happened (``commit``), so the log on disk
    is never *behind* the artefact files.  The file handle stays open
    for the run — reopening per record would pay a path lookup per
    append without buying extra safety.
    """

    def __init__(self, outdir: str | Path, *, fresh: bool = True) -> None:
        self.path = Path(outdir) / JOURNAL_NAME
        mode = "w" if fresh else "a"
        self._fh = open(self.path, mode, encoding="utf-8", newline="")

    def record(self, event: str, **fields: Any) -> None:
        """Append one fsync'd record; a crash leaves at most a torn tail."""
        entry = {"event": event, **fields}
        try:
            self._fh.write(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            raise StoreError(f"journal append failed: {exc}") from exc

    def run_start(
        self,
        *,
        generator: str,
        schema_version: int,
        selection: Iterable[str],
        scenario: Mapping[str, Any] | None,
    ) -> None:
        self.record(
            "run_start",
            generator=generator,
            schema_version=schema_version,
            selection=sorted(selection),
            scenario=dict(scenario) if scenario is not None else None,
        )

    def start(self, artifact: str, file: str) -> None:
        self.record("start", artifact=artifact, file=file)

    def commit(self, artifact: str, file: str, sha256: str) -> None:
        self.record("commit", artifact=artifact, file=file, sha256=sha256)

    def artifact_done(self, artifact: str) -> None:
        self.record("artifact_done", artifact=artifact)

    def manifest_committed(self, sha256: str) -> None:
        self.record("manifest_committed", sha256=sha256)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - platform-dependent
                pass
            self._fh.close()
            fsync_dir(self.path.parent)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_journal(outdir: str | Path) -> list[dict]:
    """Parse ``journal.jsonl``, tolerating the torn tail a crash leaves.

    Returns ``[]`` when no journal exists.  Any line that is not valid
    JSON — necessarily a torn final append, since every record is
    fsync'd before the next begins — is dropped.
    """
    path = Path(outdir) / JOURNAL_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return []
    records: list[dict] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # the torn tail of a crashed append
        if isinstance(entry, dict):
            records.append(entry)
    return records


# -- the audit ----------------------------------------------------------------


@dataclass
class FileReport:
    """One audited file: its artefact, expected hash, and verdict."""

    file: str
    artifact: str | None
    status: str  # "ok" | "missing" | "torn" | "corrupt" | "extra"
    expected_sha256: str | None = None
    actual_sha256: str | None = None


@dataclass
class RunAudit:
    """What the journal + checksum audit concluded about one directory.

    ``broken`` maps every artefact that must be regenerated to the
    reason; ``trusted`` artefacts passed every check on every file.
    ``selection``/``scenario`` carry the journal's ``run_start``
    context when one exists (what lets ``--resume`` recover a run whose
    crash predates the manifest).
    """

    files: list[FileReport] = field(default_factory=list)
    broken: dict[str, str] = field(default_factory=dict)
    trusted: set[str] = field(default_factory=set)
    selection: list[str] | None = None
    scenario: dict | None = None
    manifest_present: bool = False

    @property
    def ok(self) -> bool:
        return not self.broken and not self.extra

    @property
    def extra(self) -> list[str]:
        return [r.file for r in self.files if r.status == "extra"]

    def by_status(self, status: str) -> list[str]:
        return [r.file for r in self.files if r.status == status]


def _expected_files(
    manifest: Mapping[str, Any] | None, records: list[dict]
) -> dict[str, tuple[str, str | None]]:
    """``file -> (artifact, expected_sha256)`` from manifest v4, falling
    back to journal ``commit`` records for files the manifest does not
    cover (e.g. when the crash predates the manifest entirely)."""
    expected: dict[str, tuple[str, str | None]] = {}
    for rec in records:
        if rec.get("event") == "commit" and rec.get("file"):
            expected[rec["file"]] = (
                rec.get("artifact", ""), rec.get("sha256")
            )
    if manifest:
        for name, entry in (manifest.get("artifacts") or {}).items():
            for fname, digest in (entry.get("files") or {}).items():
                expected[fname] = (name, digest)
    return expected


def _torn_files(records: list[dict]) -> dict[str, str]:
    """``file -> artifact`` for journal ``start`` records never committed."""
    started: dict[str, str] = {}
    for rec in records:
        if rec.get("event") == "start" and rec.get("file"):
            started[rec["file"]] = rec.get("artifact", "")
        elif rec.get("event") == "commit" and rec.get("file"):
            started.pop(rec["file"], None)
    return started


def quarantine(path: Path) -> Path:
    """Move a corrupt file aside as ``<name>.corrupt`` (never delete —
    the torn bytes are evidence).  An existing quarantine file of the
    same name is overwritten: the newest corpse is the interesting one."""
    target = path.with_name(path.name + ".corrupt")
    os.replace(path, target)
    fsync_dir(path.parent)
    return target


def audit_run(
    outdir: str | Path,
    manifest: Mapping[str, Any] | None = None,
    records: list[dict] | None = None,
    *,
    quarantine_corrupt: bool = False,
) -> RunAudit:
    """Journal + checksum audit of one ``--output`` directory.

    Classifies every expected file (manifest v4 checksums first, journal
    commits as fallback), flags journal-``start``-without-``commit``
    files as ``torn``, reports unexpected payload files as ``extra``,
    and — with ``quarantine_corrupt`` — moves torn/corrupt files to
    ``*.corrupt`` so nothing downstream trusts them.
    """
    outdir = Path(outdir)
    if records is None:
        records = read_journal(outdir)
    audit = RunAudit(manifest_present=manifest is not None)
    for rec in records:
        if rec.get("event") == "run_start":
            audit.selection = list(rec.get("selection") or [])
            audit.scenario = rec.get("scenario")
    done = {
        rec.get("artifact")
        for rec in records
        if rec.get("event") == "artifact_done"
    }
    expected = _expected_files(manifest, records)
    torn = _torn_files(records)
    artifacts_seen: dict[str, list[FileReport]] = {}

    def flag(report: FileReport, reason: str) -> None:
        if report.artifact:
            audit.broken.setdefault(report.artifact, reason)

    for fname in sorted(set(expected) | set(torn)):
        artifact, digest = expected.get(fname, (torn.get(fname), None))
        path = outdir / fname
        actual = sha256_file(path)
        if fname in torn:
            report = FileReport(fname, artifact, "torn", digest, actual)
            flag(report, f"{fname}: write started but never committed")
            if quarantine_corrupt and actual is not None:
                quarantine(path)
        elif actual is None:
            report = FileReport(fname, artifact, "missing", digest, None)
            flag(report, f"{fname}: missing from {outdir.name}/")
        elif digest is not None and actual != digest:
            report = FileReport(fname, artifact, "corrupt", digest, actual)
            flag(report, f"{fname}: checksum mismatch")
            if quarantine_corrupt:
                quarantine(path)
        else:
            report = FileReport(fname, artifact, "ok", digest, actual)
        audit.files.append(report)
        if report.artifact:
            artifacts_seen.setdefault(report.artifact, []).append(report)

    # Artefacts the journal saw start but that never reached
    # artifact_done are untrusted even if each written file checks out:
    # a later file of the set may never have been started at all.
    started_artifacts = {
        rec.get("artifact")
        for rec in records
        if rec.get("event") in ("start", "commit")
    }
    for artifact in sorted(a for a in started_artifacts if a):
        if artifact not in done and artifact not in audit.broken:
            audit.broken[artifact] = (
                f"{artifact}: export never completed (no artifact_done)"
            )
    for artifact, reports in artifacts_seen.items():
        if artifact not in audit.broken and all(
            r.status == "ok" for r in reports
        ):
            audit.trusted.add(artifact)

    known = set(expected) | set(torn)
    for path in sorted(outdir.iterdir() if outdir.is_dir() else []):
        if not path.is_file():
            continue
        if path.name in _BOOKKEEPING or path.name.endswith(".corrupt"):
            continue
        if path.name.startswith(".") and path.name.endswith(".tmp"):
            continue  # an orphaned temp file is pre-rename residue, not payload
        if path.name not in known:
            audit.files.append(
                FileReport(path.name, None, "extra", None, sha256_file(path))
            )
    return audit
