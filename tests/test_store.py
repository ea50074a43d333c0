"""Tests for the durable store: atomic writes, the WAL, and the audit.

The crash-window behaviours that require killing a real process
(``torn-write``) live in ``test_crash_recovery.py``; here we cover the
in-process contracts — checksums, journal round-trips, audit verdicts,
quarantine — plus the serve cache-snapshot format built on top.
"""

import hashlib
import json

import pytest

from repro.errors import SnapshotError, StoreError
from repro.harness.store import (
    JOURNAL_NAME,
    RunJournal,
    audit_run,
    durable_write,
    durable_write_text,
    quarantine,
    read_journal,
)
from repro.integrity import bytes_digest, seal
from repro.resilience import FaultPlan, FaultRule, fault_context


class TestDurableWrite:
    def test_writes_bytes_and_returns_their_sha256(self, tmp_path):
        path = tmp_path / "x.bin"
        digest = durable_write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert digest == hashlib.sha256(b"payload").hexdigest()

    def test_replaces_existing_content_atomically(self, tmp_path):
        path = tmp_path / "x.txt"
        durable_write(path, b"old")
        durable_write(path, b"new")
        assert path.read_bytes() == b"new"

    def test_leaves_no_temp_residue(self, tmp_path):
        durable_write(tmp_path / "a.txt", b"data")
        assert {p.name for p in tmp_path.iterdir()} == {"a.txt"}

    def test_text_write_preserves_newlines_exactly(self, tmp_path):
        # No platform newline translation: byte stability is the point.
        path = tmp_path / "t.txt"
        durable_write_text(path, "a\nb\r\nc\n")
        assert path.read_bytes() == b"a\nb\r\nc\n"

    def test_fsync_error_fault_raises_and_leaves_target_untouched(
        self, tmp_path
    ):
        path = tmp_path / "x.txt"
        durable_write(path, b"survives")
        plan = FaultPlan(rules=(
            FaultRule(site="store:x.txt", kind="fsync-error"),
        ))
        with fault_context(plan):
            with pytest.raises(StoreError, match="x.txt"):
                durable_write(path, b"never lands")
        assert path.read_bytes() == b"survives"
        assert {p.name for p in tmp_path.iterdir()} == {"x.txt"}

    def test_bit_flip_fault_records_intended_checksum(self, tmp_path):
        # Silent corruption: the checksum is of the *intended* bytes,
        # the stored bytes differ — exactly what the audit must catch.
        path = tmp_path / "x.bin"
        data = b"0123456789"
        plan = FaultPlan(rules=(
            FaultRule(site="store:x.bin", kind="bit-flip"),
        ))
        with fault_context(plan):
            digest = durable_write(path, data)
        assert digest == bytes_digest(data)
        assert path.read_bytes() != data
        assert bytes_digest(path.read_bytes()) != digest


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.run_start(
                generator="g", schema_version=4,
                selection=["b", "a"], scenario=None,
            )
            journal.start("a", "a.txt")
            journal.commit("a", "a.txt", "deadbeef")
            journal.artifact_done("a")
            journal.manifest_committed("cafe")
        records = read_journal(tmp_path)
        assert [r["event"] for r in records] == [
            "run_start", "start", "commit", "artifact_done",
            "manifest_committed",
        ]
        assert records[0]["selection"] == ["a", "b"]  # sorted
        assert records[2]["sha256"] == "deadbeef"

    def test_reader_tolerates_torn_tail(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.start("a", "a.txt")
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"event": "commit", "artifact": "a", "fi')  # torn
        records = read_journal(tmp_path)
        assert [r["event"] for r in records] == ["start"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path) == []


def _write_artifact(tmp_path, name, journal=None):
    """One committed single-file artefact; returns (filename, digest)."""
    filename = f"{name}.txt"
    data = f"{name} content\n".encode()
    if journal is not None:
        journal.start(name, filename)
    digest = durable_write(tmp_path / filename, data)
    if journal is not None:
        journal.commit(name, filename, digest)
        journal.artifact_done(name)
    return filename, digest


class TestAudit:
    def test_clean_run_is_trusted(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.run_start(generator="g", schema_version=4,
                              selection=["a"], scenario=None)
            _write_artifact(tmp_path, "a", journal)
        audit = audit_run(tmp_path)
        assert audit.ok
        assert audit.trusted == {"a"}
        assert audit.broken == {}
        assert audit.selection == ["a"]

    def test_missing_file_breaks_the_artifact(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            filename, _ = _write_artifact(tmp_path, "a", journal)
        (tmp_path / filename).unlink()
        audit = audit_run(tmp_path)
        assert audit.by_status("missing") == [filename]
        assert "a" in audit.broken

    def test_corrupt_file_is_flagged_and_quarantined(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            filename, _ = _write_artifact(tmp_path, "a", journal)
        path = tmp_path / filename
        tampered = bytearray(path.read_bytes())
        tampered[0] ^= 0xFF
        path.write_bytes(bytes(tampered))
        audit = audit_run(tmp_path, quarantine_corrupt=True)
        assert audit.by_status("corrupt") == [filename]
        assert "a" in audit.broken
        assert not path.exists()
        assert path.with_name(filename + ".corrupt").exists()

    def test_start_without_commit_is_torn(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.start("a", "a.txt")
            (tmp_path / "a.txt").write_bytes(b"half-writ")
        audit = audit_run(tmp_path)
        assert audit.by_status("torn") == ["a.txt"]
        assert "a" in audit.broken

    def test_commit_without_artifact_done_is_untrusted(self, tmp_path):
        # Every file present and correct, but the artefact's export
        # never finished — a later file of the set may never have begun.
        with RunJournal(tmp_path) as journal:
            journal.start("a", "a.txt")
            digest = durable_write(tmp_path / "a.txt", b"fine\n")
            journal.commit("a", "a.txt", digest)
        audit = audit_run(tmp_path)
        assert audit.by_status("ok") == ["a.txt"]
        assert "a" in audit.broken
        assert audit.trusted == set()

    def test_unexpected_payload_file_is_extra(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            _write_artifact(tmp_path, "a", journal)
        (tmp_path / "stray.txt").write_bytes(b"who wrote this")
        audit = audit_run(tmp_path)
        assert audit.extra == ["stray.txt"]
        assert not audit.ok
        assert audit.trusted == {"a"}  # extra files break nothing

    def test_bookkeeping_and_quarantine_files_are_not_extra(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            _write_artifact(tmp_path, "a", journal)
        (tmp_path / "manifest.json").write_text("{}")
        (tmp_path / "old.txt.corrupt").write_bytes(b"evidence")
        audit = audit_run(tmp_path)
        assert audit.extra == []

    def test_manifest_v4_checksums_are_authoritative(self, tmp_path):
        filename, digest = _write_artifact(tmp_path, "a")
        manifest = {
            "artifacts": {"a": {"files": {filename: digest}}},
        }
        audit = audit_run(tmp_path, manifest)
        assert audit.ok and audit.trusted == {"a"}
        manifest["artifacts"]["a"]["files"][filename] = "0" * 64
        audit = audit_run(tmp_path, manifest)
        assert audit.by_status("corrupt") == [filename]

    def test_quarantine_moves_never_deletes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"torn bytes")
        target = quarantine(path)
        assert not path.exists()
        assert target.read_bytes() == b"torn bytes"


class TestSnapshotFormat:
    def _entries(self):
        return [
            (("hash-1", (("k_year", 1),)),
             seal({"answer": 1}, kind="echo", params={"n": 1})),
            (("hash-2", (("k_year", 1),), "fp-a"),
             seal([1, 2, 3], kind="echo", params={"n": 2},
                  scenario={"name": "fp-a"})),
        ]

    def test_round_trip_preserves_keys_and_values(self, tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot

        path = tmp_path / "cache.json"
        assert save_snapshot(path, self._entries()) == 2
        loaded = load_snapshot(path)
        assert loaded.quarantined == 0 and loaded.total == 2
        assert loaded.entries == self._entries()

    @pytest.mark.parametrize("field", ["kind", "params"])
    def test_entry_without_provenance_is_quarantined(self, tmp_path, field):
        from repro.serve.snapshot import load_snapshot, save_snapshot

        path = tmp_path / "cache.json"
        save_snapshot(path, self._entries())
        document = json.loads(path.read_text())
        # Its digest still verifies: only the recompute provenance the
        # scrubber needs is gone.
        del document["payload"]["entries"][0][field]
        path.write_text(json.dumps(document))
        loaded = load_snapshot(path)
        assert loaded.quarantined == 1 and loaded.total == 2
        assert [key for key, _ in loaded.entries] == [
            ("hash-2", (("k_year", 1),), "fp-a")
        ]

    def test_no_whole_document_checksum(self, tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot

        path = tmp_path / "cache.json"
        save_snapshot(path, self._entries())
        document = json.loads(path.read_text())
        assert set(document) == {"format", "version", "payload"}
        # Files that still carry one (older writers) restore unchanged:
        # the reader never looked at it.
        document["sha256"] = "0" * 64
        path.write_text(json.dumps(document))
        assert load_snapshot(path).entries == self._entries()

    def test_every_entry_carries_its_own_digest(self, tmp_path):
        from repro.integrity import payload_digest
        from repro.serve.snapshot import save_snapshot

        path = tmp_path / "cache.json"
        save_snapshot(path, self._entries())
        document = json.loads(path.read_text())
        for entry in document["payload"]["entries"]:
            assert entry["sha256"] == payload_digest(entry["value"])

    def test_damaged_entry_is_quarantined_rest_salvaged(self, tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot

        path = tmp_path / "cache.json"
        save_snapshot(path, self._entries())
        document = json.loads(path.read_text())
        # Damage one entry's value after its digest was sealed — the
        # single-entry blast radius the per-entry digests exist for.
        document["payload"]["entries"][0]["value"] = {"answer": 2}
        path.write_text(json.dumps(document))
        loaded = load_snapshot(path)
        assert loaded.quarantined == 1 and loaded.total == 2
        assert [key for key, _ in loaded.entries] == [
            ("hash-2", (("k_year", 1),), "fp-a")
        ]

    def test_structurally_broken_snapshot_raises(self, tmp_path):
        from repro.serve.snapshot import load_snapshot

        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_old_version_raises(self, tmp_path):
        from repro.serve.snapshot import SNAPSHOT_FORMAT, load_snapshot

        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": SNAPSHOT_FORMAT, "version": 1}))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)

    def test_wrong_format_marker_raises(self, tmp_path):
        from repro.serve.snapshot import load_snapshot

        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SnapshotError, match="format"):
            load_snapshot(path)

    def test_missing_file_raises(self, tmp_path):
        from repro.serve.snapshot import load_snapshot

        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.json")
