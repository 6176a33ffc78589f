"""The durable job journal: frame codec, torn tails, storage backends."""

import os

import pytest

from repro.common.errors import ReproError
from repro.hdfs import MiniDFS
from repro.serve import (
    DFSJournalStorage,
    Journal,
    LocalJournalStorage,
    ServiceCrashed,
    open_journal,
)
from repro.serve.journal import (
    MAGIC,
    RECORD_FINISHED,
    RECORD_STARTED,
    RECORD_SUBMITTED,
    encode_record,
    iter_frames,
)


def frames(data):
    return [payload for payload, _ in iter_frames(data)]


class TestFrameCodec:
    def test_roundtrip(self):
        records = [
            {"type": "submitted", "job_id": "job-000001", "n": i}
            for i in range(5)
        ]
        blob = b"".join(encode_record(r) for r in records)
        assert frames(blob) == records

    def test_frame_opens_with_magic(self):
        assert encode_record({"a": 1})[:2] == MAGIC

    def test_partial_final_record_ends_iteration(self):
        whole = encode_record({"job_id": "a", "type": "submitted"})
        torn = encode_record({"job_id": "b", "type": "started"})
        for cut in (1, len(torn) // 2, len(torn) - 1):
            got = frames(whole + torn[:cut])
            assert len(got) == 1 and got[0]["job_id"] == "a"

    def test_bad_magic_ends_iteration(self):
        whole = encode_record({"job_id": "a"})
        assert frames(whole + b"XX" + whole[2:]) == [{"job_id": "a"}]

    def test_bad_crc_ends_iteration(self):
        first = encode_record({"job_id": "a"})
        second = bytearray(encode_record({"job_id": "b"}))
        second[-1] ^= 0x01  # flip a payload bit: CRC mismatch
        assert frames(first + bytes(second)) == [{"job_id": "a"}]

    def test_empty_input(self):
        assert frames(b"") == []


@pytest.fixture(params=["local", "dfs"])
def storage(request, tmp_path):
    if request.param == "local":
        yield LocalJournalStorage(str(tmp_path / "journal.wal"))
    else:
        dfs = MiniDFS(datanodes=["node0", "node1"])
        yield DFSJournalStorage(dfs)


class TestStorageBackends:
    def test_append_read_size(self, storage):
        assert storage.read() == b"" and storage.size() == 0
        storage.append(b"hello ")
        storage.append(b"journal")
        assert storage.read() == b"hello journal"
        assert storage.size() == len(b"hello journal")

    def test_truncate(self, storage):
        storage.append(b"0123456789")
        storage.truncate(4)
        assert storage.read() == b"0123"

    def test_damage_tear_keeps_prefix(self, storage):
        storage.append(b"0123456789")
        storage.damage_tear(3)
        assert storage.read() == b"012"

    def test_describe_names_the_backend(self, storage):
        assert storage.describe().split(":", 1)[0] in ("file", "dfs")


class TestJournal:
    def record(self, journal, record_type=RECORD_SUBMITTED, job_id="job-000001",
               **fields):
        return journal.append(record_type, job_id, **fields)

    def journal(self, tmp_path):
        return Journal(LocalJournalStorage(str(tmp_path / "j.wal")))

    def test_append_replay_roundtrip(self, tmp_path):
        journal = self.journal(tmp_path)
        self.record(journal, RECORD_SUBMITTED, request={"algorithm": "cc"})
        self.record(journal, RECORD_STARTED, run_id="serve-1-a1")
        self.record(journal, RECORD_FINISHED, state="succeeded")
        replay = journal.replay()
        assert [r["type"] for r in replay.records] == [
            "submitted", "started", "finished",
        ]
        assert replay.torn_bytes == 0
        by_job = replay.by_job()
        assert list(by_job) == ["job-000001"]
        assert by_job["job-000001"]["last"] == "finished"

    def test_unknown_record_type_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            self.record(self.journal(tmp_path), "exploded")

    def test_torn_tail_truncated_never_fatal(self, tmp_path):
        """The satellite: a crash mid-append leaves a partial final
        record; replay truncates it and recovers everything before it —
        it never aborts recovery."""
        journal = self.journal(tmp_path)
        self.record(journal, RECORD_SUBMITTED)
        self.record(journal, RECORD_STARTED, run_id="r")
        frame = encode_record({"type": "finished", "job_id": "job-000001"})
        journal.storage.append(frame[: len(frame) // 2])

        replay = journal.replay()
        assert [r["type"] for r in replay.records] == ["submitted", "started"]
        assert replay.torn_bytes == len(frame) // 2
        assert journal.torn_tails_repaired == 1
        # The tail is physically gone: appends land on a clean prefix.
        assert journal.storage.size() == replay.valid_bytes
        self.record(journal, RECORD_FINISHED, state="succeeded")
        assert [r["type"] for r in journal.replay().records] == [
            "submitted", "started", "finished",
        ]

    def test_corrupt_tail_degrades_to_torn_tail(self, tmp_path):
        journal = self.journal(tmp_path)
        self.record(journal, RECORD_SUBMITTED)
        self.record(journal, RECORD_FINISHED, state="succeeded")
        journal.storage.damage_corrupt()
        replay = journal.replay()
        assert [r["type"] for r in replay.records] == ["submitted"]
        assert replay.torn_bytes > 0

    def test_frozen_journal_raises_service_crashed(self, tmp_path):
        journal = self.journal(tmp_path)
        self.record(journal)
        journal.freeze()
        assert journal.frozen
        with pytest.raises(ServiceCrashed):
            self.record(journal, RECORD_FINISHED)
        # The pre-freeze record is intact.
        assert len(journal.replay().records) == 1

    def test_stats_and_latency(self, tmp_path):
        journal = self.journal(tmp_path)
        assert journal.avg_append_seconds() == 0.0
        self.record(journal)
        stats = journal.stats()
        assert stats["records_appended"] == 1
        assert stats["bytes"] > 0
        assert stats["avg_append_seconds"] >= 0.0
        assert stats["frozen"] is False
        assert stats["location"].startswith("file:")

    def test_by_job_later_records_win(self, tmp_path):
        journal = self.journal(tmp_path)
        self.record(journal, RECORD_SUBMITTED)
        self.record(journal, RECORD_STARTED, run_id="a1", attempt=1)
        self.record(journal, RECORD_STARTED, run_id="a2", attempt=2)
        by_job = journal.replay().by_job()
        assert by_job["job-000001"]["started"]["run_id"] == "a2"


class TestOpenJournal:
    def test_directory_gets_wal_filename(self, tmp_path):
        journal = open_journal("file:%s" % tmp_path)
        assert journal.storage.path == os.path.join(str(tmp_path), "journal.wal")

    def test_dfs_prefix_goes_to_dfs(self):
        dfs = MiniDFS(datanodes=["node0"])
        journal = open_journal("dfs:/serve/journal.wal", dfs=dfs)
        assert isinstance(journal.storage, DFSJournalStorage)
        assert journal.storage.path == "/serve/journal.wal"

    def test_file_prefix_forces_local_even_with_dfs(self, tmp_path):
        dfs = MiniDFS(datanodes=["node0"])
        target = str(tmp_path / "will-exist-later")
        journal = open_journal("file:%s" % target, dfs=dfs)
        assert isinstance(journal.storage, LocalJournalStorage)
        journal.append(RECORD_SUBMITTED, "job-000001")
        assert os.path.exists(os.path.join(target, "journal.wal"))

    def test_dfs_prefix_requires_dfs(self):
        with pytest.raises(ReproError):
            open_journal("dfs:/serve/journal.wal")

    @pytest.mark.parametrize("target", [
        "/serve/journal.wal",  # absolute, no such local directory
        "{tmp}",  # an existing local directory
        "journal.wal",  # relative
    ])
    def test_unprefixed_target_is_refused(self, tmp_path, target):
        dfs = MiniDFS(datanodes=["node0"])
        with pytest.raises(ReproError, match="file:<path>.*dfs:<path>"):
            open_journal(target.format(tmp=tmp_path), dfs=dfs)
        assert dfs.list_files("/") == []

    def test_journal_instance_is_refused(self, tmp_path):
        journal = Journal(LocalJournalStorage(str(tmp_path / "j.wal")))
        with pytest.raises(ReproError):
            open_journal(journal)
