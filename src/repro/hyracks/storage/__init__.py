"""Storage substrate: pages, buffer cache, run files, and tree indexes."""

from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage.pages import Page, PageId, PageKind
from repro.hyracks.storage.buffer_cache import BufferCache
from repro.hyracks.storage.run_file import RunFileReader
from repro.hyracks.storage.index import Index, TOMBSTONE
from repro.hyracks.storage.btree import BTree
from repro.hyracks.storage.lsm_btree import LSMBTree

__all__ = [
    "FileManager",
    "Page",
    "PageId",
    "PageKind",
    "BufferCache",
    "RunFileReader",
    "Index",
    "TOMBSTONE",
    "BTree",
    "LSMBTree",
]
