"""Resident datasets: graphs loaded once into the service's DFS."""

import hashlib
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.graphs.io import ingest_part_files, write_graph_to_dfs


@dataclass
class Dataset:
    """A graph kept resident in the service's DFS."""

    name: str
    path: str
    digest: str
    nbytes: int
    num_files: int

    def to_dict(self):
        return {
            "name": self.name,
            "path": self.path,
            "digest": self.digest,
            "bytes": self.nbytes,
            "files": self.num_files,
        }


def load_dataset(dfs, name, vertices=None, local_dir=None, num_files=1):
    """Write a graph under ``/serve/datasets/<name>`` and fingerprint it.

    :param vertices: an iterable of ``(vid, value, edges)`` tuples, or
    :param local_dir: a directory of part files to ingest verbatim.

    The digest covers every file's path and bytes; it keys the result
    and plan caches, so two services that loaded the same graph agree
    on what a cached answer is an answer to.
    """
    if (vertices is None) == (local_dir is None):
        raise ReproError("add_dataset needs exactly one of vertices/local_dir")
    path = "/serve/datasets/%s" % name
    if vertices is not None:
        write_graph_to_dfs(dfs, path, iter(vertices), num_files=num_files)
    else:
        ingest_part_files(dfs, local_dir, path)
    digest = hashlib.sha256()
    files = sorted(dfs.list_files(path))
    for file_path in files:
        digest.update(file_path.encode())
        digest.update(dfs.read(file_path))
    return Dataset(
        name=name,
        path=path,
        digest=digest.hexdigest()[:16],
        nbytes=dfs.total_bytes(path),
        num_files=len(files),
    )
