"""Resident datasets: graphs loaded once into the service's DFS."""

import hashlib
import os
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.graphs.io import write_graph_to_dfs


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
        part_files = sorted(
            entry for entry in os.listdir(local_dir)
            if os.path.isfile(os.path.join(local_dir, entry))
        )
        if not part_files:
            raise ReproError("no input files in %s" % local_dir)
        for entry in part_files:
            with open(os.path.join(local_dir, entry)) as handle:
                dfs.write("%s/%s" % (path, entry), handle.read())
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
