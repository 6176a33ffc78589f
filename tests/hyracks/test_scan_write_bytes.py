"""The HDFS scan and write operators charge the bytes a file holds.

A line is not ``len(line) + 1`` bytes: a CRLF ending is two, a non-ASCII
character is its UTF-8 width, and a file's last line need not end in a
newline at all.
"""

import pytest

from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster, JobContext, TaskContext
from repro.hyracks.operators.scan import HDFSScanOperator, HDFSWriteOperator

FILES = {
    "crlf": "1 _ 2:1.0\r\n2 _ 1:1.0\r\n",
    "non-ascii": "1 é 2:1.0\n2 ∞ 1:1.0\n",
    "no final newline": "1 _ 2:1.0\n2 _ 1:1.0",
}


@pytest.fixture
def ctx(tmp_path):
    with HyracksCluster(num_nodes=1, root_dir=str(tmp_path / "cluster")) as cluster:
        yield TaskContext(cluster.nodes["node0"], JobContext("bytes"), 0, 1)


@pytest.mark.parametrize("name", sorted(FILES))
def test_the_scan_charges_the_bytes_it_read(ctx, name):
    text = FILES[name]
    dfs = MiniDFS()
    dfs.write("/in/part-0", text)
    scan = HDFSScanOperator(dfs, [["/in/part-0"]], lambda lines: [tuple(lines)])
    before = ctx.io.disk_read_bytes
    (lines,) = scan.run(ctx, 0, [])[scan.OUT]
    assert list(lines) == text.splitlines()
    assert ctx.io.disk_read_bytes - before == len(text.encode("utf-8"))


@pytest.mark.parametrize("lines", [["1 é", "2 ∞∞"], ["plain", ""], []])
def test_the_write_charges_the_bytes_it_wrote(ctx, lines):
    dfs = MiniDFS()
    write = HDFSWriteOperator(dfs, lambda p: "/out/part-%d" % p, format_tuple=str)
    before = ctx.io.disk_write_bytes
    write.run(ctx, 0, [lines])
    written = dfs.read("/out/part-0")
    assert written == ("".join(line + "\n" for line in lines)).encode("utf-8")
    assert ctx.io.disk_write_bytes - before == len(written)
