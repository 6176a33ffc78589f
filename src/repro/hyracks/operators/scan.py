"""HDFS scan and write operators.

The scan reads whole files (the loader writes one file per input split,
sidestepping mid-line block boundaries) and parses each file's lines
with a user-supplied function. Both operators charge the bytes the file
holds, as read or written. Locality is handled one level up: the plan
generator derives a :class:`ChoiceLocationConstraint` from the files'
block locations so each clone runs next to a replica.
"""

from repro.hyracks.job import OperatorDescriptor


class HDFSScanOperator(OperatorDescriptor):
    """Reads and parses the files assigned to each partition.

    :param dfs: the :class:`~repro.hdfs.MiniDFS` instance.
    :param splits: ``splits[p]`` is the list of file paths partition ``p``
        reads.
    :param parse_lines: ``parse_lines(list of str) -> list of tuples``,
        the tuples of one file's lines.
    """

    def __init__(self, dfs, splits, parse_lines, name=None):
        super().__init__(name or "HDFSScan")
        self.dfs = dfs
        self.splits = [list(paths) for paths in splits]
        self.parse_lines = parse_lines

    def run(self, ctx, partition, inputs):
        output = []
        for path in self.splits[partition]:
            data = self.dfs.read(path)
            output += self.parse_lines(data.decode("utf-8").splitlines())
            ctx.io.record_read(len(data))
        return {self.OUT: output}

    @staticmethod
    def locality_choices(dfs, splits):
        """Per-partition candidate nodes derived from block replicas."""
        choices = []
        for paths in splits:
            hosts = []
            for path in paths:
                for location in dfs.block_locations(path):
                    hosts.extend(location.hosts)
            choices.append(sorted(set(hosts)) or list(dfs.datanodes))
        return choices


class HDFSWriteOperator(OperatorDescriptor):
    """Formats tuples and writes one output file per partition."""

    def __init__(self, dfs, path_for_partition, format_tuple, name=None):
        super().__init__(name or "HDFSWrite")
        self.dfs = dfs
        self.path_for_partition = path_for_partition
        self.format_tuple = format_tuple

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        lines = [self.format_tuple(item) for item in stream]
        path = self.path_for_partition(partition)
        ctx.io.record_write(self.dfs.write_text_lines(path, lines))
        return {}
