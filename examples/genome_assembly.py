"""The Genomix case study: graph cleaning with mutations and pipelining.

Section 6 of the paper describes Genomix, a genome assembler that builds
a huge De Bruijn graph and repeatedly merges unbranched paths into
single vertices — exercising Pregelix's vertex addition/removal support,
LSM B-tree storage, and multi-job pipelining. This example runs that
workload end to end: generate a path-dominated graph, pipeline the
path-merging cleaner with a connected-components labeling pass, and show
the assembled "contigs".

    python examples/genome_assembly.py
"""

from repro.algorithms import connected_components as cc
from repro.algorithms import graph_cleaning
from repro.graphs.generators import de_bruijn_path_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.pipelining import run_pipeline


def main():
    cluster = HyracksCluster(num_nodes=3)
    dfs = cluster.dfs

    # A De Bruijn-shaped graph: 40 reads of length 12, plus branch tips.
    count = write_graph_to_dfs(
        dfs, "/input/reads", de_bruijn_path_graph(40, 12, seed=23), num_files=3
    )
    print("constructed De Bruijn-style graph with %d vertices" % count)

    driver = PregelixDriver(cluster, dfs)
    # Pipeline: path merging (mutation-heavy, LSM storage) then labeling.
    # The two jobs share the loaded vertex relation with no HDFS round
    # trip in between (paper Section 5.6).
    cleaner = graph_cleaning.build_job()
    labeler = cc.build_job(vertex_storage=cleaner.vertex_storage)
    outcome = run_pipeline(
        driver,
        [cleaner, labeler],
        "/input/reads",
        output_path="/output/contigs",
        parse_line=graph_cleaning.parse_line,
        format_record=graph_cleaning.format_record,
    )

    cleaning, labeling = outcome.outcomes
    print(
        "cleaning: %d supersteps, vertices %d -> %d (merged paths)"
        % (cleaning.supersteps, count, cleaning.gs.num_vertices)
    )
    print("labeling: %d supersteps" % labeling.supersteps)

    contigs = {}
    for line in driver.read_output("/output/contigs"):
        fields = line.split()
        contigs.setdefault(int(fields[1]), []).append(int(fields[0]))
    lengths = sorted((len(members) for members in contigs.values()), reverse=True)
    print(
        "assembled %d contigs; fragment counts per contig (top 10): %s"
        % (len(contigs), lengths[:10])
    )
    cluster.close()


if __name__ == "__main__":
    main()
