"""Pregelix reproduction: Pregel as an iterative dataflow of relational operators.

A from-scratch Python implementation of the system described in
*"Pregelix: Big(ger) Graph Analytics on A Dataflow Engine"* (Bu, Borkar,
Jia, Carey, Condie - VLDB 2014), including the Hyracks-style dataflow
engine it runs on, a simulated HDFS, the four comparison systems of the
paper's evaluation, and a benchmark harness that regenerates every table
and figure. See DESIGN.md for the inventory and EXPERIMENTS.md for
paper-vs-measured results.

Typical usage::

    from repro.algorithms import pagerank
    from repro.graphs.generators import webmap_graph
    from repro.graphs.io import write_graph_to_dfs
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix import PregelixDriver

    cluster = HyracksCluster(num_nodes=4)
    write_graph_to_dfs(cluster.dfs, "/in", webmap_graph(2000))
    outcome = PregelixDriver(cluster, cluster.dfs).run(
        pagerank.build_job(iterations=10), "/in", output_path="/out"
    )

Subpackages
-----------
``repro.pregelix``
    The Pregel API, plan generator, driver, optimizer, fault tolerance.
``repro.hyracks``
    The dataflow engine: operators, connectors, scheduler, storage.
``repro.hdfs``
    The simulated distributed file system.
``repro.algorithms``
    Eleven built-in vertex programs.
``repro.baselines``
    Architecture-level models of Giraph, GraphLab, Hama, and GraphX.
``repro.graphs``
    Dataset generators, text/edge-list IO, samplers, NetworkX adapters.
``repro.bench``
    The evaluation harness regenerating the paper's tables and figures.
"""

__version__ = "0.1.0"
