"""Strongly connected components on a synthetic follower network.

Section 6 of the paper describes a research group using Pregelix to
compute "strongly connected components for directed graphs (e.g., the
Twitter follower network)". This example builds a follower-style graph —
celebrity accounts that everyone follows, mutual-follow cliques, and
one-way followers — runs the forward-backward coloring SCC algorithm,
and reports the community structure.

    python examples/follower_network_scc.py
"""

import random

from repro.algorithms import scc
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver


def follower_network(num_accounts=400, num_communities=6, seed=4):
    """Mutual-follow communities plus one-way celebrity follows."""
    rng = random.Random(seed)
    following = {vid: set() for vid in range(num_accounts)}
    community_size = num_accounts // num_communities
    for community in range(num_communities):
        members = list(
            range(community * community_size, (community + 1) * community_size)
        )
        # A mutual-follow ring makes each community strongly connected.
        for i, member in enumerate(members):
            nxt = members[(i + 1) % len(members)]
            following[member].add(nxt)
            following[nxt].add(member)
        # Plus some random mutual follows inside the community.
        for _ in range(len(members)):
            a, b = rng.sample(members, 2)
            following[a].add(b)
            following[b].add(a)
    # One-way follows of "celebrity" accounts, who follow nobody back —
    # so they never merge communities into one giant SCC.
    celebrities = list(range(num_accounts, num_accounts + 3))
    for vid in range(num_accounts):
        for celebrity in rng.sample(celebrities, 2):
            following[vid].add(celebrity)
    for celebrity in celebrities:
        following[celebrity] = set()
    for vid in sorted(following):
        yield vid, None, [(dest, 1.0) for dest in sorted(following[vid])]


def main():
    cluster = HyracksCluster(num_nodes=4)
    dfs = cluster.dfs
    write_graph_to_dfs(dfs, "/input/followers", follower_network())
    driver = PregelixDriver(cluster, dfs)

    outcome = driver.run(
        scc.build_job(),
        "/input/followers",
        output_path="/output/scc",
        parse_line=scc.parse_line,
        format_record=scc.format_record,
    )
    components = {}
    for line in driver.read_output("/output/scc"):
        vid, label = (int(x) for x in line.split())
        components.setdefault(label, []).append(vid)

    sizes = sorted((len(members) for members in components.values()), reverse=True)
    print(
        "SCC finished in %d supersteps: %d components"
        % (outcome.supersteps, len(components))
    )
    print("largest components:", sizes[:8])
    # Each mutual-follow community is one SCC; the celebrities (followed
    # one-way, following nobody) are singletons.
    print(
        "accounts inside a community SCC: %d / 403"
        % sum(size for size in sizes if size > 1)
    )
    cluster.close()


if __name__ == "__main__":
    main()
