"""Three-party MPC engine and differentially private synthetic tabular data.

Layers, bottom up:

- ``fixed``      exact fixed-point arithmetic over Z_{2^64}
- ``rss``        replicated secret sharing, party simulator, transcripts
- ``primitives`` secure comparisons, equality, max, elementary functions
- ``marginals``  schemas, workloads, distributed marginal computation
- ``mechanisms`` DP randomizers: random selection, Gaussian/Laplace noise
- ``pipeline``   select-measure-generate orchestration (mpc and cdp backends)
- ``dataio``     CSV/domain ingestion, partitioning, workload error metric
- ``cli``        command-line surface (gen / metrics)
"""

__version__ = "0.1.0"
