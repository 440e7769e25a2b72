"""Cohen-Lenstra measures on partitions for sandpile groups of random graphs.

Exact-arithmetic implementations of the limiting p-Sylow partition measure
and its deformed and truncated relatives, a Markov-chain sampler for the base
measure, and a random-graph experiment harness that reads p-Sylow partitions
of sandpile groups by elimination mod p^cap (at p = 2 from a mod-2 pass and a
Schur complement), with integer Smith normal form as the reference route.
"""

from .partitions import Partition, enumerate_partitions
from .qseries import (
    BoundedReal,
    d_lambda,
    deformed_constant,
    odd_constant,
    verify_euler_identity,
    verify_qbinomial,
)
from .measures import (
    MassValue,
    PartitionDistribution,
    pmf,
    pmf_deformed,
    pmf_parts,
    pmf_size,
    pmf_truncated,
    pmf_via_conjugate,
    solve_parts_recursion,
    tabulate,
)
from .sampler import (
    SamplerConfig,
    empirical_distribution,
    initial_column_distribution,
    kernel,
    kernel_row,
    sample_partition,
    sample_partitions,
)
from .sandpile import (
    ExperimentResult,
    Graph,
    erdos_renyi,
    p_sylow_partition,
    reduced_laplacian,
    run_experiment,
    sample_graph_record,
    smith_normal_form,
    sylow_valuations_mod_prime_power,
    tv_distance,
    two_sylow_partition,
)
from .rng import SplitMix64, substream

__version__ = "0.1.0"
