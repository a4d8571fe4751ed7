"""bergelab: Berge-cycle workbench for uniform hypergraphs.

Constructive consecutive-length finders backed by verified certificates,
a brute-force spectrum oracle, instance generators, and desk-scale
extremal search.
"""

from .certify import (
    BergeCycleWitness,
    BergePathWitness,
    Extension,
    VerifyResult,
    extend,
    verify_cycle,
    verify_path,
)
from .finder import (
    ConsecutiveRun,
    DenseCore,
    LevelEdgeBound,
    MarkedSlice,
    TightPath,
    cycles_from_down_edges,
    cycles_or_level_bound,
    find_general_3,
    find_general_r,
    find_linear_r,
    min_codegree_cycles,
    skeleton_sweep,
    split_by_codegree,
    tight_path_cycles,
)
from .generators import GeneratorSpec, generate
from .hypergraph import Hypergraph, parse, serialize
from .lengthcontrol import LevelGrowthReport, length_controlled_search
from .oracle import CycleSpectrum, oracle_spectrum
from .pathtools import (
    ColoredGraph,
    EvenCycleRun,
    LinearPathWitness,
    consecutive_even_cycles,
    linear_xy_path,
    special_linear_path,
    special_path,
    tripartite_ladder,
)
from .skeleton import LevelEdgeClasses, Skeleton, build_skeleton, classify_levels
from .turan import TuranRecord, turan_exhaustive

__version__ = "0.1.0"
