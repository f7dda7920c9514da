"""onticsim: pure-state trajectory simulation for operational circuits.

Layers, bottom up: dense linear algebra (`linalg`), quantum and classical
operational primitives (`quantum`, `classical`), circuits with classical
conditioning (`circuit`, `dsl`), foliation compilation and stochastic
trajectory sampling (`foliation`, `engine`), measurement and memory
benchmarks (`measurement`), and tensor-factorization analysis
(`individuation`). The `cli` module exposes the batch front end.
"""

from .linalg import (
    SystemShape,
    TAU_NORM,
    TAU_NUM,
    TAU_PURE,
    TAU_RANK,
    TAU_SIC,
    bloch_coordinates,
    is_contraction,
    partial_trace,
    schmidt_decompose,
    tensor_product,
)
from .quantum import (
    CpMap,
    Dilation,
    KrausSet,
    apply_atomic,
    born_probability,
    complete_test,
    dilate,
    epistemic_of,
    holevo_limit,
)
from .classical import apply_markov, dephase, embed_classical
from .circuit import (
    Circuit,
    CircuitError,
    Condition,
    Event,
    System,
    TestNode,
    WireSpec,
    compose_parallel,
    compose_sequential,
    connected_components,
    parse_circuit,
    serialize_circuit,
    validate_dag,
)
from .foliation import Foliation, HistoryOperator, compile_history, compile_slice, foliate
from .engine import (
    EngineError,
    Program,
    ProgramStep,
    Trajectory,
    enumerate_histories,
    load_run_spec,
    run_trajectories,
    run_trajectory,
    trajectory_rng,
)
from .measurement import (
    Povm,
    SicPovm,
    TomographyResult,
    attention_repetition,
    build_sic,
    histogram_dict,
    is_infocomplete,
    mean_recall_fidelity,
    random_vn_qubit,
    recall_fidelity_bound,
    simulate_measurement,
    store_recall_cycle,
    tomography_linear,
    trace_distance,
)
from .individuation import (
    MindPartition,
    classify_timeline,
    count_entanglement_patterns,
    finest_factorization,
    purity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
