"""multiport: compile unitaries to beam-splitter netlists, build analyzer
unitaries for product observables, predict output-port statistics, and
draw measurement-context diagrams."""

from .contexts import (
    BUILTIN_GRAPHS,
    Context,
    ContextGraph,
    Ray,
    ValidationReport,
    builtin_graph,
    context_of,
    greechie_dot,
    links_between,
    load_context_graph,
    save_context_graph,
    validate_context_graph,
)
from .decompose import (
    Factorization,
    TFactor,
    decompose,
    load_factorization,
    reconstruct,
    save_factorization,
)
from .devices import (
    GATE_NAMES,
    BsParams,
    MzParams,
    TParams,
    bridge_params,
    named_gate,
    omega_from_transmission,
    t_bs,
    t_bs_product,
    t_matrix,
    t_mz,
    t_mz_product,
    transmission,
    wrap_angle,
)
from .interferometer import (
    Element,
    Netlist,
    load_netlist,
    netlist_from_factorization,
    render_schematic,
    save_netlist,
    simulate,
    transfer_matrix,
)
from .numerics import (
    commutator,
    complete_to_unitary,
    dyadic,
    equal_up_to_global_phase,
    kron,
    load_matrix,
    random_unitary,
    save_matrix,
    unitarity_deviation,
)
from .observables import (
    AnalyzerUnitary,
    ObservableSpec,
    PortDistribution,
    TensorObservable,
    analyzer_unitary,
    default_labels,
    identity_spec,
    parse_obs_spec,
    predict_ports,
    rotated_observable,
    rotation_plane,
    tensor_observable,
    verify_eigenbasis,
)
from .states import (
    STATE_NAMES,
    bell_state,
    preparation_unitary,
    qutrit2_singlet,
    qutrit3_singlet,
    resolve_state,
    state_operator,
)

__version__ = "0.1.0"
