"""The public names of ``import multiport``, pinned.

The package namespace is the union of the ``__all__`` lists of the modules
below, plus ``__version__``.  The submodules themselves, which ``import
multiport`` also binds, are left out of the snapshot.
"""

import importlib
from types import ModuleType

import multiport

REEXPORTED = ("contexts", "decompose", "devices", "interferometer", "numerics", "observables", "states")

PUBLIC = [
    "AnalyzerUnitary",
    "BUILTIN_GRAPHS",
    "BsParams",
    "Context",
    "ContextGraph",
    "Element",
    "Factorization",
    "GATE_NAMES",
    "MzParams",
    "Netlist",
    "ObservableSpec",
    "PortDistribution",
    "Ray",
    "STATE_NAMES",
    "TFactor",
    "TParams",
    "TensorObservable",
    "ValidationReport",
    "__version__",
    "analyzer_unitary",
    "bell_state",
    "bridge_params",
    "builtin_graph",
    "commutator",
    "complete_to_unitary",
    "context_of",
    "decompose",
    "default_labels",
    "dyadic",
    "equal_up_to_global_phase",
    "greechie_dot",
    "identity_spec",
    "kron",
    "links_between",
    "load_context_graph",
    "load_factorization",
    "load_matrix",
    "load_netlist",
    "named_gate",
    "netlist_from_factorization",
    "omega_from_transmission",
    "parse_obs_spec",
    "predict_ports",
    "preparation_unitary",
    "qutrit2_singlet",
    "qutrit3_singlet",
    "random_unitary",
    "reconstruct",
    "render_schematic",
    "resolve_state",
    "rotated_observable",
    "rotation_plane",
    "save_context_graph",
    "save_factorization",
    "save_matrix",
    "save_netlist",
    "simulate",
    "state_operator",
    "t_bs",
    "t_bs_product",
    "t_matrix",
    "t_mz",
    "t_mz_product",
    "tensor_observable",
    "transfer_matrix",
    "transmission",
    "unitarity_deviation",
    "validate_context_graph",
    "verify_eigenbasis",
    "wrap_angle",
]


def _modules():
    return [importlib.import_module(f"multiport.{name}") for name in REEXPORTED]


def test_package_namespace_is_pinned():
    names = sorted(
        name
        for name, value in vars(multiport).items()
        if (not name.startswith("_") or name == "__version__") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC


def test_every_exported_name_exists():
    for module in _modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"


def test_no_name_is_exported_twice():
    owner: dict = {}
    for module in _modules():
        for name in module.__all__:
            assert name not in owner, f"{name} is exported by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__


def test_the_modules_declare_the_package_names():
    exported = sorted(name for module in _modules() for name in module.__all__)
    assert exported == [name for name in PUBLIC if name != "__version__"]
