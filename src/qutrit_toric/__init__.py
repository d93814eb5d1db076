"""Z3 toric code stabilizer simulator and analysis toolkit."""

from .weyl import WeylOp, CliffordGate, GateKind, compose, symplectic_product
from .tableau import StabilizerTableau, MeasurementOutcome
from .circuit import Circuit, NoiseChannel, ShotBatch, run_shots
from .lattice import TorusLattice, build_lattice, ground_state_circuit
from .defects import DefectSpec, CCRibbon, pf_defect_circuit, cc_defect_circuit, fuse_cc_pair

__all__ = [
    "WeylOp", "CliffordGate", "GateKind", "compose", "symplectic_product",
    "StabilizerTableau", "MeasurementOutcome",
    "Circuit", "NoiseChannel", "ShotBatch", "run_shots",
    "TorusLattice", "build_lattice", "ground_state_circuit",
    "DefectSpec", "CCRibbon", "pf_defect_circuit",
    "cc_defect_circuit", "fuse_cc_pair",
]

__version__ = "0.1.0"
