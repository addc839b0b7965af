"""Device-independent certification of two-outcome qubit instruments.

The package turns Bell-test statistics into a lower bound on the fidelity
between an unknown measurement-and-output device and a target instrument
that interpolates between a projective measurement and the identity:

* ``matrixcore``: PSD square roots and fidelities of states.
* ``quantum``: states, observables, instruments, extraction channels.
* ``bell``: the Bell expressions, their operators and local bounds.
* ``pipeline``: the scalar layer, with angle checks, the family record
  ``BellKind``, cutoff records and the fidelity pipeline, in the standard
  library alone.
* ``certify``: self-testing cutoffs.
* ``experiment``: exact noisy simulation and soundness oracle.
* ``cli``: the ``diqc`` command.

The names below resolve on first use, so ``import diqc`` loads no numpy;
each is the object of the same name in its module.
"""

import importlib

_EXPORTS = {
    "matrixcore": "block_fidelity psd_sqrt uhlmann_fidelity",
    "pipeline": "BETA_STAR BellKind ChannelFamilyError DomainError FidelityCertificate "
                "LinearBoundCertificate NonQuantumValueError certify_instrument "
                "combine_branches input_fidelity_bound instrument_fidelity_bound "
                "output_fidelity_bound",
    "quantum": "DegenerateInstrumentError DephasingChannel KrausInstrument RegisterState "
               "apply_instrument apply_one_sided dephasing_alice dephasing_bob "
               "ideal_settings instrument_choi partial_entangled_state partial_trace "
               "phi_plus reference_instrument",
    "bell": "CorrelatorTable brute_force_local_bound chsh_value "
            "correlators_from_state new_bell_operator new_bell_value relabel_branch1 "
            "tilted_bell_value tilted_operator",
    "certify": "find_cutoff operator_margin verify_cutoff",
    "experiment": "NoiseModel RunStatistics cheating_run end_to_end noisy_instrument "
                  "noisy_source oracle_choi_fidelity simulate_run",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
