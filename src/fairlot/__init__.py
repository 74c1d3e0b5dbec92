"""fairlot: exact fair random assignment.

Computes simultaneous-eating fractional allocations over exact rationals
and implements them as explicit lotteries over deterministic allocations
that are envy-free up to one item, together with verifiers for the
fairness and efficiency notions involved and brute-force/LP reference
oracles at desk scale.

``import fairlot`` loads no submodule: a public name is imported from its
module the first time it is looked up (PEP 562), so a command line pays
only for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("birkhoff", "eps", "fairness", "fileio", "model", "oracle", "ps",
               "pslottery", "simplex")

# Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "birkhoff": "birkhoff_decompose",
        "eps": "eps_outcome globally_unwanted",
        "fairness": "Report check_ef check_ef1 check_efk check_po_bruteforce check_rb "
                    "check_sd_ef check_sd_ef1 check_sd_efficient check_strong_ef1 pareto_front",
        "model": "BudgetExceeded DeterministicAllocation EatingTrace Instance Lottery "
                 "OrdinalProfile RandomAllocation TraceSegment expected_allocation "
                 "format_rational ordinal_from_utilities rational",
        "oracle": "InfeasibilityCertificate enumerate_allocations implementable_by "
                  "sd_improvement_exists",
        "ps": "ps_outcome",
        "pslottery": "PaddedInstance Plan implement pad_with_dummies plan project "
                     "ps_lottery re_eat reduce_support support_bound",
    }.items()
    for name in names.split()
}

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
