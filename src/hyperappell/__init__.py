"""Exact hypercomplex Appell polynomial sequences over Cl(0,n).

The package builds Appell sequences of paravector-valued polynomials from
nilpotent creation matrices, transfers them to classical families
(Bernoulli, Euler, Frobenius-Euler, Hermite), and certifies monogenicity
and the derivative ladder symbolically, all in rational arithmetic.

Importing the package runs no submodule: each name in `__all__` is looked
up in its module on first use (PEP 562), so ``from hyperappell import X``
reaches every name while a command runs only what it calls.  The layers
`clifford`, `polynomials`, `appell` and `operators` are registered lazily:
each is in ``sys.modules``, and an attribute of the package, from here on,
and its source is compiled and run on its first attribute access.  The
reference route lives in `reference`, which no command imports.

`seqfile` (the file layout of `gen` and `--input`), `evaluate` (values at
a point, for `eval` and `exp`) and the `cli_*` handler modules import as
usual, where they are used: `cli.main` imports the handler of the one
subcommand it runs.  So a command compiles no code for another concern,
and no module it runs passes 400 lines, since the peak memory of
compiling a module grows with its length.

No command runs `clifford` or `polynomials`; they serve the library, the
reference route and `appell.vector_power_expansion`, kept for bench/tracer.py.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Registered rather than imported: bench/tracer.py looks every layer up in sys.modules, and
# `from . import appell` binds the module without running it.
for _name in ("clifford", "polynomials", "appell", "operators"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "AppellPoly": "appell",
    "AppellSequence": "appell",
    "CoeffSequence": "appell",
    "FAMILIES": "appell",
    "build_family": "appell",
    "build_phi": "appell",
    "coefficient_sequence": "appell",
    "family_members": "appell",
    "family_terms": "appell",
    "vector_power_expansion": "appell",
    "eval_at": "evaluate",
    "eval_poly": "evaluate",
    "exp_truncated": "evaluate",
    "restrict_poly": "evaluate",
    "restrict_real": "evaluate",
    "Multivector": "clifford",
    "Paravector": "clifford",
    "blade_product": "clifford",
    "DegreeCheck": "operators",
    "VerifyReport": "operators",
    "certify": "operators",
    "check_intertwining": "operators",
    "CliffordPoly": "polynomials",
    "parse_rational": "rationals",
    "read_rational": "rationals",
    "TriMatrix": "reference",
    "appell_matrix": "reference",
    "check_appell": "reference",
    "check_monogenic": "reference",
    "check_xi_derivation": "reference",
    "closed_form_coefficient": "reference",
    "cr": "reference",
    "cr_bar": "reference",
    "creation_matrix": "reference",
    "derivation_matrix": "reference",
    "dirac": "reference",
    "expand_multivariate": "reference",
    "expand_sequence": "reference",
    "nilpotent_exp": "reference",
    "partial_x0": "reference",
    "pascal_matrix": "reference",
    "transfer_matrix": "reference",
    "tri_inverse": "reference",
    "vector_power": "reference",
    "TRANSFER_FAMILIES": "trimatrix",
    "appell_rows": "trimatrix",
    "egf_reciprocal": "trimatrix",
    "transfer_column": "trimatrix",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
