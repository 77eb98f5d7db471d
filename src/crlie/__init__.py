"""crlie: exact verification of CR, Kahler-CR and pseudo-Poisson structures
on finite-dimensional Lie algebras given by rational structure constants.

`import crlie` loads no submodule.  A public name is imported from its home
module on first access (PEP 562) and then kept here, so `crlie.X is
crlie.<module>.X`; `crlie.catalog` and the other home modules resolve to the
submodule.  A program that reads only `crlie.catalog` compiles `__init__`
and `catalog` alone.
"""

from importlib import import_module

_EXPORTS = {
    "linalg": ("Matrix", "Subspace", "Vector", "kernel", "rat", "solve"),
    "lie": ("LieAlgebra", "StructureError", "sl2", "so3"),
    "multivector": ("Bivector", "Trivector", "schouten"),
    "crkahler": ("CRData", "KahlerCRData", "LeftSymmetricProduct", "build_extension",
                 "center_U", "check_cr", "check_kahler", "check_left_symmetric",
                 "ideal_complement_complex", "induced_bracket", "left_symmetric_product",
                 "omega_radical", "semisimple_exactness"),
    "poisson": ("PseudoPoissonData", "check_j_invariance", "check_pseudo_poisson",
                "coboundary_pi"),
    "report": ("CheckResult", "Report"),
    "inputdoc": ("InputError", "Payloads", "dump_document", "parse_document", "parse_text"),
    "checks": ("run_checks",),
    "catalog": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "catalog"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
