"""DICE reproduction: detecting and identifying faulty IoT devices in smart
homes with context extraction (Choi, DSN 2018 / POSTECH thesis 2017).

Quick tour
----------
>>> from repro.datasets import load_dataset
>>> from repro.core import DiceDetector
>>> data = load_dataset("houseA", seed=7)
>>> training = data.trace.slice(0, 300 * 3600.0)
>>> detector = DiceDetector(data.trace.registry).fit(training)

Subpackages
-----------
``repro.model``      devices, events, array-backed traces
``repro.core``       the DICE algorithm (the paper's contribution), its
                     detector backends and the Table 2.1 comparators
``repro.smarthome``  smart-home simulator (floor plan, physics, residents)
``repro.datasets``   the ten evaluation datasets of Table 4.1
``repro.faults``     fault injection (Ch. IV) and security attacks (Ch. VI)
``repro.eval``       metrics and the experiments behind every table/figure
``repro.streaming``  online, event-at-a-time DICE runtime
"""

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: dict):
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package whose
    names, listed per submodule in *exports*, are imported from that
    submodule on first access (PEP 562), so importing one submodule does
    not import its siblings."""
    import importlib

    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(module_of))

    return list(module_of), __getattr__, __dir__
