"""Super-stable matchings with ties, and deletion problems around them.

Each public name is listed once, in the `__all__` of the module that
defines it, and the package's `__all__` joins those lists.  Modules load
on first access (PEP 562): `superstab.NAME` imports the modules in
`_MODULES` order until one lists NAME, and `__all__` and `dir()` import
them all.  So `import superstab.cli`, or any one submodule, compiles only
what that module uses.
"""

__version__ = "0.1.0"

_MODULES = ("model", "superstable", "oracle", "hardness")


def _module(name: str):
    # The import statement's own hook, not `importlib`: it loads no module
    # of its own, and `-X importtime` lists what it imports.
    return __import__(name, globals(), None, (), 1)


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        value = [n for m in _MODULES for n in _module(m).__all__] + ["__version__"]
    else:
        owner = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    names = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *names})
