"""Super-stable matchings with ties, and deletion problems around them.

Each public name is listed once, in the `__all__` of the module that
defines it, and the package's `__all__` joins those lists.  Modules load
on first access (PEP 562): `superstab.NAME` imports the modules in
`_MODULES` order until one lists NAME, and `__all__` and `dir()` import
them all.  So `import superstab.cli`, or any one submodule, compiles only
what that module uses.

`_lazy` builds that `__getattr__` for every module of the package: each
module keeps the code that no hot command runs in a private sibling, and
reads those names from it on first access.  A module's `__all__` already
says which of its names live there, so the only names spelled out are
those that no `__all__` of the module lists.
"""

__version__ = "0.1.0"

_MODULES = ("model", "superstable", "oracle", "hardness")


def _module(name: str):
    # The import statement's own hook, not `importlib`: it loads no module
    # of its own, and `-X importtime` lists what it imports.
    return __import__(name, globals(), None, (), 1)


def _lazy(namespace: dict, owner=None, listed: str | None = None) -> object:
    """A PEP 562 `__getattr__` for the module whose globals are `namespace`:
    it reads NAME from the sibling module that `owner(NAME)` names, or else
    from `listed` when the module's `__all__` lists NAME (a name the module
    defines never reaches it), keeps it in `namespace`, so that the next
    read is a plain one, and returns it; AttributeError when neither gives
    a module."""

    def __getattr__(name: str) -> object:
        module = owner and owner(name)
        if module is None and name in namespace.get("__all__", ()):
            module = listed
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_module(module), name)
        return value

    return __getattr__


def _owner(name: str) -> str | None:
    """The first of `_MODULES` whose `__all__` lists `name`, or None."""
    return next((m for m in _MODULES if name in _module(m).__all__), None)


_public_name = _lazy(globals(), _owner)


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        names = [n for m in _MODULES for n in _module(m).__all__]
        value = globals()[name] = names + ["__version__"]
        return value
    return _public_name(name)


def __dir__() -> list[str]:
    names = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *names})
