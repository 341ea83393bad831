"""``scipy.integrate`` as a module attribute that loads at first access.

``import ordstat`` loads numpy and the standard library only; scipy loads
where a command first needs it.  ``exact_exp``, ``generic_joint``,
``kernels``, ``apps``, ``distributions`` and ``verify`` still have an
``integrate`` attribute, because perfbench's tracer replaces it in each of
them to count quadratures.
"""

import sys


def lazy_integrate(name):
    """A module ``__getattr__`` (PEP 562) for the module called ``name``.

    Its ``integrate`` attribute is ``scipy.integrate``, imported at the
    first access and then kept in the module's namespace, so later
    accesses find it there without running an import.  Code that
    integrates looks it up on the module, which also finds a replacement
    set there.
    """
    def __getattr__(attr):
        if attr != "integrate":
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        from scipy import integrate
        setattr(sys.modules[name], "integrate", integrate)
        return integrate

    return __getattr__
