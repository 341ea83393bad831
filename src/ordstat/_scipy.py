"""``scipy.integrate`` as a module attribute that loads at first access.

No ``ordstat`` code reads it: every integral runs on ``rules``, and numpy
is the only dependency.  ``exact_exp``, ``generic_joint``, ``kernels``,
``apps``, ``distributions`` and ``verify`` keep an ``integrate`` attribute
only because perfbench's tracer replaces it in each of them to count
quadratures; it goes when the tracer stops doing so.
"""

import sys


def lazy_integrate(name):
    """A module ``__getattr__`` (PEP 562) for the module called ``name``.

    Its ``integrate`` attribute is ``scipy.integrate``, imported at the
    first access and then kept in the module's namespace, so later
    accesses find it there without running an import.
    """
    def __getattr__(attr):
        if attr != "integrate":
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        from scipy import integrate
        setattr(sys.modules[name], "integrate", integrate)
        return integrate

    return __getattr__
