"""The scipy.special functions subpot uses, imported on first use.

Only an absolutely continuous tail needs a special function (Gamma, the
regularised incomplete Gamma, log-Gamma, log-Beta, Kummer's 1F1); atoms and
killing need none.  Importing ``scipy.special`` costs more than the rest of
``import subpot`` together, so it waits for the first attribute read of
this module (PEP 562).  That read imports it, caches the function in this
module's globals, so later reads are plain lookups, and returns it: call
sites read ``_special.gammainc(...)`` and get scipy's own ufunc.
"""

_NAMES = frozenset({"gamma", "gammainc", "gammaln", "betaln", "hyp1f1"})


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    func = globals()[name] = getattr(scipy.special, name)
    return func
