"""Stored PLFunctions built from max-min forms, for the two-generator tests.

The library's norm and cube sup read a max-min form directly; only the
C(K) sections need stored pieces.  The algebra of stored functions
(pl_equal, pl_pointwise_max, pl_lincomb, JSON) is tested here on forms
turned into stored functions over two generators, the only fans there are.
"""

from fblab import plfan


def stored_from_form(m, generators, exact=False):
    """The form m as a PLFunction on the fan of its break hyperplanes.

    The piece of each sector is the functional that attains the form at the
    sector's midpoint p + q; adjacent pieces agree on shared rays by
    continuity.
    """
    generators = tuple(generators)
    breaks, _, _, _ = plfan.pl_parts(m, generators, exact)
    if exact:
        m = plfan._exact_form(m)
    fan = plfan.arrangement_fan(breaks, generators, exact=exact)
    pieces = []
    for p, q in fan.cells:
        point = dict(zip(generators, (a + b for a, b in zip(p, q))))
        tops = [min(group, key=lambda f: f.evaluate(point)) for group in m.groups]
        pieces.append(max(tops, key=lambda f: f.evaluate(point)))
    return plfan.PLFunction(fan, tuple(pieces))
