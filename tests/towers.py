"""Left-normed towers, the form the paper writes its relations in, for the tests."""

from liepres.freelie import LiePoly, bracket

Tower = tuple  # left-normed nesting [x_{t0}, [x_{t1}, [... x_{tk}]]], 0-based indices


def tower_to_poly(t: Tower) -> LiePoly:
    """Left-normed tower [x_{t0}, [x_{t1}, [... x_{tk}]]] as a LiePoly (0-based indices)."""
    if len(t) == 0:
        raise ValueError("empty tower")
    p = LiePoly.generator(t[-1])
    for a in reversed(t[:-1]):
        p = bracket(LiePoly.generator(a), p)
    return p
