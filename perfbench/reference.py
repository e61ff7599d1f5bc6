"""Reference answers for zhom-bigint queries, built from sympy.factorint.

Independent of homposet: elements are parsed from their text here, and
every answer is derived from the factorizations of the moduli.
"""
from __future__ import annotations

from functools import lru_cache

from sympy import factorint


@lru_cache(maxsize=4096)
def _factors(n: int) -> dict:
    return factorint(n, use_pm1=False)  # p-1 only slows these inputs down


def _parse(text: str):
    """("mod", n) or ("zk", cofinite, members)."""
    if text.startswith("n:"):
        return ("mod", int(text[2:]))
    kind, _, items = text[2:].partition("=")
    return ("zk", kind == "coP", frozenset(int(t) for t in items.split(",") if t))


def _contains(zk, p: int) -> bool:
    _, cofinite, members = zk
    return (p not in members) if cofinite else (p in members)


def _format_primes(cofinite: bool, members) -> str:
    return f"0:{'coP' if cofinite else 'P'}={','.join(map(str, sorted(members)))}"


def _product(exps: dict) -> int:
    out = 1
    for p, e in exps.items():
        out *= p ** e
    return out


def answer(verb: str, x_text: str, y_text) -> str:
    x = _parse(x_text)
    if verb == "exponent_vector":
        body = " ".join(f"{p}:{e}" for p, e in sorted(_factors(x[1]).items()))
        return f"0;{body};0"
    y = _parse(y_text)
    if x[0] == "mod" and y[0] == "mod":
        fx, fy = _factors(x[1]), _factors(y[1])
        if verb == "z_leq":
            return "true" if all(fx.get(p, 0) >= e for p, e in fy.items()) else "false"
        if verb == "z_meet":
            return f"n:{_product({p: max(fx.get(p, 0), fy.get(p, 0)) for p in fx.keys() | fy.keys()})}"
        g = _product({p: min(e, fy[p]) for p, e in fx.items() if p in fy})
        return f"n:{g}" if g >= 2 else "TOP"
    if verb == "z_leq":
        if x[0] == "mod":
            return "false"  # nZ never lies inside the zero kernel
        return "true" if all(_contains(x, p) for p in _factors(y[1])) else "false"
    zk, md = (x, y) if x[0] == "zk" else (y, x)
    fn = _factors(md[1])
    _, cofinite, members = zk
    if verb == "z_meet":  # union of zk's primes with the prime divisors of n
        if cofinite:
            return _format_primes(True, members - fn.keys())
        return _format_primes(False, members | fn.keys())
    k = _product({p: e for p, e in fn.items() if _contains(zk, p)})
    return f"n:{k}" if k >= 2 else "TOP"
