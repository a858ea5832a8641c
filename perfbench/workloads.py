"""Workload inputs for the orbitweil benchmark, generated from a seed.

Each workload is a list of operations; an operation names a runner, the
JSON config it reads and the files it writes.  Seed 0 gives exactly the
reference configs.  Any other seed conjugates every map, start point and
divisor by a signed coordinate permutation tau (f -> tau f tau^-1,
x -> tau x, D -> D o tau^-1) and draws the finite places of S from a
short list.  The conjugation leaves every height, every factoring input
and every coordinate size unchanged, so all seeds of a workload cost the
same and runs on different seeds can be compared directly.

Nothing here imports orbitweil: the output checks reuse these configs.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 0

SQUARING_MAP = [{"2,0": 1}, {"0,2": 1}]
FIBONACCI_MAP = [{"1,1,0": 1}, {"1,0,1": 1}, {"0,0,2": 1}]


def _keys(exps):
    return ",".join(str(e) for e in exps)


def _exps(key):
    return tuple(int(e) for e in key.split(","))


def _scale(coeff, k):
    if isinstance(coeff, dict):
        return {"a": coeff["a"] * k, "b": coeff["b"] * k}
    return coeff * k


def _pull_form(form, perm, signs):
    """F o tau^-1 for tau(x)_i = signs[i] * x[perm[i]]."""
    out = {}
    for key, coeff in form.items():
        e = _exps(key)
        new = tuple(e[perm[i]] for i in range(len(e)))
        k = 1
        for i, s in enumerate(signs):
            k *= s ** new[i]
        out[_keys(new)] = _scale(coeff, k)
    return out


def conjugate(tau, forms=None, seed=None, divisor=None):
    """Apply tau to a map (list of forms), a start point and a divisor form."""
    perm, signs = tau
    out = {}
    if forms is not None:
        pulled = [_pull_form(f, perm, signs) for f in forms]
        out["forms"] = [
            {k: _scale(c, signs[i]) for k, c in pulled[perm[i]].items()}
            for i in range(len(forms))
        ]
    if seed is not None:
        out["seed"] = [signs[i] * seed[perm[i]] for i in range(len(seed))]
    if divisor is not None:
        out["divisor"] = _pull_form(divisor, perm, signs)
    return out


def signed_permutations(nvars):
    """Signed permutations of the coordinates, one per projective class."""
    signs = [(1,) + rest for rest in itertools.product((1, -1), repeat=nvars - 1)]
    return [(perm, s) for perm in itertools.permutations(range(nvars)) for s in signs]


def _choose(rng, options, default):
    return default if rng is None else rng.choice(options)


def _str_coeffs(form):
    """Config coefficients as strings ("-3"), quadratic ones as {"a", "b"}."""
    out = {}
    for key, c in form.items():
        if isinstance(c, dict):
            out[key] = {"a": str(c["a"]), "b": str(c["b"])}
        else:
            out[key] = str(c)
    return out


def _ratio_audit(rng):
    tau = _choose(rng, signed_permutations(2), ((0, 1), (1, 1)))
    q = _choose(rng, [3, 5, 7, 11, 13], 3)
    c = conjugate(tau, SQUARING_MAP, [2, 1], {"1,0": 1, "0,1": -3})
    cfg = {
        "map": {"forms": [_str_coeffs(f) for f in c["forms"]]},
        "seed": [str(v) for v in c["seed"]],
        "divisor": {"field": "Q", "form": _str_coeffs(c["divisor"]), "weight": 1},
        "places": ["inf", q],
        "twist": 1,
        "depth": 9,
    }
    return [{"name": "ratio", "kind": "ratio", "config": cfg, "outputs": ["csv", "svg"]}]


def _gap_sample(rng):
    tau = _choose(rng, signed_permutations(2), ((0, 1), (1, 1)))
    q = _choose(rng, [3, 5, 7], 3)
    c = conjugate(tau, divisor={"2,1": 1, "1,2": -1})
    cfg = {
        "divisor": {"field": "Q", "form": _str_coeffs(c["divisor"]), "weight": 1},
        "places": ["inf", 2, q],
        "twist": 1,
        "params": {"eps_prime": "1"},
        "sample": {"height_bound": 50, "count": "all"},
    }
    return [{"name": "gap", "kind": "gap", "config": cfg, "outputs": ["csv"]}]


def _growth(rng):
    tau3 = _choose(rng, signed_permutations(3), ((0, 1, 2), (1, 1, 1)))
    a = conjugate(tau3, FIBONACCI_MAP, [2, 3, 1])
    alpha_cfg = {
        "map": {"forms": [_str_coeffs(f) for f in a["forms"]]},
        "seed": [str(v) for v in a["seed"]],
        "depth": 25,
    }
    tau2 = _choose(rng, signed_permutations(2), ((0, 1), (1, 1)))
    t = conjugate(tau2, SQUARING_MAP, [3, 2], {"1,0": 1, "0,1": -3})
    thm14_cfg = {
        "map": {"forms": [_str_coeffs(f) for f in t["forms"]]},
        "seed": [str(v) for v in t["seed"]],
        "divisor": {"field": "Q", "form": _str_coeffs(t["divisor"]), "weight": 1},
        "places": ["inf", 3],
        "depth": 19,
        "params": {"e": "1", "eps": "1/4", "eps0": "1"},
    }
    return [
        {"name": "alpha", "kind": "alpha", "config": alpha_cfg, "outputs": []},
        {"name": "thm14", "kind": "thm14", "config": thm14_cfg, "outputs": []},
    ]


def _gap_quadratic(rng):
    tau = _choose(rng, signed_permutations(2), ((0, 1), (1, 1)))
    # primes that split in Q(sqrt 2), i.e. p = +-1 mod 8
    p = _choose(rng, [7, 17, 23, 31], 7)
    c = conjugate(tau, divisor={"1,0": {"a": 1, "b": 0}, "0,1": {"a": 0, "b": -1}})
    cfg = {
        "divisor": {"field": {"d": 2}, "form": _str_coeffs(c["divisor"]), "weight": 1},
        "places": ["inf", p],
        "twist": 1,
        "params": {"eps_prime": "1"},
        "sample": {"height_bound": 40, "count": "all"},
    }
    return [{"name": "gap", "kind": "gap", "config": cfg, "outputs": ["csv"]}]


WORKLOADS = {
    "ratio-audit": _ratio_audit,
    "gap-sample": _gap_sample,
    "growth": _growth,
    "gap-quadratic": _gap_quadratic,
}


def operations(workload, seed):
    """The operations of one workload for one seed (seed 0: reference configs)."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng)
