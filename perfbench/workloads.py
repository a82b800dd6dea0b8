"""Seeded input generators for the four benchmark workloads.

Each generator takes the seed and returns a list of items: plain JSON-able
dicts that say what to run (CLI argv, or the inputs of one API call) and
carry everything the independent checker needs.  Nothing here imports
fockosc, so the parent process can regenerate the inputs for checking
without running program code.

Every item dict has an "id" (its index in the batch) and a "kind":

* "cli":      run `fockosc <argv>` in-process; "params" restates the
              spectrum or stencil request for the checker;
* "product":  normal-order x*y and the bracket x*y - lam*y*x;
* "casimir":  evaluate the Casimir value at label n;
* "stencil":  flatten an element to a stencil and apply it to monomials.

A rational travels as its canonical "num/den" string.

The cost of exact arithmetic follows coefficient size, so the batch
layout (sizes, operators, right-hand sides, words) is fixed and the seed
draws only values that leave sizes alone: the sign and orientation of
delta, q, B and element coefficients (x and 1/x, x and -x make numbers of
the same size) and the sign of p + 1/2, the parameter p enters through.  Two seeds give
different inputs with the same amount of work, so the spread between
seeds measures the machine, not the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import cycle

WORKLOADS = {
    "verify-all": {
        "why": "The headline user command in a fresh process: fd shift_arg and "
               "basis changes (heisenberg, transplant) dominate and every cold "
               "cost is paid on each run.",
        "excludes": "Nothing to draw: the grids are fixed in verify.py, so the "
                    "seed is ignored and each batch is one run.",
    },
    "spectra-flat": {
        "why": "Many Fraction operations on small coefficients (<= ~300 bits): "
               "the fd realization (shift_arg, basis change) dominates, so a "
               "Taylor shift or basis-table change shows here.",
        "excludes": "delta = 0 (usage error), scaled right-hand sides under fd "
                    "(exit 2 by design, no solver work), and fd above N = 32, "
                    "whose cubic cost would leave room for one batch per run.",
    },
    "spectra-deformed": {
        "why": "qdil spectra up to N = 64 with coefficients of thousands of "
               "bits: big-integer gcd in realize, solve and rendering "
               "dominates; shift_arg is never called and basis changes are "
               "the identity.",
        "excludes": "q in {0, 1, -1}: 0 and 1 are usage errors and -1 gives the "
                    "exit-1 degenerate report that the tests already cover.  q "
                    "is +-7/6 or +-6/7, so the known rendering crash hits every "
                    "N = 64, |s| = 2 item and no other.",
    },
    "ordering-stencils": {
        "why": "The only workload where fock normal ordering and stencil_of do "
               "most of the work; elsewhere those layers take under 20 ms.",
        "excludes": "Stencils of elements with lowering degree above 2 "
                    "(UnsupportedDegreeError by design) and q = -1, where "
                    "deformed integers vanish and the representation check "
                    "would not be faithful.",
    },
}

FLAT_N = (4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40)
FLAT_FD_TOP = 32    # fd items up to here; diff items at every size
FLAT_BOTH_OPS = 20  # fd items for both operators up to here, alternating above
DEFORMED_N = (4, 8, 12, 16, 20, 24, 28, 32, 64)

P_VALUES = (1, -2)      # p + 1/2 = +-3/2
FLAT_PAIRS = ((3, 2),)   # delta and bracket parameters
B_PAIRS = ((2, 1),)
Q_PAIRS = ((7, 6),)      # deformation parameters
COEFF_PAIRS = ((5, 4),)  # coefficients of random algebra elements


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def draw(rng: random.Random, pairs: tuple[tuple[int, int], ...]) -> Fraction:
    """+-r/s or +-s/r for a pair (r, s) from `pairs`."""
    r, s = rng.choice(pairs)
    if rng.random() < 0.5:
        r, s = s, r
    return Fraction(rng.choice([1, -1]) * r, s)


def spectrum_argv(params: dict) -> list[str]:
    """The `fockosc spectrum` argv for a parameter dict (values as strings)."""
    argv = ["spectrum", "--op", params["op"], "--realization", params["realization"],
            f"--p={params['p']}", f"--N={params['N']}"]
    if params["op"] == "hg":
        argv.append(f"--B={params['B']}")
    if params["realization"] == "fd":
        argv.append(f"--delta={params['delta']}")
    if params["realization"] == "qdil":
        argv.append(f"--q={params['q']}")
    if params["rhs"] == "scaled":
        argv += ["--rhs", "scaled", f"--s={params['s']}"]
    return argv


def stencil_argv(params: dict) -> list[str]:
    argv = ["stencil", "--op", params["op"], "--realization", params["realization"],
            f"--p={params['p']}"]
    if params["op"] == "hg":
        argv.append(f"--B={params['B']}")
    if params["realization"] == "fd":
        argv.append(f"--delta={params['delta']}")
    else:
        argv.append(f"--q={params['q']}")
    return argv


def _operator_params(rng, command: str, op: str, realization: str) -> dict:
    return {
        "command": command,
        "op": op,
        "realization": realization,
        "p": str(rng.choice(P_VALUES)),
        "B": rat_str(draw(rng, B_PAIRS)) if op == "hg" else "0",
        "delta": rat_str(draw(rng, FLAT_PAIRS)) if realization == "fd" else "1",
        "q": rat_str(draw(rng, Q_PAIRS)) if realization == "qdil" else "1",
    }


def _spectrum_item(rng, realization: str, op: str, n: int, s: int | None = None) -> dict:
    params = _operator_params(rng, "spectrum", op, realization) | {
        "N": n, "rhs": "plain" if s is None else "scaled", "s": s}
    return {"kind": "cli", "argv": spectrum_argv(params), "params": params}


def _flat(rng: random.Random) -> list[dict]:
    """fd items for both operators up to N = 20 and alternating ones up to
    32, so fd is most of the items and most of the time; one diff item per
    size, cycling through plain and the four scaled right-hand sides."""
    items = []
    fd_ops = cycle(["hf", "hg"])
    diff_ops = cycle(["hf", "hg"])
    diff_rhs = cycle([None, -2, -1, 1, 2])
    for n in FLAT_N:
        if n <= FLAT_BOTH_OPS:
            ops = ["hf", "hg"]
        elif n <= FLAT_FD_TOP:
            ops = [next(fd_ops)]
        else:
            ops = []
        for op in ops:
            items.append(_spectrum_item(rng, "fd", op, n))
        items.append(_spectrum_item(rng, "diff", next(diff_ops), n, next(diff_rhs)))
    return items


def _deformed(rng: random.Random) -> list[dict]:
    """Per N: the plain problem and one scaled item in each dilation
    direction, one of them with |s| = 2, alternating which; at N = 64 the
    scaled items are s = -2 and s = 2."""
    items = []
    ops = cycle(["hf", "hg"])
    scaled = cycle([(-1, 2), (-2, 1)])
    for n in DEFORMED_N:
        variants = (-2, 2) if n == DEFORMED_N[-1] else next(scaled)
        for s in (None, *variants):
            items.append(_spectrum_item(rng, "qdil", next(ops), n, s))
    return items


def _element(rng: random.Random, max_b: int, max_a: int) -> list:
    """Every word b^k a^m with k <= max_b, m <= max_a, seeded coefficients."""
    return [[k, m, rat_str(draw(rng, COEFF_PAIRS))]
            for k in range(max_b + 1) for m in range(max_a + 1)]


def _ordering(rng: random.Random) -> list[dict]:
    """x*y and x*y - lam*y*x with x of degrees (1, 6) and y of degrees
    (6, 1), so a^6 passes b^6 (half undeformed, half deformed); Casimir
    values at labels 20..400; CLI stencils of hf/hg; and stencils of full
    elements of degrees (8, 2) applied to monomials up to degree 24."""
    items = []
    for i in range(16):
        q = Fraction(1) if i % 2 == 0 else draw(rng, Q_PAIRS)
        items.append({"kind": "product", "q": rat_str(q),
                      "x": _element(rng, 1, 6), "y": _element(rng, 6, 1),
                      "lam": rat_str(draw(rng, FLAT_PAIRS))})
    for twice_n in rng.sample(range(40, 801), 8):
        items.append({"kind": "casimir", "n": rat_str(Fraction(twice_n, 2))})
    seen = set()
    for i in range(12):
        while (params := _operator_params(rng, "stencil", ("hf", "hg")[i // 2 % 2],
                                          ("fd", "qdil")[i % 2])) and str(params) in seen:
            pass  # the parameter pools are small: redraw until the request is new
        seen.add(str(params))
        items.append({"kind": "cli", "argv": stencil_argv(params), "params": params})
    for i in range(12):
        realization = ("fd", "qdil")[i % 2]
        param = draw(rng, FLAT_PAIRS if realization == "fd" else Q_PAIRS)
        items.append({"kind": "stencil", "realization": realization, "param": rat_str(param),
                      "q": "1" if realization == "fd" else rat_str(param),
                      "h": _element(rng, 8, 2), "degrees": list(range(0, 25, 4))})
    return items


GENERATORS = {
    "verify-all": lambda rng: [{"kind": "cli", "argv": ["verify", "all"], "params": {"command": "verify"}}],
    "spectra-flat": _flat,
    "spectra-deformed": _deformed,
    "ordering-stencils": _ordering,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The batch for `workload` under `seed`; the same seed gives the same batch."""
    rng = random.Random(f"{workload}/{seed}")
    items = GENERATORS[workload](rng)
    for index, item in enumerate(items):
        item["id"] = index
    return items
