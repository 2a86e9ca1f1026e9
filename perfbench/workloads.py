"""Seeded request generation for the three perfbench workloads.

Every workload is a fixed multiset of CLI requests, one pass.  The seed
chooses the order of each pass and the free input values (the classify
base-change matrices and which prime each classify type goes with, and
the selftest seed); it never changes how many requests of each kind a
pass holds, so medians stay comparable from seed to seed.

The ``classify`` inputs are built here from the definitions of the type-r
models, without importing the program: the banded block of rank 2r plus
n - r supersingular planes, reduced mod p, then moved by a seeded base
change over F_{p^2}.  The program therefore receives inputs that depend
only on the seed, and its answer can be checked against the r that
generated each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("hecke", "classify", "selftest")

# The trivial call: interpreter start, imports and argument parsing.
STARTUP_ARGV = ("dd", "isoc", "--n", "3", "--r", "1")

# One pass: every n as JSON, n = 13 also pretty-printed, and n = 13 and
# 15 twice.  Calls with the same command line are one request, so the
# pass holds seven: the median is n = 13 as JSON, the mean of two calls
# a pass, and the tail n = 15, likewise.
HECKE_PASS = ((5, "json"), (7, "json"), (9, "json"), (11, "json"),
              (13, "json"), (13, "json"), (13, "pretty"), (15, "json"),
              (15, "json"))

CLASSIFY_NS = (5, 7, 9, 11, 13, 15)
CLASSIFY_PRIMES = (3, 5, 7, 11)
# The ranks of the refused inputs: fixed, so the seed does not change
# what a pass costs.
MISMATCH_NS = (7, 13)
CORRUPT_NS = (9, 15)



def classify_types(n: int) -> tuple[int, ...]:
    """The types r a classify request of rank n may have: both ends and
    their neighbours (r = 2 is the ordinary stratum) and the middle.  A
    pass sends four of them, one per classify prime."""
    return (1, 2, (n + 1) // 2, n - 1, n)


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``key`` names its golden output; ``argv`` follows
    ``python -m guhecke``.  A classify request carries the JSON document
    to write at ``input_name`` and the type ``r`` that generated it."""

    kind: str
    key: str
    argv: tuple[str, ...]
    input_name: str | None = None
    input_doc: dict | None = None
    n: int | None = None
    p: int | None = None
    r: int | None = None


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


# ---------------------------------------------------------------------------
# F_{p^2} = F_p[u]/(u^2 - c), c the smallest non-residue; elements (a, b).


class Fp2:
    def __init__(self, p: int):
        squares = {x * x % p for x in range(1, p)}
        self.p = p
        self.c = next(c for c in range(2, p) if c not in squares)

    def mul(self, x, y):
        p = self.p
        return ((x[0] * y[0] + self.c * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def inv(self, x):
        p = self.p
        ninv = pow((x[0] * x[0] - self.c * x[1] * x[1]) % p, p - 2, p)
        return (x[0] * ninv % p, -x[1] * ninv % p)

    def frob(self, x):
        return (x[0], -x[1] % self.p)

    def mat_mul(self, a, b):
        p, c = self.p, self.c
        cols = list(zip(*b))
        out = []
        for row in a:
            nz = [(k, x) for k, x in enumerate(row) if x != (0, 0)]
            new = []
            for col in cols:
                s0 = s1 = 0
                for k, (a0, a1) in nz:
                    b0, b1 = col[k]
                    s0 += a0 * b0 + c * a1 * b1
                    s1 += a0 * b1 + a1 * b0
                new.append((s0 % p, s1 % p))
            out.append(new)
        return out

    def mat_frob(self, m):
        return [[self.frob(x) for x in row] for row in m]

    def mat_inv(self, m):
        """Inverse by Gauss-Jordan elimination, or None if singular."""
        size = len(m)
        p = self.p
        work = [list(row) + [(int(i == j), 0) for j in range(size)]
                for i, row in enumerate(m)]
        for col in range(size):
            pivot = next((r for r in range(col, size)
                          if work[r][col] != (0, 0)), None)
            if pivot is None:
                return None
            work[col], work[pivot] = work[pivot], work[col]
            scale = self.inv(work[col][col])
            work[col] = [self.mul(scale, x) for x in work[col]]
            for r in range(size):
                f = work[r][col]
                if r != col and f != (0, 0):
                    work[r] = [((x0 - g0) % p, (x1 - g1) % p)
                               for (x0, x1), (g0, g1)
                               in zip(work[r], (self.mul(f, y)
                                                for y in work[col]))]
        return [row[size:] for row in work]

    def random_invertible(self, size, rng):
        while True:
            m = [[(rng.randrange(self.p), rng.randrange(self.p))
                  for _ in range(size)] for _ in range(size)]
            inv = self.mat_inv(m)
            if inv is not None:
                return m, inv


def model_matrices(n: int, r: int, p: int) -> dict[str, list]:
    """Structure matrices of the type-r model over F_{p^2}.

    The e piece has basis e_1..e_r, g_1..g_{n-r} and the conjugate piece
    f_1..f_r, h_1..h_{n-r}.  Mod p the banded block keeps F e_i = f_{i-1}
    (i >= 2), F f_1 = (-1)^r e_r, V e_i = f_{i+1} (i < r), V f_r = e_1 and
    <e_i, f_i> = (-1)^(i-1); each supersingular plane keeps F g = h,
    V g = -h and <g, h> = 1.  ``X_e2ebar[i][j]`` is the i-th conjugate
    coordinate of X applied to the j-th e-basis vector.
    """
    zero = [[0] * n for _ in range(n)]
    f_e2ebar, f_ebar2e, v_e2ebar, v_ebar2e, gram = (
        [row[:] for row in zero] for _ in range(5))
    for i in range(2, r + 1):
        f_e2ebar[i - 2][i - 1] = 1
    f_ebar2e[r - 1][0] = (-1) ** r
    for i in range(1, r):
        v_e2ebar[i][i - 1] = 1
    v_ebar2e[0][r - 1] = 1
    for i in range(r):
        gram[i][i] = (-1) ** i
    for k in range(r, n):
        f_e2ebar[k][k] = 1
        v_e2ebar[k][k] = -1
        gram[k][k] = 1
    return {name: [[(x % p, 0) for x in row] for row in m]
            for name, m in (("F_e2ebar", f_e2ebar), ("F_ebar2e", f_ebar2e),
                            ("V_e2ebar", v_e2ebar), ("V_ebar2e", v_ebar2e),
                            ("gram", gram))}


def basechanged_space(n: int, r: int, p: int, rng: random.Random) -> dict:
    """JSON document of the type-r model in a seeded random basis: a map
    from grade g to grade h becomes inv(T_h) M frob(T_g), the pairing
    becomes transpose(T_e) gram T_ebar."""
    fld = Fp2(p)
    m = model_matrices(n, r, p)
    t_e, t_e_inv = fld.random_invertible(n, rng)
    t_eb, t_eb_inv = fld.random_invertible(n, rng)
    tw_e, tw_eb = fld.mat_frob(t_e), fld.mat_frob(t_eb)
    doc = {"p": p, "ne": n, "nebar": n}
    for name, left, right in (("F_e2ebar", t_eb_inv, tw_e),
                              ("F_ebar2e", t_e_inv, tw_eb),
                              ("V_e2ebar", t_eb_inv, tw_e),
                              ("V_ebar2e", t_e_inv, tw_eb)):
        doc[name] = fld.mat_mul(left, fld.mat_mul(m[name], right))
    doc["gram"] = fld.mat_mul([list(col) for col in zip(*t_e)],
                              fld.mat_mul(m["gram"], t_eb))
    return {k: ([[list(x) for x in row] for row in v] if isinstance(v, list)
                else v) for k, v in doc.items()}


# ---------------------------------------------------------------------------
# Requests


def _hecke(n: int, fmt: str) -> Request:
    argv = ("hecke", "--n", str(n), "--format", fmt)
    return Request("hecke", " ".join(argv), argv, n=n)


def _classify(i: int, n: int, p: int, r: int, rng, mode: str = "ok") -> Request:
    doc = basechanged_space(n, r, p, rng)
    arg_n = n
    key = f"dd classify n={n} p={p} r={r}"
    if mode == "mismatch":
        arg_n = n + 2 if n + 2 <= max(CLASSIFY_NS) else n - 2
        key = "dd classify mismatched-n"
    elif mode == "corrupt":
        row = rng.randrange(n)
        col = rng.randrange(n)
        doc["F_e2ebar"][row][col] = doc["F_e2ebar"][row][col] + [0]
        key = "dd classify corrupt-code"
    name = f"classify-{i:03d}.json"
    return Request("classify-" + mode, key,
                   ("dd", "classify", "--input", name, "--n", str(arg_n)),
                   input_name=name, input_doc=doc, n=n, p=p, r=r)


def _selftest(seed: int) -> Request:
    return Request("selftest", "selftest",
                   ("selftest", "--seed", str(seed)))


def startup_request() -> Request:
    return Request("startup", " ".join(STARTUP_ARGV), STARTUP_ARGV)


def warmup_request(workload: str, seed: int) -> Request:
    """The untimed call made during set-up: the workload's cheapest
    request (the trivial call for selftest, whose every call is long)."""
    if workload == "hecke":
        return _hecke(5, "json")
    if workload == "classify":
        return _classify(999, 5, 3, 1, rng_for(workload, seed, "warmup"))
    if workload == "selftest":
        return startup_request()
    raise ValueError(f"unknown workload {workload!r}")


def pass_requests(workload: str, seed: int) -> list[Request]:
    """The fixed multiset of one pass, with the seed's input values."""
    rng = rng_for(workload, seed, "inputs")
    if workload == "hecke":
        return [_hecke(n, fmt) for n, fmt in HECKE_PASS]
    if workload == "classify":
        out = []
        for j, n in enumerate(CLASSIFY_NS):
            # Type i + j goes with the i-th prime: the same pairs for
            # every seed, so the seed does not change what a pass costs.
            types = classify_types(n)
            types = types[j % len(types):] + types[:j % len(types)]
            for p, r in zip(CLASSIFY_PRIMES, types):
                out.append(_classify(len(out), n, p, r, rng))
        for mode, ns in (("mismatch", MISMATCH_NS), ("corrupt", CORRUPT_NS)):
            for n in ns:
                out.append(_classify(len(out), n, rng.choice(CLASSIFY_PRIMES),
                                     rng.choice(classify_types(n)), rng, mode))
        return out
    if workload == "selftest":
        return [_selftest(rng.randrange(1000))]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(count: int, workload: str, seed: int, index: int) -> list[int]:
    """Positions 0..count-1 of a pass's requests in pass ``index``'s seeded
    order."""
    order = list(range(count))
    rng_for(workload, seed, f"order:{index}").shuffle(order)
    return order


def golden_requests(workload: str) -> list[Request]:
    """Every distinct golden key any seed can produce for the workload,
    each with one representative request."""
    rng = rng_for(workload, 0, "golden")
    if workload == "hecke":
        reqs = pass_requests(workload, 0)
    elif workload == "classify":
        reqs = [_classify(0, n, p, r, rng) for n in CLASSIFY_NS
                for p in CLASSIFY_PRIMES for r in classify_types(n)]
        reqs += [_classify(0, 5, 3, 2, rng, "mismatch"),
                 _classify(0, 5, 3, 2, rng, "corrupt")]
    elif workload == "selftest":
        reqs = [_selftest(0)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs + [warmup_request(workload, 0), startup_request()]
