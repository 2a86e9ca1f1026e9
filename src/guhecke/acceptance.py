"""The acceptance suite: every headline algebraic claim, machine-checked.

Each criterion is registered with a stable id and name; runners return a
short detail string and raise on failure.  Everything is exact rational
or finite-field arithmetic -- there are no tolerances to tune -- and all
randomized checks derive from an explicit seed (default 0), so runs are
reproducible bit for bit.

Both the pytest module ``tests/test_acceptance.py`` and the CLI
``guhecke selftest`` drive this registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Callable

from .dieudonne import (NotBT1Error, _model_fingerprints, basechange,
                        check_bt1, classify_type, integral_model,
                        isocrystal_shape, model_space, newton_slopes,
                        pairing_law_holds, random_basechange, random_frames,
                        signature, strata_dims)
from .finitefield import gfp2, rank
from .guards import MAX_N
from .hecke import (central_monomial, certified_factorization,
                    check_sigma_invariance, check_weyl_invariance,
                    hecke_polynomial, hecke_value_by_determinant)
from .laurent import LaurentPoly, TPoly
from .rootdatum import (norm_monomial, pairing, rho, weyl_generators,
                        weyl_group)

FACTOR_NS = tuple(range(3, MAX_N + 1, 2))
WEYL_NS = (3, 5, 7, 9)
CROSSCHECK_POINTS = 100
MODEL_PRIMES = (3, 5, 7)
MODELS = ((1, 0), *((d, d) for d in range(1, 10)))  # (n, r): SS, B_1..B_9
CLASSIFY_NS = (3, 5, 7)
CLASSIFY_PRIMES = (3, 5)
CLASSIFY_SEEDS = 20
BASECHANGE_COUNT = 100
AUDIT_MAX_N = 99


def _check(ok, *detail) -> None:
    """Raise AssertionError(*detail) unless ok: the criteria's assert,
    which ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(*detail)


def _nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([k for k in range(-9, 10) if k])
    return Fraction(num, rng.randint(1, 9))


def factorization_certificate(seed: int = 0) -> str:
    for n in FACTOR_NS:
        hp, quotient, root, invariant = certified_factorization(n)
        _check(invariant, f"the Weyl flag is false at n={n}")
        _check(quotient.degree == n - 1 and quotient.is_monic(), n)
        _check(quotient * TPoly.linear(root) == hp,
               f"recomposition fails at n={n}")
        for coeff in (*hp.coeffs, *quotient.coeffs):
            _check(check_sigma_invariance(coeff), f"twist moves H or R at n={n}")
        # Negative control: x1 times a seeded root, raised by 1 in H's
        # coefficient of t^(n-1); the twist fixes H's terms, not this one.
        rows = hp.coeffs[n - 1].exponent_rows()
        rng = random.Random(f"twist:{n}:{seed}")
        q, e0, e1, *rest = rng.choice(sorted(rows))
        near = (q, e0, e1 + 1, *rest)
        rows[near] = rows.get(near, 0) + 1
        _check(not check_sigma_invariance(LaurentPoly(n, rows)),
               f"a near miss of H passes the twist check at n={n}")
    return f"exact remainder 0 and recomposition for n in {FACTOR_NS}"


def weyl_invariance(seed: int = 0) -> str:
    checked = 0
    for n in WEYL_NS:
        hp, quotient, _, _ = certified_factorization(n)
        coeffs = (*hp.coeffs, *quotient.coeffs)
        gens = weyl_generators(n)
        _check(check_weyl_invariance(coeffs, n, gens), n)
        # Negative control: a coefficient of H with the coefficient of a
        # term some generator moves raised by 1, the term drawn from the
        # seed; the generator maps it to a term whose coefficient stayed.
        d, row = random.Random(f"weyl:{n}:{seed}").choice(sorted(
            (d, row) for d, coeff in enumerate(hp.coeffs)
            for row in coeff.exponent_rows()
            if any(row[1 + w] != row[2 + i]
                   for g in gens for i, w in enumerate(g))))
        rows = hp.coeffs[d].exponent_rows()
        rows[row] += 1
        _check(not check_weyl_invariance([LaurentPoly(n, rows)], n, gens),
               f"a near miss of H passes the Weyl check at n={n}")
        # Generators that keep the pairing i <-> n+1-i close to a subgroup
        # of W; with |W| = 2^m * m! elements it is W, which then fixes H, R.
        _check(all(sorted(g) == list(range(1, n + 1))
                   and all(g[i] + g[-1 - i] == n + 1 for i in range(n))
                   for g in gens), f"a generator breaks the pairing at n={n}")
        m = (n - 1) // 2
        _check(len(weyl_group(n)) == 2 ** m * factorial(m),
               f"the generators do not generate W at n={n}")
        checked += len(coeffs)
    return (f"{checked} coefficients fixed by all group elements, "
            f"n in {WEYL_NS}")


def determinant_crosscheck(seed: int = 0) -> str:
    total = 0
    for n in (3, 5):
        hp = hecke_polynomial(n)
        for p in (3, 5):
            rng = random.Random(f"det:{n}:{p}:{seed}")
            for _ in range(CROSSCHECK_POINTS):
                x0 = _nonzero_fraction(rng)
                xs = [_nonzero_fraction(rng) for _ in range(n)]
                t = _nonzero_fraction(rng)
                lhs = hp.evaluate(t, p, [x0, *xs])
                rhs = hecke_value_by_determinant(n, x0, xs, p, t)
                _check(lhs == rhs, (n, p, x0, xs, t))
                total += 1
    return f"{total} exact agreements of product form vs determinant"


def central_element(seed: int = 0) -> str:
    for n in FACTOR_NS:
        x0 = (0, 1) + (0,) * n
        e = central_monomial(n)
        _check(norm_monomial(x0) == e, n)
        # alpha shifts q by -2<rho, nu>, so <rho, e> = 0 is alpha fixing e.
        _check(pairing(rho(n), e[1:]) == 0, n)
    return f"twist-norm of x0 is central and alpha-fixed for n in {FACTOR_NS}"


def signatures(seed: int = 0) -> str:
    count = 0
    for p in MODEL_PRIMES:
        for n, r in MODELS:
            sig = signature(integral_model(n, r, p).reduction())
            _check(sig == (n - min(r, 1), min(r, 1)), (n, r, p))
            count += 1
    return f"{count} model signatures exact, p in {MODEL_PRIMES}"


def slopes(seed: int = 0) -> str:
    count = 0
    for p in MODEL_PRIMES:
        for d in range(1, 10):
            got = newton_slopes(integral_model(d, d, p)).entries
            if d % 2 == 1:
                expected = ((Fraction(1, 2), 2 * d),)
            else:
                expected = ((Fraction(1, 2) - Fraction(1, d), d),
                            (Fraction(1, 2) + Fraction(1, d), d))
            _check(got == expected, (d, p, got))
            count += 1
    return f"{count} Newton polygons match the half +- 1/d law"


def bt1_axioms(seed: int = 0) -> str:
    spaces = [integral_model(n, r, p).reduction()
              for p in MODEL_PRIMES for n, r in MODELS]
    for space in spaces:
        _check(check_bt1(space))
    for i in range(BASECHANGE_COUNT):
        space = spaces[i % len(spaces)]
        _check(check_bt1(random_basechange(space, seed * 100_003 + i)), i)
    # One refused space per half of check_bt1, from B_3 at p = 3: F = V = 0
    # keeps the law; gram entry (0, 0) set to 2 keeps F's ranks (sum 3).
    model, zero = spaces[3], ((0,) * 3,) * 3
    dead = replace(model, f_e2ebar=zero, f_ebar2e=zero, v_e2ebar=zero,
                   v_ebar2e=zero)
    changed = replace(model, gram=((2, 0, 0), *model.gram[1:]))
    _check(pairing_law_holds(dead) and not check_bt1(dead), "F = V = 0 passes")
    _check(not pairing_law_holds(changed) and not check_bt1(changed) and sum(
        rank(model.field, changed.f_matrix(g)) for g in (0, 1)) == 3, changed)
    return (f"{len(spaces)} model reductions and {BASECHANGE_COUNT} "
            f"base changes pass")


def classification_roundtrip(seed: int = 0) -> str:
    recovered = 0
    for n in CLASSIFY_NS:
        # The index-set model fingerprints classify_type matches against.
        prints = [fp for _, fp in _model_fingerprints(n)]
        _check(len(set(prints)) == n, f"fingerprint collision at n={n}")
        for p in CLASSIFY_PRIMES:
            models = [model_space(n, r, p) for r in range(1, n + 1)]
            planes = integral_model(n, 0, p).reduction()
            for s in range(CLASSIFY_SEEDS):
                # Negative control with the first seed's frames: the planes
                # are BT1 of signature (n, 0), so classify_type refuses them.
                extra = [planes] if s == 0 else []
                # random_basechange's draws depend on the seed and the
                # dimension only, so all n models share each seed's
                # frames, and basechange certifies them once for all.
                moved = basechange(models + extra, *random_frames(
                    gfp2(p), n, seed * 100_003 + s))
                for r, space in enumerate(moved[:n], 1):
                    _check(classify_type(space, n) == r, (n, p, r, s))
                    recovered += 1
                for space in moved[n:]:
                    try:
                        got = classify_type(space, n)
                    except NotBT1Error as exc:
                        got = str(exc)
                    _check(got == f"signature ({n}, 0) != ({n - 1}, 1)",
                           f"signature ({n}, 0) at p={p}: {got!r}")
    return (f"{recovered} seeded base changes classified back, "
            f"fingerprints pairwise distinct")


def isocrystal_dimension_audit(seed: int = 0) -> str:
    count = 0
    for n in range(3, AUDIT_MAX_N + 1, 2):
        for r in range((n - 1) // 2 + 1):
            shape = isocrystal_shape(n, r)
            _check(shape.slopes.total() == 2 * n, (n, r))
            _check(shape.slopes.is_symmetric(), (n, r))
            _check(sum(f.dim * f.count for f in shape.factors) == 2 * n, (n, r))
            count += 1
    return f"{count} shapes: multiplicities sum to 2n, symmetric about 1/2"


def strata_table(seed: int = 0) -> str:
    for n in range(3, AUDIT_MAX_N + 1, 2):
        rows = {row.r: row for row in strata_dims(n)}
        _check(sorted(rows) == list(range(1, n + 1)))
        for i in range(1, n // 2 + 1):
            _check(rows[2 * i].dim == n - i, (n, i))
        for i in range((n + 1) // 2):
            _check(rows[2 * i + 1].dim == i, (n, i))
        odd_dims = [row.dim for row in rows.values() if row.r % 2 == 1]
        _check(max(odd_dims) == (n - 1) // 2 == rows[n].dim, n)
        _check(rows[2].dim == n - 1 and rows[2].ordinary, n)
        _check(all(row.supersingular == (row.r % 2 == 1)
                   for row in rows.values()), n)
    return f"dimension formulas verified for odd n <= {AUDIT_MAX_N}"


@dataclass(frozen=True)
class Criterion:
    cid: int
    name: str
    run: Callable[[int], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "factorization-certificate", factorization_certificate),
    Criterion(2, "weyl-invariance", weyl_invariance),
    Criterion(3, "determinant-crosscheck", determinant_crosscheck),
    Criterion(4, "central-element", central_element),
    Criterion(5, "signatures", signatures),
    Criterion(6, "slopes", slopes),
    Criterion(7, "bt1-axioms", bt1_axioms),
    Criterion(8, "classification-roundtrip", classification_roundtrip),
    Criterion(9, "isocrystal-dimension-audit", isocrystal_dimension_audit),
    Criterion(10, "strata-table", strata_table),
)


def run_all(seed: int = 0) -> list[tuple[Criterion, Exception | None]]:
    """Run every registered criterion, printing one pass/fail line each
    to stdout; returns (criterion, failure-or-None) pairs."""
    results = []
    for criterion in CRITERIA:
        try:
            detail = criterion.run(seed)
        except Exception as exc:  # report and keep going
            results.append((criterion, exc))
            print(f"FAIL {criterion.cid:2d}/{len(CRITERIA)} "
                  f"{criterion.name}: {exc!r}")
        else:
            results.append((criterion, None))
            print(f"PASS {criterion.cid:2d}/{len(CRITERIA)} "
                  f"{criterion.name}: {detail}")
    passed = sum(1 for _, exc in results if exc is None)
    print(f"{passed}/{len(CRITERIA)} criteria passed")
    return results
