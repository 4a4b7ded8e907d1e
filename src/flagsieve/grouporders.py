"""Orders and point-stabilizer data for the two classical socle families.

A `GroupSpec` names a simple socle (projective special linear or unitary).
A `SubgroupCase` names one conjugacy type of large subgroup: the geometric
classes C1..C8 in the usual decomposition, plus the finitely many
almost-simple S-types that clear the cube-order admission bound.
`enumerate_cases` is the one catalogue of cells: `case_orders` accepts a
case exactly when the socle's enumeration lists it, and turns it into
exact integer data (|H ∩ X| and the index v); when only an upper bound for
the order is available the bound is returned instead and the exact slots
stay None.

The two families share their order formulas through the signed prime power
Q = q (linear) or Q = -q (unitary), `GroupSpec.signed_q`.  By Ennola duality
(Ennola, "On the characters of the finite unitary groups", Ann. Acad. Sci.
Fenn. 1963), |GU_a(q)| = |GL_a(-q)| up to sign, so each product formula is
written once, at Q, and every order is the absolute value of its order
polynomial at Q: d = gcd(n, Q - 1) and |X| = |GL_n(Q)| / (|Q - 1| d).

Every exact order is cross-checked by divisibility against the socle order;
a failed check raises instead of propagating a wrong table.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from .exactmath import factorize, p_prime_part, prime_power

# q -> (p, f), decomposed once per q; a sweep asks for few distinct q
_prime_power = functools.lru_cache(maxsize=None)(prime_power)

__all__ = [
    "GroupSpec",
    "SubgroupCase",
    "CaseOrders",
    "UnsupportedCaseError",
    "FactorTable",
    "factor_table",
    "gl_order",
    "sp_order",
    "so_order",
    "gaussian_binomial",
    "totally_singular_count",
    "case_orders",
    "case_label",
    "parse_case_label",
    "enumerate_cases",
    "known_subdegrees",
    "LINEAR_S_TABLE",
    "UNITARY_S_TABLE",
    "s_line_admits",
    "s_line_order",
]


class UnsupportedCaseError(ValueError):
    """Raised for a subgroup case that the socle's enumeration does not
    list."""


@dataclass(frozen=True)
class GroupSpec:
    """A simple socle PSL_n(q) ("linear") or PSU_n(q) ("unitary")."""

    family: str
    n: int
    q: int

    def __post_init__(self) -> None:
        if self.family not in ("linear", "unitary"):
            raise ValueError(f"unknown family: {self.family}")
        if self.n < 3:
            raise ValueError(f"dimension must be at least 3: {self.n}")
        _prime_power(self.q)
        if self.family == "unitary" and (self.n, self.q) == (3, 2):
            # PSU_3(2) is solvable, not a simple socle
            raise ValueError("PSU_3(2) is excluded")

    @property
    def p(self) -> int:
        return _prime_power(self.q).p

    @property
    def f(self) -> int:
        return _prime_power(self.q).f

    @functools.cached_property
    def signed_q(self) -> int:
        """Q = q for the linear family, -q for the unitary family."""
        return self.q if self.family == "linear" else -self.q

    @functools.cached_property
    def d(self) -> int:
        """gcd(n, Q - 1): gcd(n, q - 1) linear, gcd(n, q + 1) unitary."""
        return math.gcd(self.n, self.signed_q - 1)

    @functools.cached_property
    def out_order(self) -> int:
        """|Out(X)| = 2 d f for both families."""
        return 2 * self.d * self.f

    @functools.cached_property
    def out_order_p_prime(self) -> int:
        """The p'-part of |Out(X)|, which the order inequality squares."""
        return p_prime_part(self.out_order, self.p)

    @functools.cached_property
    def socle_order(self) -> int:
        """Order of the simple socle, |GL_n(Q)| / (|Q - 1| d), computed once
        per spec and read by every cell of a sweep over this socle."""
        Q = self.signed_q
        return _exact_div(gl_order(self.n, Q), abs(Q - 1) * self.d, "the socle")

    @functools.cached_property
    def _cases(self) -> Tuple[SubgroupCase, ...]:
        """Every subgroup case of this socle, enumerated once per spec; see
        `enumerate_cases`."""
        return _enumerate_cases(self)

    @functools.cached_property
    def _case_set(self) -> FrozenSet[SubgroupCase]:
        """The cases as a set: the cells `case_orders` accepts."""
        return frozenset(self._cases)


class FactorTable:
    """The factors |Q^j - 1| of the classical order formulas for one signed
    prime power Q (q, or -q for the unitary formulas), and their running
    products, extended on demand:

        gl(a) = prod_{j=1..a} |Q^j - 1|       |GL_a(Q)| = |Q|^(a(a-1)/2) gl(a)
        sp(m) = prod_{i=1..m} (Q^(2i) - 1)    |Sp_2m(Q)| = |Q|^(m^2) sp(m)

    At Q = -q, |Q^j - 1| = q^j - (-1)^j, so gl(a) is the product in
    |GU_a(q)| (Ennola duality), and sp(m) is the same as at q.

    Every order formula of this module reads its products here, through
    `factor_table(Q)`, so a sweep builds each product once per Q instead
    of once per cell.  |Q| < 2 and a negative index raise ValueError.
    """

    __slots__ = ("Q", "_minus", "_gl", "_sp")

    def __init__(self, Q: int) -> None:
        if abs(Q) < 2:
            raise ValueError(f"|Q| must be at least 2: {Q}")
        self.Q = Q
        self._minus = [0]  # |Q^j - 1|
        self._gl = [1]
        self._sp = [1]

    def _extend(self, top: int) -> None:
        """Every list up to index j = top (sp up to top // 2)."""
        if top < 0:
            raise ValueError(f"negative index {top} into the factor table of {self.Q}")
        Q, minus, gl, sp = self.Q, self._minus, self._gl, self._sp
        power = Q ** (len(minus) - 1)
        for j in range(len(minus), top + 1):
            power *= Q
            minus.append(abs(power - 1))
            gl.append(gl[-1] * minus[-1])
            if j % 2 == 0:
                sp.append(sp[-1] * minus[-1])

    def minus(self, j: int) -> int:
        """|Q^j - 1|."""
        if not 0 <= j < len(self._minus):
            self._extend(j)
        return self._minus[j]

    def gl(self, a: int) -> int:
        """prod_{j=1..a} |Q^j - 1|."""
        if not 0 <= a < len(self._gl):
            self._extend(a)
        return self._gl[a]

    def sp(self, m: int) -> int:
        """prod_{i=1..m} (Q^(2i) - 1)."""
        if not 0 <= m < len(self._sp):
            self._extend(2 * m)
        return self._sp[m]


@functools.lru_cache(maxsize=None)
def factor_table(Q: int) -> FactorTable:
    """The one factor table of Q, shared by every formula and every cell."""
    return FactorTable(Q)


def gl_order(a: int, Q: int) -> int:
    """|GL_a(Q)| up to sign; gl_order(a, -q) is |GU_a(q)|."""
    return abs(Q) ** (a * (a - 1) // 2) * factor_table(Q).gl(a)


def sp_order(n: int, q: int) -> int:
    """|Sp_n(q)| for even n."""
    if n % 2:
        raise ValueError(f"symplectic dimension must be even: {n}")
    m = n // 2
    return q ** (m * m) * factor_table(q).sp(m)


def so_order(n: int, q: int, eps: str = "o") -> int:
    """|SO^eps_n(q)|; eps is "o" for odd n, "+" or "-" for even n."""
    table = factor_table(q)
    if n % 2:
        if eps != "o":
            raise ValueError(f"odd orthogonal dimension takes eps='o', got {eps}")
        m = (n - 1) // 2
        return q ** (m * m) * table.sp(m)
    if eps not in ("+", "-"):
        raise ValueError(f"even orthogonal dimension needs eps '+'/'-', got {eps}")
    m = n // 2
    middle = table.minus(m) if eps == "+" else q**m + 1
    return q ** (m * (m - 1)) * middle * table.sp(m - 1)


def gaussian_binomial(n: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of an n-dimensional space over F_q."""
    if not 0 <= i <= n:
        return 0
    table = factor_table(q)
    return _exact_div(
        table.gl(n), table.gl(i) * table.gl(n - i), "a Gaussian binomial"
    )


def totally_singular_count(n: int, i: int, q: int) -> int:
    """Totally singular i-subspaces of a unitary n-space (1 <= i <= n/2):
    prod_{j=n-2i+1..n} |(-q)^j - 1| / prod_{j=1..i} (q^(2j) - 1)."""
    if not 1 <= i <= n // 2:
        raise ValueError(f"no totally singular {i}-spaces in dimension {n}")
    table = factor_table(-q)
    return _exact_div(
        table.gl(n), table.gl(n - 2 * i) * table.sp(i), "the totally singular count"
    )


@dataclass(frozen=True)
class SubgroupCase:
    """One point-stabilizer type; params, a tuple of ints and strs (no
    bools), depend on the kind, and anything else raises ValueError.

    C1_Pi(i)           stabilizer of a (totally singular) i-subspace
    C1_Pij(i)          stabilizer of an incident (i, n-i) subspace pair
    C1_Ni(i)           stabilizer of a nondegenerate i-subspace (unitary)
    C1_GLiGLni(i)      stabilizer of a complementary subspace pair
    C2_GLwr(m, t)      imprimitive wreath type on t blocks of size m
    C2_GU1wr           unitary torus normalizer (blocks of size 1)
    C2_GLhalf          unitary type GL_{n/2}(q^2).2
    C3(m, t)           degree-t field extension type, n = m t
    C4(i)              tensor product type, i x (n/i)
    C5_subfield(q0, t) subfield type, q = q0^t
    C5_Sp / C5_O(eps)  symplectic / orthogonal form type inside unitary
    C6(t, m)           extraspecial normalizer type, n = t^m
    C7(m, t)           tensor-induced wreath type, n = m^t
    C8_Sp / C8_O(eps) / C8_U(q0)   classical form types inside linear
    S(line)            almost-simple type from the admission tables
    """

    kind: str
    params: Tuple = ()

    def __post_init__(self) -> None:
        params = self.params
        if type(params) is tuple:
            for x in params:
                if type(x) is not int and type(x) is not str:
                    break
            else:
                return
        raise ValueError(
            f"case {self.kind} takes a tuple of ints and strs as parameters, "
            f"not {params!r}"
        )

    def __str__(self) -> str:
        return case_label(self)


def case_label(case: SubgroupCase) -> str:
    if case.params:
        inner = ",".join(str(x) for x in case.params)
        return f"{case.kind}({inner})"
    return case.kind


# KIND or KIND(P,...,P), the kind and each parameter nonempty and free of "(),"
_LABEL = re.compile(r"[^(),]+(?:\([^(),]+(?:,[^(),]+)*\))?")


def _label_token(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        return token


def parse_case_label(text: str) -> SubgroupCase:
    """The case that case_label writes as text, its exact inverse: a
    parameter that reads as an int is one, any other a str.  Text of
    another form, or that case_label would write otherwise (C3(01,3)),
    raises ValueError naming it."""
    if _LABEL.fullmatch(text):
        kind, _, inner = text.partition("(")
        tokens = inner[:-1].split(",") if inner else []
        case = SubgroupCase(kind, tuple(_label_token(t) for t in tokens))
        if case_label(case) == text:
            return case
    raise ValueError(f"not a case label: {text!r}")


@dataclass(frozen=True, slots=True)
class CaseOrders:
    """What a point-stabilizer case adds to its socle's orders, which the
    `GroupSpec` holds (`socle_order`, `out_order`).

    order_h0 and v are exact when the case has a closed-form order (then
    v * order_h0 == |X|, checked); otherwise they are None and
    order_h0_bound, if set, is a proven upper bound for |H ∩ X|.
    """

    order_h0: Optional[int] = None
    v: Optional[int] = None
    order_h0_bound: Optional[int] = None


def _exact(spec: GroupSpec, ox: int, h0: int) -> CaseOrders:
    """Exact orders, given ox = spec.socle_order; one divmod gives v and
    checks v * h0 == ox."""
    v, rest = divmod(ox, max(h0, 1))
    if h0 <= 0 or rest:
        raise ArithmeticError(
            f"subgroup order {h0} does not divide |X| = {ox} for {spec}"
        )
    if v < 2:
        raise ArithmeticError(f"degenerate index v = {v} for {spec}")
    return CaseOrders(order_h0=h0, v=v)


def _exact_div(num: int, den: int, what: object) -> int:
    """num / den, or an error naming what: a string, or a case, whose label
    is formatted only when the division fails."""
    if num % den != 0:
        raise ArithmeticError(f"non-integral order for {what}: {num}/{den}")
    return num // den


# ---------------------------------------------------------------------------
# S-type tables.  Membership congruences are data; the admission columns are
# reproduced (and re-checked) by the table-consistency tests.
# ---------------------------------------------------------------------------

LINEAR_S_TABLE = (
    dict(line=1, n=3, name="PSL_2(7)", order=168, f=1, mod=7,
         residues=(1, 2, 4), exclude_q=(2,), restriction=(11,)),
    dict(line=2, n=3, name="A_6", order=360, f=1, mod=15,
         residues=(1, 4), restriction=(19,)),
    # p = 3 admits no faithful 3-dimensional cover of A_6, hence excluded
    dict(line=3, n=3, name="A_6", order=360, f=2, mod=5,
         residues=(2, 3), exclude_p=(3,), restriction=(4,)),
    dict(line=4, n=4, name="A_7", order=2520, f=1, mod=7,
         residues=(1, 2, 4), restriction=(2,)),
    dict(line=5, n=4, name="PSU_4(2)", order=25920, f=1, mod=6,
         residues=(1,), restriction=(7,)),
    dict(line=6, n=5, name="M_11", order=7920, fixed_q=(3,), restriction=(3,)),
    # printed restriction q=3 fails its own admission inequality; kept as
    # printed and flagged, the elimination pipeline removes it regardless
    dict(line=7, n=6, name="M_11", order=7920, fixed_q=(3,), restriction=(3,),
         anomalous=True),
    dict(line=8, n=6, name="PSL_3(q)", order=None, q_odd=True, restriction=()),
)

UNITARY_S_TABLE = (
    dict(line=1, n=3, name="PSL_2(7)", order=168, possible_q=(3, 5, 13, 17, 19)),
    dict(line=2, n=3, name="A_6", order=360, possible_q=(11, 29)),
    dict(line=3, n=3, name="M_10", order=720, possible_q=(5,)),
    dict(line=4, n=3, name="A_7", order=2520, possible_q=(5,)),
    dict(line=5, n=4, name="A_7", order=2520, possible_q=(3, 5)),
    dict(line=6, n=4, name="PSL_3(4)", order=20160, possible_q=(3,)),
    dict(line=7, n=4, name="PSU_4(2)", order=25920, possible_q=(5, 11)),
    dict(line=8, n=5, name="PSL_2(11)", order=660, possible_q=(2,)),
    dict(line=9, n=6, name="M_22", order=443520, possible_q=(2,)),
    dict(line=10, n=6, name="PSU_4(3).2", order=6531840, possible_q=(2,)),
    dict(line=11, n=9, name="J_3", order=50232960, possible_q=(2,)),
)


def s_line_admits(family: str, line: int, q: int) -> bool:
    """Does q satisfy the membership condition of the given table line?"""
    if family == "unitary":
        row = _s_row("unitary", line)
        return q in row["possible_q"]
    row = _s_row("linear", line)
    pp = _prime_power(q)
    if "fixed_q" in row:
        return q in row["fixed_q"]
    if row.get("q_odd"):
        return q % 2 == 1
    if pp.f != row["f"]:
        return False
    if pp.p % row["mod"] not in row["residues"]:
        return False
    if q in row.get("exclude_q", ()):
        return False
    if pp.p in row.get("exclude_p", ()):
        return False
    return True


def _s_row(family: str, line: int) -> dict:
    table = LINEAR_S_TABLE if family == "linear" else UNITARY_S_TABLE
    for row in table:
        if row["line"] == line:
            return row
    raise UnsupportedCaseError(f"no S-table line {line} for family {family}")


def s_line_order(spec: GroupSpec, line: int) -> int:
    row = _s_row(spec.family, line)
    if row["order"] is not None:
        return row["order"]
    # line 8 of the linear table: H0 is PSL_3(q) for the ambient q
    return GroupSpec("linear", 3, spec.q).socle_order


# ---------------------------------------------------------------------------
# Exact orders per case
# ---------------------------------------------------------------------------


def case_orders(spec: GroupSpec, case: SubgroupCase) -> CaseOrders:
    """Exact (or bounded) order data for the point stabilizer H ∩ X.

    A case is valid exactly when `enumerate_cases(spec)` lists it; any other
    case, parameters included, raises UnsupportedCaseError.  Each class has
    one formula for both families, at Q = spec.signed_q; the paired names
    (C1_GLiGLni and C1_Ni, C2_GLwr(1, n) and C2_GU1wr, C8_O and C5_O) are
    one class type under the two socles."""
    if case not in spec._case_set:
        raise UnsupportedCaseError(
            f"{spec.family} n={spec.n} q={spec.q} has no case {case_label(case)}"
        )
    n, q, Q, d = spec.n, spec.q, spec.signed_q, spec.d
    kind, params = case.kind, case.params
    ox = spec.socle_order
    # |GL_n(Q)| / scalars_d = |X|: the determinant index times the centre
    scalars_d = abs(Q - 1) * d

    if kind == "C1_Pi":
        (i,) = params
        if spec.family == "linear":
            v = gaussian_binomial(n, i, q)
        else:
            v = totally_singular_count(n, i, q)
        return _exact(spec, ox, _exact_div(ox, v, case))
    if kind == "C1_Pij":
        (i,) = params
        v = gaussian_binomial(n, i, q) * gaussian_binomial(n - i, i, q)
        return _exact(spec, ox, _exact_div(ox, v, case))
    if kind in ("C1_GLiGLni", "C1_Ni"):
        (i,) = params
        h0 = _exact_div(gl_order(i, Q) * gl_order(n - i, Q), scalars_d, case)
        return _exact(spec, ox, h0)
    if kind in ("C2_GLwr", "C2_GU1wr"):
        # C2_GU1wr is the unitary GU_1(q) wr S_n
        m, t = params or (1, n)
        h0 = _exact_div(math.factorial(t) * gl_order(m, Q) ** t, scalars_d, case)
        return _exact(spec, ox, h0)
    if kind == "C2_GLhalf":
        h0 = _exact_div(2 * gl_order(n // 2, q * q), scalars_d, case)
        return _exact(spec, ox, h0)
    if kind in ("C3", "C4", "C5_subfield", "C6", "C7") and spec.family == "unitary":
        # excluded wholesale by the prior classifications; no orders needed
        return CaseOrders()
    if kind == "C3":
        # GL_m(Q^t): the factors |Q^(tj) - 1| for j = 1..m
        m, t = params
        ext = math.prod(map(factor_table(Q).minus, range(t, n + 1, t)))
        h0 = _exact_div(t * abs(Q) ** (n * (m - 1) // 2) * ext, scalars_d, case)
        return _exact(spec, ox, h0)
    if kind == "C4":
        # SL_i(Q) x SL_j(Q), extended by gcd(i, j, Q - 1) scalars
        (i,) = params
        j = n // i
        h0 = _exact_div(
            math.gcd(i, j, Q - 1) * gl_order(i, Q) * gl_order(j, Q),
            abs(Q - 1) * scalars_d,
            case,
        )
        return _exact(spec, ox, h0)
    if kind == "C5_subfield":
        # SL_n(Q0), Q = Q0^t, extended by c scalars
        q0, t = params
        Q0 = q0 if Q > 0 else -q0
        c = math.gcd(n, (Q - 1) // (Q0 - 1))
        h0 = _exact_div(c * gl_order(n, Q0), abs(Q0 - 1) * d, case)
        return _exact(spec, ox, h0)
    if kind == "C6":
        t, m = params
        if n == 3:
            # extraspecial normalizer: the symplectic top drops to Q8
            # unless 9 divides Q - 1
            return _exact(spec, ox, 216 if (Q - 1) % 9 == 0 else 72)
        if n == 4:
            return _exact(spec, ox, 11520 if Q % 8 == 1 else 5760)
        return CaseOrders(order_h0_bound=t ** (2 * m) * sp_order(2 * m, t))
    if kind == "C7":
        m, t = params
        return CaseOrders(order_h0_bound=q ** (t * (m * m - 1)) * math.factorial(t))
    if kind == "C8_Sp":
        h0 = _exact_div(math.gcd(n // 2, q - 1) * sp_order(n, q), d, case)
        return _exact(spec, ox, h0)
    if kind == "C5_Sp":
        h0 = _exact_div(sp_order(n, q), math.gcd(2, q - 1), case)
        return _exact(spec, ox, h0)
    if kind in ("C8_O", "C5_O"):
        (eps,) = params
        return _exact(spec, ox, so_order(n, q, eps))
    if kind == "C8_U":
        # SU_n(q0), extended by c scalars; |GU_n(q0)| = |GL_n(-q0)|
        (q0,) = params
        c = math.gcd(n, q0 - 1)
        h0 = _exact_div(c * gl_order(n, -q0), (q0 + 1) * d, case)
        return _exact(spec, ox, h0)
    if kind == "S":
        (line,) = params
        return _exact(spec, ox, s_line_order(spec, line))
    raise UnsupportedCaseError(f"unsupported case kind: {kind}")


# ---------------------------------------------------------------------------
# Case enumeration for one socle
# ---------------------------------------------------------------------------


def _extraspecial_cells(
    spec: GroupSpec, n_primes: Sequence[int]
) -> list[SubgroupCase]:
    """C6 cells: n = t^m, t prime, t != p, with the field condition on q.
    n_primes are the primes dividing n.

    The defining condition is that f is odd and minimal with t(2,t) | Q - 1
    (q - 1 linear, q + 1 unitary).  For t odd that forces q = p = 1 mod t
    (-1 unitary); for t = 2 it forces q = p = 1 mod 4 (3 mod 4 unitary).
    """
    out = []
    target = spec.signed_q - 1
    for t in n_primes:
        m = 0
        k = spec.n
        while k % t == 0:
            k //= t
            m += 1
        if k != 1:
            continue
        if t == spec.p:
            continue
        modulus = t * math.gcd(2, t)
        if spec.f != 1 or target % modulus != 0:
            continue
        out.append(SubgroupCase("C6", (t, m)))
    return out


def enumerate_cases(spec: GroupSpec) -> Tuple[SubgroupCase, ...]:
    """Every subgroup case attached to this socle on the survey grid, in
    sweep order: the one list of which cells exist."""
    return spec._cases


def _enumerate_cases(spec: GroupSpec) -> Tuple[SubgroupCase, ...]:
    n, q, f = spec.n, spec.q, spec.f
    linear = spec.family == "linear"
    n_primes = [t for t, _ in factorize(n)]
    cases = [SubgroupCase("C1_Pi", (i,)) for i in range(1, n // 2 + 1)]

    for i in range(1, (n + 1) // 2):
        if linear:
            cases.append(SubgroupCase("C1_Pij", (i,)))
            cases.append(SubgroupCase("C1_GLiGLni", (i,)))
        else:
            cases.append(SubgroupCase("C1_Ni", (i,)))
    if not linear:
        # the unitary C2_GLwr(1, n)
        cases.append(SubgroupCase("C2_GU1wr", ()))
    for t in range(2, n + 1):
        if n % t == 0 and (linear or n // t >= 2):
            cases.append(SubgroupCase("C2_GLwr", (n // t, t)))
    if not linear and n % 2 == 0:
        cases.append(SubgroupCase("C2_GLhalf", ()))
    # a unitary field extension or subfield has odd degree
    for t in n_primes:
        if linear or t % 2:
            cases.append(SubgroupCase("C3", (n // t, t)))
    for i in range(2, n):
        if n % i == 0 and i * i < n:
            cases.append(SubgroupCase("C4", (i,)))
    for t, _ in factorize(f):
        if linear or t % 2:
            cases.append(SubgroupCase("C5_subfield", (spec.p ** (f // t), t)))

    # the form classes: C8 in the linear family, C5 in the unitary one
    form = "C8" if linear else "C5"
    forms = []
    if n % 2 == 0:
        forms.append(SubgroupCase(form + "_Sp", ()))
    if q % 2 == 1:
        for eps in ("o",) if n % 2 else ("+", "-"):
            forms.append(SubgroupCase(form + "_O", (eps,)))
    if linear and f % 2 == 0:
        forms.append(SubgroupCase("C8_U", (spec.p ** (f // 2),)))
    if not linear:
        cases.extend(forms)

    cases.extend(_extraspecial_cells(spec, n_primes))
    for m in range(3, n):
        for t in range(2, 5):
            if m**t == n:
                cases.append(SubgroupCase("C7", (m, t)))
    if linear:
        cases.extend(forms)
    for row in LINEAR_S_TABLE if linear else UNITARY_S_TABLE:
        if row["n"] == n and s_line_admits(spec.family, row["line"], q):
            cases.append(SubgroupCase("S", (row["line"],)))
    return tuple(cases)


# ---------------------------------------------------------------------------
# Closed-form nontrivial subdegrees (used by the v < s^2 style filters)
# ---------------------------------------------------------------------------


def known_subdegrees(spec: GroupSpec, case: SubgroupCase) -> Optional[Tuple[int, ...]]:
    """Sizes of G_alpha-invariant sets of points other than alpha, when
    tabulated: nontrivial subdegrees or sums of them, as 144 for
    C2_GLwr(2,2) at n = 4, q = 2.  r* divides every such size."""
    n, q = spec.n, spec.q
    if spec.family == "linear":
        if case.kind == "C1_Pi":
            (i,) = case.params
            if 1 < i <= n // 2:
                num = q * (q**i - 1) * (q ** (n - i) - 1)
                return (_exact_div(num, (q - 1) ** 2, "subdegree"),)
            return None
        if case.kind == "C1_Pij":
            (i,) = case.params
            num = 2 * q * (q ** (n - 2 * i) - 1) * (q**i - 1)
            return (_exact_div(num, (q - 1) ** 2, "subdegree"),)
        if case.kind == "C1_GLiGLni":
            # complements differing by a rank-one homomorphism W -> U
            (i,) = case.params
            num = (q**i - 1) * (q ** (n - i) - 1)
            return (_exact_div(num, q - 1, "subdegree"),)
        if case.kind == "C2_GLwr":
            m, t = case.params
            if t == 2 and m >= 2:
                num = 4 * q ** (2 * (m - 1)) * (q**m - 1) ** 2
                return (_exact_div(num, (q - 1) ** 2, "subdegree"),)
            return None
        return None
    if case.kind == "C1_Pi":
        (i,) = case.params
        if i == 1 and n >= 4:
            # rank 3 on isotropic points: perp and opposite suborbits
            num = (q ** (n - 2) - (-1) ** (n - 2)) * (q ** (n - 3) - (-1) ** (n - 3))
            perp = q**2 * _exact_div(num, q**2 - 1, "subdegree")
            return (perp, q ** (2 * n - 3))
        if i == 2 and n == 4:
            # generators of the rank-2 polar space: meet in a point / disjoint
            return (q * (q**2 + 1), q**4)
        return None
    if case.kind == "C1_Ni":
        (i,) = case.params
        return ((q**i - (-1) ** i) * (q ** (n - i) - (-1) ** (n - i)),)
    if case.kind == "C2_GU1wr" and n >= 4:
        if q > 3:
            return (_exact_div(n * (n - 1) * (q + 1) ** 2, 2, "subdegree"),)
        return (_exact_div(n * (n - 1) * (n - 2) * (q + 1) ** 3, 6, "subdegree"),)
    return None
