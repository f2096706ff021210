"""Independent re-validation of obstruction witnesses.

Deliberately avoids the solver classes used by the detectors: all
arithmetic here is dense Gaussian elimination over Fraction lists, so a
witness that re-validates does so through a disjoint code path.
"""

from __future__ import annotations

from fractions import Fraction

from .algebroid import MultiplierHopfAlgebroid
from .linalg import unit_vec
from .reconstruction import (ObstructionReport, STAGE_COUNITS_DIFFER,
                             STAGE_KERNELS, STAGE_MODULAR_MISMATCH,
                             STAGE_NOT_SEPARABLE, STAGE_RANGES)


def _as_dense(vec: dict, n: int) -> list[Fraction]:
    row = [Fraction(0)] * n
    for k, v in vec.items():
        row[int(k)] = Fraction(v) if not isinstance(v, Fraction) else v
    return row


def _eliminate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row echelon form of a dense matrix, destructive on a copy."""
    m = [list(r) for r in rows]
    out = []
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for r in range(len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        row = m.pop(pivot)
        inv = Fraction(1) / row[col]
        row = [x * inv for x in row]
        m = [[x - r[col] * y for x, y in zip(r, row)] for r in m]
        out.append(row)
    return out


def _in_span(rows: list[list[Fraction]], v: list[Fraction]) -> bool:
    ech = _eliminate(rows)
    w = list(v)
    for row in ech:
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        c = w[lead]
        if c:
            w = [x - c * y for x, y in zip(w, row)]
    return not any(w)


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    ech = _eliminate(rows)
    ncols = len(rows[0]) if rows else 0
    leads = []
    for row in ech:
        leads.append(next(i for i, x in enumerate(row) if x))
    basis = []
    for free in range(ncols):
        if free in leads:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, lead in zip(ech, leads):
            if row[free]:
                v[lead] = -row[free]
        basis.append(v)
    return basis


def _b_structure(alg: MultiplierHopfAlgebroid):
    b = alg.graph.b_view.algebra
    n = b.dim
    mul = [[_as_dense(b.mul_basis(i, j), n) for j in range(n)] for i in range(n)]
    return b, n, mul


def revalidate(obstruction: ObstructionReport, alg: MultiplierHopfAlgebroid) -> bool:
    stage = obstruction.stage
    if stage == STAGE_NOT_SEPARABLE:
        return _revalidate_radical(obstruction, alg)
    if stage == STAGE_MODULAR_MISMATCH:
        return _revalidate_mismatch(obstruction, alg)
    if stage == STAGE_COUNITS_DIFFER:
        return _revalidate_counits(obstruction, alg)
    if stage in (STAGE_RANGES, STAGE_KERNELS):
        return _revalidate_subspace(obstruction, alg)
    return False


def _revalidate_radical(obstruction, alg) -> bool:
    """The witness lies in the radical of the regular trace form and is
    nonzero, which over the rationals refutes semisimplicity."""
    b, n, mul = _b_structure(alg)
    r = _as_dense(obstruction.witness["radical_element"], n)
    if not any(r):
        return False
    # trace of left multiplication by r * e_x must vanish for every x
    for x in range(n):
        # rx = r e_x; total adds the e_i coefficient of rx e_i over i
        rx = [Fraction(0)] * n
        for j in range(n):
            if r[j]:
                for k in range(n):
                    rx[k] += r[j] * mul[j][x][k]
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                if rx[j]:
                    total += rx[j] * mul[j][i][i]
        if total:
            return False
    return True


def _revalidate_mismatch(obstruction, alg) -> bool:
    """Every functional satisfying the twisted trace law kills the
    moved-center direction, so none of them is faithful."""
    b, n, mul = _b_structure(alg)
    sigma_rows = obstruction.witness.get("sigma_target")
    if sigma_rows is None:
        return False
    sigma = [[Fraction(x) for x in row] for row in sigma_rows]
    # constraint rows: phi(e_i e_j) - phi(e_j sigma(e_i)) = 0
    rows = []
    for i in range(n):
        for j in range(n):
            row = list(mul[i][j])
            for k in range(n):
                coef = sigma[k][i]
                if coef:
                    row = [x - coef * y for x, y in zip(row, mul[j][k])]
            rows.append(row)
    space = _nullspace(rows)
    moved = obstruction.witness.get("moved_center_element")
    if moved is not None:
        v = _as_dense(moved, n)
        if not any(v):
            return False
        for phi in space:
            for x in range(n):
                # phi(v e_x) must vanish
                vx = [Fraction(0)] * n
                for j in range(n):
                    if v[j]:
                        for k in range(n):
                            vx[k] += v[j] * mul[j][x][k]
                if sum((p * c for p, c in zip(phi, vx)), Fraction(0)):
                    return False
        return True
    # fallback: the constraint space is trivial, so no functional at all
    return not space


def _revalidate_counits(obstruction, alg) -> bool:
    """Recompute both counit values at the witness basis element."""
    labels = alg.algebra.labels
    try:
        a = labels.index(obstruction.witness["basis"])
    except ValueError:
        return False
    n = alg.algebra.dim

    eb = alg.eps_b.apply(unit_vec(a))
    ec = alg.eps_c.apply(unit_vec(a))
    b_view, c_view = alg.graph.b_view, alg.graph.c_view
    # dense coordinate solve for eb over the B basis
    b_cols = [_as_dense(x, n) for x in b_view.basis]
    c_cols = [_as_dense(y, n) for y in c_view.basis]

    def coords(cols, target):
        k = len(cols)
        rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(n)]
        ech = _eliminate(rows)
        sol = [Fraction(0)] * k
        for row in reversed(ech):
            lead = next(i for i, x in enumerate(row) if x)
            if lead == k:
                return None  # inconsistent system
            sol[lead] = row[-1] - sum(
                (row[j] * sol[j] for j in range(lead + 1, k)), Fraction(0))
        return sol

    eb_coords = coords(b_cols, _as_dense(eb, n))
    ec_coords = coords(c_cols, _as_dense(ec, n))
    if eb_coords is None or ec_coords is None:
        return False
    phi_b = _as_dense(obstruction.witness["phi_B"], len(b_cols))
    phi_c = _as_dense(obstruction.witness["phi_C"], len(c_cols))
    eps_val = sum((p * c for p, c in zip(phi_b, eb_coords)), Fraction(0))
    eps_p_val = sum((p * c for p, c in zip(phi_c, ec_coords)), Fraction(0))
    return (eps_val == Fraction(obstruction.witness["eps"])
            and eps_p_val == Fraction(obstruction.witness["eps_prime"])
            and eps_val != eps_p_val)


def _revalidate_subspace(obstruction, alg) -> bool:
    """The witness vector separates the two compared spaces: it belongs
    to exactly one of them, re-checked by dense span membership against
    generators rebuilt from the algebroid and its graph pair's E."""
    w = obstruction.witness
    vec = w.get("witness_vector")
    e_elt = alg.graph.e_element
    if vec is None or e_elt is None:
        return False
    size = alg.t2.size
    d = alg.algebra.dim
    v = _as_dense(vec, size)
    t2 = alg.t2

    if obstruction.stage == STAGE_RANGES:
        name = w.get("space", "")
        if name.startswith("Delta(A)"):
            gens = []
            for a in range(d):
                base = t2.mul(e_elt, alg.delta_b[a])
                for bidx in range(d):
                    gens.append(t2.mul_right_leg2(base, unit_vec(bidx))
                                if name == "Delta(A)(1xA)"
                                else t2.mul_right_leg1(base, unit_vec(bidx)))
            other = [t2.mul(e_elt, unit_vec(j)) for j in range(size)]
        else:
            gens = []
            for a in range(d):
                base = t2.mul(alg.delta_c[a], e_elt)
                for bidx in range(d):
                    gens.append(t2.mul_left_leg2(unit_vec(bidx), base)
                                if name == "(1xA)Delta'(A)"
                                else t2.mul_left_leg1(unit_vec(bidx), base))
            other = [t2.mul(unit_vec(j), e_elt) for j in range(size)]
        inside = [_as_dense(x, size) for x in gens]
        outside = [_as_dense(x, size) for x in other]
        in_first = _in_span(inside, v)
        in_second = _in_span(outside, v)
        return in_first != in_second
    # kernel stage: apply the named canonical map densely and compare
    # against the sandwich-generated span
    name = w.get("map")
    if name is None:
        return False
    spec, f_idx, style = {
        "T1": (lambda a, b: t2.mul_right_leg2(t2.mul(e_elt, alg.delta_b[a]), unit_vec(b)),
               1, "sandwich"),
        "T2": (lambda a, b: t2.mul_left_leg1(unit_vec(a), t2.mul(alg.delta_c[b], e_elt)),
               2, "sandwich"),
        "T3": (lambda a, b: t2.mul_left_leg2(unit_vec(b), t2.mul(alg.delta_c[a], e_elt)),
               3, "wrap"),
        "T4": (lambda a, b: t2.mul_right_leg1(t2.mul(e_elt, alg.delta_b[b]), unit_vec(a)),
               4, "wrap"),
    }[name]
    image = [Fraction(0)] * size
    for idx, c in enumerate(v):
        if c:
            a, b = divmod(idx, d)
            col = spec(a, b)
            for k2, x in col.items():
                image[k2] += c * x
    in_kernel = not any(image)
    f = alg.graph.f_element(f_idx)
    gens = []
    for a in range(d):
        ea = unit_vec(a)
        for b in range(d):
            eb = unit_vec(b)
            plain = {a * d + b: Fraction(1)}
            if style == "sandwich":
                gen = t2.sandwich(ea, f, eb)
            else:
                gen = t2.mul_left_leg2(eb, t2.mul_right_leg1(f, ea))
            diff = dict(plain)
            for k2, x in gen.items():
                diff[k2] = diff.get(k2, Fraction(0)) - x
            gens.append(_as_dense({k2: x for k2, x in diff.items() if x}, size))
    in_described = _in_span(gens, v)
    return in_kernel != in_described
