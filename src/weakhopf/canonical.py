"""The four canonical maps T_rho, T_lambda, rho_T and lambda_T of a
multiplier Hopf algebroid, between its balanced quotients
(``CANONICAL_MAPS``), decided with no map product: on the d module
generators g_a of the ``algebra`` lemma where it applies.  Let
T = T_which go from the quotient with section P_dom to the one with
section P_cod.  The lemma applies when the square is generated and both
P commute with T's covers (``Projection.commutes_with``): P_dom is cut
out under T's flags, and P_cod is multiplication by E from the side on
which its relations are closed, R_l being a right ideal and R_r a left
one.

* Well defined.  T induces a map of quotients iff T(ker P_dom) lies in
  ker P_cod, i.e. P_cod T (1 - P_dom) = 0, as ker P_dom = im(1 - P_dom).
  That is a module map of T's kind, so it vanishes iff
  P_cod(T(g_a) - T(P_dom(g_a))) = 0 for every a.  This is exact.
* Bijective.  Let R = L T_p L^-1 (``slices.TWISTS``), with the
  algebroid's antipode S.  When S is a bijective anti-homomorphism
  (``wmha.CanonicalMaps.twisted`` of ``alg.maps``), R is of T's kind.  If
  P_cod T R = P_cod on the g_a, the two maps are equal, so the class of
  any y is the image of the class of R(y): the induced map is onto, and
  with q_dom = q_cod it is bijective.  When S fails or P_cod T R differs,
  the rank decides: with full_p = P_cod(T(e_p)) for every basis vector,
  the map is bijective iff q_dom = q_cod = dim span{full_p}.

Without sections or the associativity flag, well-definedness is the
same identity P_cod T P_dom = P_cod T on the d^2 basis vectors, and the
rank decides.  The rank paths alone name witnesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .algebra import AlgebraError
from .balanced import BalancedTensorSpace
from .linalg import LinMap, Subspace, Vec, lincomb, vsub
from .slices import first_difference

if TYPE_CHECKING:
    from .algebroid import MultiplierHopfAlgebroid


class NotBijective(AlgebraError):
    pass


# name -> (domain kind, codomain kind, which) of T_which between quotients
CANONICAL_MAPS = {"T_lambda": ("t-up", "l", 4), "T_rho": ("s", "l", 1),
                  "lambda_T": ("t", "r", 2), "rho_T": ("s-up", "r", 3)}


def _projected_columns(alg: MultiplierHopfAlgebroid, cod: BalancedTensorSpace,
                       which: int) -> list[Vec]:
    """full_p = P_cod(T_which(e_p)) for every p, off the slice columns."""
    d = alg.dim
    return [cod.project(alg.slices.column(which, a, b)) for a in range(d) for b in range(d)]


def algebroid_canonical_maps(alg: MultiplierHopfAlgebroid) -> dict[str, tuple[int, int]]:
    """name -> (dim codomain, dim domain) of the four canonical maps, or
    NotBijective, decided as the module docstring proves; each map's
    path, "generators", "rank" or "columns", goes to
    ``alg.canonical_paths``.  No map product is formed.  On columns,
    well-defined is sum_j P_dom(e_p)[j] full_j == full_p for every p.
    Only a rank failure builds the induced matrix, for its message:
    column k is sum_j theta_k[j] full_j, theta_k the k-th echelon row of
    im P_dom, in coordinates over the echelon rows of im P_cod."""
    graph, d, out = alg.graph, alg.dim, {}
    alg.canonical_paths = paths = {}
    for name, (dom_kind, cod_kind, which) in CANONICAL_MAPS.items():
        dom, cod = graph.balanced(dom_kind), graph.balanced(cod_kind)
        if (all(p is not None and p.commutes_with(which) for p in (dom.projector, cod.projector))
                and alg.t2.generated()):
            t, p_cod = alg.slices.applied(which), cod.projector.applied(which)
            dom_g = dom.projector.applied(which).generators()
            paths[name] = "generators"
            if any(p_cod.apply(vsub(x, t.apply(y))) for x, y in zip(t.generators(), dom_g)):
                raise NotBijective(f"{name} is not well-defined on its quotient")
            r = alg.maps.twisted(which)
            if (r is not None and dom.q_dim == cod.q_dim
                    and first_difference([r, t, p_cod], [p_cod]) is None):
                out[name] = (cod.q_dim, dom.q_dim)
                continue
            paths[name], full = "rank", _projected_columns(alg, cod, which)
        else:
            paths[name], full = "columns", _projected_columns(alg, cod, which)
            if any(lincomb(dom.column(p), full) != col for p, col in enumerate(full)):
                raise NotBijective(f"{name} is not well-defined on its quotient")
        if not dom.q_dim == cod.q_dim == Subspace.from_vectors(d * d, full).dim:
            induced = LinMap(cod.q_dim, dom.q_dim, [cod.image.coords(lincomb(theta, full))
                                                    for theta in dom.image.rows])
            ker = induced.kernel()
            raise NotBijective(
                f"{name}: rank {induced.rank()} on quotients of dims "
                f"{induced.ncols} -> {induced.nrows}"
                + (f"; kernel witness {ker.rows[0]}" if ker.dim else ""))
        out[name] = (cod.q_dim, dom.q_dim)
    return out
