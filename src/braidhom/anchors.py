"""The anchor table: every rule or fact the decision engine cites.

Each entry is one self-contained mathematical statement.  Rule traces
and report objects reference entries by key and must copy the text
byte for byte; the test suite freezes a fixture copy of this table, so
any edit here is a deliberate, visible event.
"""

from .errors import InputError

ANCHORS: dict[str, str] = {
    # homology of configuration spaces
    "pure-braid-h1-surface": (
        "For a closed orientable surface of genus g >= 1, the first homology "
        "of the pure braid group on n strands is the n-fold sum of the "
        "surface's first homology, free abelian of rank 2gn."
    ),
    "sphere-h1-rank": (
        "For the sphere and n >= 3 strands, the first cohomology of the pure "
        "braid group is free of rank n(n-1)/2 - n."
    ),
    "sphere-h1-torsion": (
        "The cokernel of the sphere's diagonal-class differential carries a "
        "computed torsion summand of order 2 for n >= 3; the closed-form "
        "statement asserts only the free rank, so the torsion is reported "
        "separately rather than asserted."
    ),
    "cstar-h1-rank": (
        "For the punctured plane with one puncture, the first homology of "
        "the pure braid group on n strands has rank n + n(n-1)/2."
    ),
    "cstar-plane-iso": (
        "Translating the last of n + 1 ordered points of the plane to the "
        "origin identifies their configuration space with the plane times "
        "the configuration space of n ordered points in the once punctured "
        "plane, so the pure braid group of the once punctured plane on n "
        "strands is the pure Artin braid group on n + 1 strands."
    ),
    "twisted-h1-transfer": (
        "For genus g >= 2, restriction along the surjection to the n-fold "
        "surface group product identifies the twisted first cohomology of "
        "the pure braid group with that of the product."
    ),
    "torus-pair-count": (
        "For genus 1 and a nontrivial tuple of characters, the twisted first "
        "cohomology dimension of the pure braid group equals the number of "
        "index pairs i < j whose two characters multiply to the trivial "
        "character."
    ),
    "d2-injective": (
        "For genus g >= 1 the differential sending a pair class to its "
        "diagonal cohomology class is injective with torsion free cokernel."
    ),
    "diagonal-class-g0": (
        "On a product of two spheres the diagonal class is the sum of the "
        "two orientation classes."
    ),
    "diagonal-class-pos": (
        "On a product of two genus g >= 1 surfaces the diagonal class has "
        "both orientation coefficients equal to one and an invertible "
        "pairing block on the degree one part."
    ),
    # jump loci
    "sigma1-surface": (
        "For genus g >= 2, the first jump locus of the pure braid group is "
        "the union over the n strands of the pullbacks of the surface "
        "character variety along the coordinate projections, each of "
        "dimension 2g."
    ),
    "sigma1-torus": (
        "For genus 1 and n >= 2 strands, the first jump locus is the finite "
        "union over pairs i < j of the subtori of tuples whose i-th and "
        "j-th characters are mutually inverse, each of dimension 2n - 2."
    ),
    "sigma1-torus-generic": (
        "At a general point of a single pair subtorus over the torus, the "
        "twisted first cohomology has dimension exactly 1."
    ),
    "sigma1-cstar": (
        "For the once punctured plane, the part of the first jump locus "
        "lying in the pulled back character torus is the union over pairs "
        "i < j of the mutually inverse subtori, each of dimension n - 1."
    ),
    # Kahler obstructions
    "ends-extension": (
        "A group that is an extension of a group with infinitely many ends "
        "by a finitely generated group is not Kahler."
    ),
    "free-nonabelian-ends": (
        "A nonabelian free group has infinitely many ends, and the strand "
        "forgetting sequence exhibits the pure braid group of a noncompact "
        "nonsimply connected hyperbolic surface as an extension of such a "
        "group by a finitely generated group."
    ),
    "plane-artin-extension": (
        "For n >= 3 the pure Artin braid group of the plane or disk is an "
        "extension of a nonabelian free group, which has infinitely many "
        "ends, by a finitely generated group; on two strands the group is "
        "infinite cyclic."
    ),
    "sphere-finite-index-ends": (
        "For n >= 4 the sphere pure braid group contains a finite index "
        "subgroup which is an extension of a group with infinitely many "
        "ends by a finitely generated group."
    ),
    "sphere-small-finite": (
        "The sphere braid groups on 2 or 3 strands are trivial or finite."
    ),
    "finite-projective": (
        "Every finite group is the fundamental group of a smooth projective "
        "variety, hence Kahler, by a construction of Serre."
    ),
    "betti-even": (
        "The first Betti number of a compact Kahler manifold is even by "
        "Hodge theory."
    ),
    "fibration-factor": (
        "By the Catanese refinement of the Beauville and Siu fibration "
        "theorem, each coordinate surjection onto the genus g surface group "
        "with finitely generated kernel is induced by a surjective "
        "holomorphic map with connected fibres onto a genus g curve."
    ),
    "h1-iso-pullback": (
        "The product of the fibrations pulls back degree one cohomology of "
        "the n-fold product of curves isomorphically, because the first "
        "homology of the pure braid group equals that of the product."
    ),
    "h4-pullback-zero": (
        "The pullback of degree four cohomology from the product of the "
        "first two curves is zero, by the vanishing of the pulled back top "
        "class of the two-fold surface product."
    ),
    "proper-pullback-injective": (
        "A proper surjective holomorphic map from a compact Kahler manifold "
        "induces an injection on real cohomology, so a map killing a top "
        "class cannot be surjective."
    ),
    "curve-factor-genus": (
        "The image of the map to the product of the first two curves is a "
        "curve whose normalization has genus exactly g, so both coordinate "
        "projections from it are isomorphisms."
    ),
    "dimension-count": (
        "The degree one image of the first two coordinate factors then has "
        "dimension 2g instead of 4g, so the total pulled back degree one "
        "space has dimension at most 2(n-1)g, contradicting the required "
        "2ng."
    ),
    "beauville-untranslated": (
        "On a compact Kahler manifold there is no untranslated torus "
        "component of the first jump locus of dimension 2 or of odd "
        "dimension, by Beauville's theorem."
    ),
    "finite-index-kahler": (
        "A subgroup of finite index in a Kahler group is Kahler, so the "
        "full braid group cannot be Kahler when its pure braid subgroup is "
        "not."
    ),
    # higher dimensional structure
    "wreath-pure-iso": (
        "For a manifold of real dimension at least 3, forgetting the "
        "marked points identifies the pure braid group on n strands with "
        "the n-fold product of the fundamental group."
    ),
    "wreath-full-iso": (
        "For a manifold of real dimension at least 3, the full braid group "
        "on n strands is the wreath product of the fundamental group by "
        "the symmetric group on n letters."
    ),
    "wreath-projective": (
        "For a smooth projective variety of complex dimension at least 2, "
        "the braid groups are fundamental groups of smooth projective "
        "varieties, since a wreath product of a projective group by a "
        "finite group acting on a finite faithful set is projective."
    ),
    # characteristic p
    "charp-exclusion": (
        "For a prime p > 2, the pro prime-to-p completion of the pure "
        "braid group of the plane on n >= 2 strands, or of the sphere on "
        "n >= 4 strands, is not the tame fundamental group of any smooth "
        "projective variety in characteristic p."
    ),
    "charp-open": (
        "Whether the analogous completion of a positive genus surface "
        "braid group can be a tame fundamental group in characteristic p "
        "is an open question; the Hodge theoretic parity arguments have no "
        "counterpart there."
    ),
}


def anchor_text(key: str) -> str:
    if key not in ANCHORS:
        raise InputError("unknown anchor key %r" % key)
    return ANCHORS[key]


def anchor_json(keys) -> list[dict]:
    """The CLI-facing form: key plus byte-identical statement text."""
    return [{"key": k, "text": anchor_text(k)} for k in keys]
