"""The Weyl group of type G2: a dihedral group with 12 elements.

The two simple reflections s and t embed into S7 as

    s -> (1 2)(3 5)(6 7)        t -> (2 3)(5 6)

and every element is determined by the images w(1), w(2) of its permutation,
which always satisfies w(i) + w(8-i) = 8.  Elements are interned singletons:
identity comparison is group-element equality.

The root datum is read off the same permutations and the torus weights
chi_1..chi_7 of V, on which w acts by t_k -> chi_{w(k)}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Tuple

from .exactalg import MPoly
from .octonion import fixed_point_triples, torus_weights

Perm7 = Tuple[int, int, int, int, int, int, int]

_S_PERM: Perm7 = (2, 1, 5, 4, 3, 7, 6)
_T_PERM: Perm7 = (1, 3, 2, 4, 6, 5, 7)
_ID_PERM: Perm7 = (1, 2, 3, 4, 5, 6, 7)

LONGEST_WORDS = ("ststst", "tststs")


class InvalidPair(ValueError):
    """A pair (i, j) that is not one of the 12 torus-fixed flags."""


class NonReducedWord(ValueError):
    """A word in s, t that is longer than the element it evaluates to."""


def _compose(p: Perm7, q: Perm7) -> Perm7:
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(7))


def _eval_word(word: str) -> Perm7:
    perm = _ID_PERM
    for ch in word:
        gen = _S_PERM if ch == "s" else _T_PERM
        perm = _compose(perm, gen)
    return perm


class WeylElt:
    """One of the 12 group elements; do not construct directly."""

    __slots__ = ("word", "perm", "pair", "length")

    def __init__(self, word: str, perm: Perm7):
        self.word = word
        self.perm = perm
        self.pair = (perm[0], perm[1])
        self.length = len(word)

    @property
    def name(self) -> str:
        return self.word if self.word else "id"

    def inverse(self) -> "WeylElt":
        inv = [0] * 7
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        return _BY_PERM[tuple(inv)]

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return _BY_PERM[_compose(self.perm, other.perm)]

    def __repr__(self):
        return f"WeylElt({self.name}, {self.pair[0]} {self.pair[1]})"


def _build_group() -> Tuple[Dict[Perm7, WeylElt], Dict[str, WeylElt]]:
    by_perm: Dict[Perm7, WeylElt] = {}
    by_word: Dict[str, WeylElt] = {}
    for length in range(7):
        for letters in product("st", repeat=length):
            word = "".join(letters)
            perm = _eval_word(word)
            if perm not in by_perm:
                elt = WeylElt(word, perm)
                by_perm[perm] = elt
                by_word[word] = elt
    return by_perm, by_word


_BY_PERM, _BY_WORD = _build_group()
_BY_PAIR: Dict[Tuple[int, int], WeylElt] = {e.pair: e for e in _BY_PERM.values()}

assert len(_BY_PERM) == 12


def identity() -> WeylElt:
    return _BY_WORD[""]


def longest() -> WeylElt:
    return _BY_WORD["ststst"]


def all_elements() -> List[WeylElt]:
    """The 12 elements, sorted by length then by canonical word."""
    return sorted(_BY_PERM.values(), key=lambda e: (e.length, e.word))


def element(key) -> WeylElt:
    """Look up an element by word ("sts"), by pair "5 2" / (5, 2), or identity
    aliases "id" / "e" / ""."""
    if isinstance(key, WeylElt):
        return key
    if isinstance(key, tuple):
        if key not in _BY_PAIR:
            raise InvalidPair(f"{key} is not a fixed-point pair")
        return _BY_PAIR[key]
    text = key.strip()
    if text in ("id", "e", ""):
        return identity()
    if all(ch in "st" for ch in text):
        perm = _eval_word(text)
        elt = _BY_PERM[perm]
        if len(text) != elt.length:
            raise NonReducedWord(f"{text!r} is not reduced (element is {elt.name})")
        return elt
    parts = text.replace(",", " ").split()
    # ASCII digits only: str.isdigit would take '²' and '٥' too
    if len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts):
        return element((int(parts[0]), int(parts[1])))
    raise ValueError(f"cannot parse Weyl element {key!r}")


def bruhat_leq(u: WeylElt, w: WeylElt) -> bool:
    """Subword criterion: u <= w iff some subsequence of a reduced word of w
    is a reduced word of u."""
    if u.length > w.length:
        return False
    target = u.perm
    word = w.word
    k = len(word)
    n = u.length
    # choose positions of a length-n subsequence
    def search(start: int, picked: str) -> bool:
        if len(picked) == n:
            return _eval_word(picked) == target
        if k - start < n - len(picked):
            return False
        return search(start + 1, picked + word[start]) or search(start + 1, picked)

    return search(0, "")


def rank_fn(w: WeylElt, q: int, p: int) -> int:
    """r_w(q, p) = #{i <= q : w(i) <= p}, on the full S7 permutation."""
    if not (1 <= q <= 7 and 1 <= p <= 7):
        raise ValueError("q and p must lie in 1..7")
    return sum(1 for i in range(q) if w.perm[i] <= p)


def extend_pair(i: int, j: int,
                triples: Optional[Dict[int, Tuple[int, int, int]]] = None) -> Perm7:
    """Extend a fixed-point pair (i, j) to the full 7-permutation.

    w(3) is the remaining member of the isotropic 3-space triple through
    f_i, and w(4)..w(7) are forced by w(k) + w(8-k) = 8.  The triples come
    from the octonion kernels, so this is independent of the group law; it is
    cross-checked against WeylElt.perm in the test suite.
    """
    if triples is None:
        triples = fixed_point_triples()
    if i not in triples or j not in triples[i][1:]:
        raise InvalidPair(f"({i}, {j}) is not a fixed-point pair")
    w3 = next(x for x in triples[i][1:] if x != j)
    return (i, j, w3, 4, 8 - w3, 8 - j, 8 - i)


# ---------------------------------------------------------------------------
# the root datum

TORUS = ("t1", "t2")


@lru_cache(maxsize=None)
def weights(variables: Tuple[str, str] = TORUS) -> Tuple[MPoly, ...]:
    """The torus weights chi_1..chi_7 of f_1..f_7, in the given variable pair."""
    pair = {"t1": MPoly.var(variables[0]), "t2": MPoly.var(variables[1])}
    return tuple(chi.subs(pair) for chi in torus_weights())


def action(w: WeylElt, variables: Tuple[str, str] = TORUS) -> Dict[str, MPoly]:
    """w acting on the weight pair, as the substitution t_k -> chi_{w(k)}."""
    chi = weights(variables)
    return {name: chi[w.perm[k] - 1] for k, name in enumerate(variables)}


def simple_root(letter: str, variables: Tuple[str, str] = TORUS) -> MPoly:
    """chi_i - chi_{r(i)} for the first index i that the reflection r moves."""
    perm = _BY_WORD[letter].perm
    i = next(k for k in range(7) if perm[k] != k + 1)
    chi = weights(variables)
    return chi[i] - chi[perm[i] - 1]


def inversion_roots(w: WeylElt, variables: Tuple[str, str] = TORUS) -> List[MPoly]:
    """(r_1 ... r_{k-1}) . alpha_{r_k} for k = 1..l along the reduced word
    r_1 ... r_l of w; for the longest element, the six positive roots."""
    return [simple_root(letter, variables).subs(action(element(w.word[:k]), variables))
            for k, letter in enumerate(w.word)]
