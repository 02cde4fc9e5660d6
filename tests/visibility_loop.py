"""The per-class loop that gradedcenter.center.class_visibility_map's
closed form replaces, kept unchanged as its differential oracle: each
class (family, q) is tested index by index, q counting up from 0 until
a class is not visible at all."""

from gradedcenter.center import _socle_gap
from gradedcenter.model import ModelParams


def _class_visibility(params: ModelParams, family: str, q: int, inner: int, guard: int) -> str:
    """'full' if every index of the class has support in the guarded box,
    'partial' if some index has support in the inner box, else 'none'."""

    def reachable(bound: int) -> tuple[bool, bool]:
        any_idx, all_idx = False, True
        for i in range(params.r):
            ok = bound >= 0 and _socle_gap(params, family, q, i) <= 2 * bound
            any_idx = any_idx or ok
            all_idx = all_idx and ok
        return any_idx, all_idx

    _, all_guarded = reachable(inner - guard)
    if all_guarded:
        return "full"
    any_inner, _ = reachable(inner)
    return "partial" if any_inner else "none"


def class_visibility_map(params: ModelParams, inner_window: int) -> dict:
    """Visibility of every socle class meeting the inner window."""
    guard = params.n + params.m + 2
    out = {}
    families = ["X"] + (["Y"] if params.r < params.n else [])
    for family in families:
        q = 0
        while True:
            vis = _class_visibility(params, family, q, inner_window, guard)
            if vis == "none":
                break
            out[(family, q)] = vis
            q += 1
    return out
