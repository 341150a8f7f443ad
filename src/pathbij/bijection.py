"""Component-preserving bijection between the two path families.

The forward map ``phi`` sends a grand Schroeder path with all flatsteps on the
line y=2 to a Schroeder path with at most one peak per component.  It acts on
each indecomposable component independently:

* a component lying entirely below ground (necessarily flat-free) is mirrored
  above ground and every peak is flattened, giving a component with no peak;

* a component lying entirely above ground runs through a cut-and-paste
  pipeline -- strip the outer upstep/downstep, expand each flatstep into a
  marked down-up valley, mirror the leading component and every component
  that starts at a marked vertex, swap the two blocks delimited by the
  leftmost lowest vertex and the last rising return to ground, flatten all
  peaks except the one created at the block boundary, and re-attach the outer
  steps -- giving a component with exactly one peak.

Each stage is defined once, as a private kernel on step strings paired with
its inverse in ``_ABOVE_STAGES``.  ``_run`` runs the table forwards or
backwards on one component and returns the values the component passes
through, the last of which is ``map_component``; ``map_word`` (under ``phi``
and ``phi_inverse``) joins the ``map_component`` of each of its input's
components, so a word's image is decided by its components'.
``trace_blocks`` formats the same values as ``map --trace``'s text, the one
trace of the maps.  Both map each distinct component once per call and reuse
its values for its repeats, and check class membership once, where the word
enters.

No kernel re-tests its input, as each stage maps one set of step words onto
the next (the tests check each stage as a bijection between its two sets).  On
the inner word of a one-peak class-B component, ``_unflatten_flats`` gives a
Dyck path whose ``w`` is the apex of its one kept peak; ``_reverse_interchange``
then gives ``d[w:z] + d[:w] + d[z:]``, a nonempty, flat-free grand Dyck path
that starts with D; and each mark ``_recover_marks`` returns starts a
re-mirrored component after one that ends with D, so it is a valley.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import add, indexOf
from typing import Callable

from .paths import (
    DOWN,
    FLAT,
    MIRROR,
    PEAK,
    UP,
    Path,
    PathbijError,
    _rises,
    class_a_word,
    class_b_word,
    split_components,
    step_heights,
)

_VALLEY = DOWN + UP
_BARE: dict = {}  # the annotations of a value that carries none; shared, never mutated


class NotInClass(PathbijError):
    """The path does not belong to the family the map is defined on."""

    # The message for each domain, indexed by the maps' ``inverse`` flag.
    MESSAGES = (
        "input is not a grand Schroeder path with all flatsteps on y=2",
        "input is not a Schroeder path with at most one peak per component",
    )


def _flatten(s: str, keep: int | None = None) -> str:
    """Flatten every peak of the step word ``s`` except the one with apex ``keep``."""
    if keep is None:
        return s.replace(PEAK, FLAT)
    return s[: keep - 1].replace(PEAK, FLAT) + PEAK + s[keep + 1 :].replace(PEAK, FLAT)


# The stage kernels map (steps, annotations) to the next pair; the annotations
# are ``_line``'s keyword arguments, printed by the trace and read by the next stage.


def _expand_flats(s: str, _: dict) -> tuple[str, dict]:
    if FLAT not in s:
        return s, {"marks": frozenset()}
    # The k-th flatstep's valley starts k steps later than the flatstep did, so
    # its mark is the length of the pieces before it plus 2k + 1.
    pieces = s.split(FLAT)
    ends = accumulate(map(len, pieces[:-1]))
    marks = frozenset(map(add, ends, range(1, 2 * len(pieces) - 1, 2)))
    return _VALLEY.join(pieces), {"marks": marks}


def _contract_marks(s: str, ann: dict) -> tuple[str, dict]:
    if not ann["marks"]:
        return s, {}
    # Each valley around a mark becomes one flatstep.
    pieces, start = [], 0
    for m in sorted(ann["marks"]):
        pieces.append(s[start : m - 1])
        start = m + 1
    pieces.append(s[start:])
    return FLAT.join(pieces), {}


def _flip_marked(s: str, ann: dict) -> tuple[str, dict]:
    # s is a Dyck path whose marks are ground vertices (each flatstep sat on
    # y=1 here, so its valley touches ground).  The leading component and each
    # one starting at a mark are copied from the mirror image of s, the rest
    # from s, so the flipped components are exactly g's below-ground ones: v1,
    # g's leftmost lowest vertex, is the leftmost vertex where s is highest
    # within them, and v2, g's last upstep to ground, ends the last one.
    # Flipped components come in runs; with each mark raised to 1, a run ends
    # at the next vertex at 0, and the next run starts at the next mark.
    # With the marks raised, heights still move by at most 1, so v1 climbs:
    # the first vertex one higher than v1 is the leftmost one that high, and
    # a vertex at height h is at least h steps before the run's end.
    hs, marks = step_heights(s), sorted(ann["marks"])
    for m in marks:
        hs[m] = 1
    mirrored, parts, v1, v2, start, i = s.translate(MIRROR), [], 0, 0, 0, 0
    while True:
        end = hs.index(0, start + 1)
        parts += (s[v2:start], mirrored[start:end])
        if end - start > 2 * hs[v1]:  # a run of 2h steps rises at most h
            p = start + 1
            try:
                while end - p > hs[v1]:
                    v1 = p = hs.index(hs[v1] + 1, p, end)
            except ValueError:
                pass
        v2 = end
        i = bisect_left(marks, end, i)
        if i == len(marks):
            break
        start = marks[i]
    parts.append(s[v2:])
    return "".join(parts), {"v1": v1, "v2": v2}


def _recover_marks(g: str, _: dict) -> tuple[str, dict]:
    # A run of below-ground components starts one vertex before the next vertex
    # at -1; mirror each run back above ground.  Its ground vertices followed
    # by D start its components, the marks, and the first one followed by U
    # ends it.  The sentinels end both the run and the search past the word.
    n, hs = len(g), step_heights(g)
    hs += (1, -1)
    mirrored, parts, marks, start, end = g.translate(MIRROR), [], [], 0, 0
    while start < n:
        parts.append(g[end:start])
        end = start
        while hs[end + 1] < 0:
            marks.append(end)
            end = hs.index(0, end + 1)
        parts.append(mirrored[start:end])
        start = hs.index(-1, end) - 1
    parts.append(g[end:])
    return "".join(parts), {"marks": frozenset(marks[1:])}


def _interchange(g: str, ann: dict) -> tuple[str, dict]:
    # The moved block starts at the old minimum, so the result is a Dyck path
    # with a peak apex at w, where v2 lands.
    v1, v2 = ann["v1"], ann["v2"]
    return g[v1:v2] + g[:v1] + g[v2:], {"w": v2 - v1}


def _reverse_interchange(d: str, ann: dict) -> tuple[str, dict]:
    # z is the first return to ground after the apex w: the heights from w,
    # accumulated lazily from w's height (d is flat-free, so 2 * ups - w), are
    # read no further than z.
    w = ann["w"]
    z = w + indexOf(accumulate(_rises(d)[w:], initial=2 * d.count(UP, 0, w) - w), 0)
    return d[w:z] + d[:w] + d[z:], {}


def _flatten_peaks(d: str, ann: dict) -> tuple[str, dict]:
    return _flatten(d, ann["w"]), {}


def _unflatten_flats(f: str, _: dict) -> tuple[str, dict]:
    j = f.index(PEAK)  # the U of the one peak _flatten_peaks kept
    return f.replace(FLAT, PEAK), {"w": j + 1 + f.count(FLAT, 0, j)}


# The above-ground pipeline between strip-ends and output, in forward order:
# (forward label, forward kernel, inverse label, inverse kernel).
_ABOVE_STAGES = (
    ("expand-flats", _expand_flats, "contract-marks", _contract_marks),
    ("flip-components", _flip_marked, "recover-marks", _recover_marks),
    ("interchange", _interchange, "reverse-interchange", _reverse_interchange),
    ("flatten-peaks", _flatten_peaks, "unflatten-flats", _unflatten_flats),
)


def _run(steps: str, inverse: bool) -> list[tuple[str, str, dict]]:
    """The ``(label, steps, annotations)`` values one component passes through, in order.

    The first is ``input``, the last ``output``.  The table's kernels see the
    component without its outer steps, which is the empty word for size 1.
    """
    values = [("input", steps, _BARE)]
    if not inverse and steps[0] == DOWN:  # below ground: mirror, flatten every peak
        out = _flatten(steps.translate(MIRROR))
    elif inverse and PEAK not in steps:  # peak-free: undo the below-ground move
        out = steps.replace(FLAT, PEAK).translate(MIRROR)
    else:
        inner, ann = steps[1:-1], _BARE
        values.append(("strip-ends", inner, ann))
        for row in reversed(_ABOVE_STAGES) if inverse else _ABOVE_STAGES:
            label, kernel = row[2:] if inverse else row[:2]
            if inner:
                inner, ann = kernel(inner, ann)
            values.append((label, inner, ann))
        out = UP + inner + DOWN
    values.append(("output", out, _BARE))
    return values


def _line(label, path, marks=frozenset(), v1=None, v2=None, w=None) -> str:
    """One trace line: a ``_run`` value's label, steps and annotations."""
    out = f"{label}: {path}".rstrip()
    if marks:
        out += " marks=" + ",".join(map(str, sorted(marks)))
    if v1 is not None:
        out += f" v1={v1} v2={v2}"
    if w is not None:
        out += f" w={w}"
    return out


def _components(steps: str, inverse: bool) -> list[str]:
    """The components of a member of the map's domain, checked once here."""
    hs = step_heights(steps)
    if not (class_b_word if inverse else class_a_word)(steps, hs):
        raise NotInClass(NotInClass.MESSAGES[inverse])
    return [s for _, s in split_components(steps, hs)]


def _each_once(f: Callable[[str], object], comps: list[str]) -> list:
    """``[f(s) for s in comps]``, calling f once per distinct s.

    The memo lives for this call only.  The components are taken in word
    order, so the first to raise is the first in the word that would.
    """
    seen: dict = {}
    return [seen[s] if s in seen else seen.setdefault(s, f(s)) for s in comps]


def map_component(steps: str, inverse: bool = False) -> str:
    """The image of one component of the map's domain, which is not checked here."""
    return _run(steps, inverse)[-1][1]


def map_word(steps: str, inverse: bool = False) -> str:
    """``phi`` (``phi_inverse`` if ``inverse``) on a step word, one component at a time.

    Each distinct component is mapped once per call; repeats reuse its image.
    """
    return "".join(_each_once(lambda s: map_component(s, inverse), _components(steps, inverse)))


def phi(p: Path) -> Path:
    """Forward bijection, applied to each component independently.

    Preserves size and the component size sequence; below-ground components
    map to peak-free components and above-ground ones to one-peak components.
    """
    return Path(map_word(p.steps, False))


def phi_inverse(q: Path) -> Path:
    """Inverse bijection; phi_inverse(phi(p)) == p and phi(phi_inverse(q)) == q."""
    return Path(map_word(q.steps, True))


def trace_blocks(p: Path, *, inverse: bool = False) -> list[tuple[str, str, str]]:
    """``(component, its trace lines joined by newlines, its image)`` per component of p, in
    order: ``map --trace``'s text, formatted from ``_run``'s values.  Class
    membership is checked once, as in ``phi`` and ``phi_inverse``, with the same
    error; a component's repeats share its triple."""

    def block(s: str) -> tuple[str, str, str]:
        values = _run(s, inverse)
        return s, "\n".join([_line(label, w, **ann) for label, w, ann in values]), values[-1][1]

    return _each_once(block, _components(p.steps, inverse))
