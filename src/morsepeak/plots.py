"""Deterministic static SVG plots for the transform outputs.

Hand-rolled SVG text with fixed-precision coordinates so that identical
inputs always yield byte-identical files.  Pixel coordinates are computed
on the sets' arrays, and each marker is a ``%`` template applied to a row.
"""
from __future__ import annotations

import numpy as np

from .pairing import PDSet, PTSet, RPTSet

WIDTH, HEIGHT, MARGIN = 640, 480, 48
DOT = '<circle cx="%.2f" cy="%.2f" r="5.0" fill="#cc2222"/>'
BOX = '<rect x="%.2f" y="%.2f" width="8" height="8" fill="#000000"/>'


def _scale(values: np.ndarray):
    """The map onto [0, 1] across the finite ``values`` padded 5% a side, in
    quarters (exact) so any padded finite span is finite.  With no finite
    value it is centred on 0, and no mark drawn uses it."""
    finite = values[~np.isinf(values)] / 4
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    if lo == hi:  # widen by 0.5 unscaled
        lo, hi = lo - 0.125, hi + 0.125
    if lo == hi:  # 0.5 is below the values' precision: all map to 0
        return np.zeros_like
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    return lambda v: (v / 4 - lo) / (hi - lo)


def _to_px(t, vertical: bool = False):
    """Pixel coordinates of ``t`` across the plot, or up it if ``vertical``."""
    if vertical:
        return MARGIN + (1.0 - t) * (HEIGHT - 2 * MARGIN)
    return MARGIN + t * (WIDTH - 2 * MARGIN)


def _xy(rows: np.ndarray, fx, fy) -> zip:
    return zip(_to_px(fx(rows[:, 0])).tolist(),
               _to_px(fy(rows[:, 1]), True).tolist())


def _svg(title: str, marks: list[str]) -> str:
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN}" y="24" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888"/>',
        *marks, "</svg>"]) + "\n"


def _shade(values: np.ndarray) -> list[int]:
    # grey level: darker = lower death value; the essential death is black
    t = _scale(values)(values)
    return np.where(np.isinf(values), 0,
                    np.round(40 + 160 * t)).astype(int).tolist()


def _marks(cx: np.ndarray, cy: np.ndarray, boxed: np.ndarray) -> list[str]:
    """A red dot at each point; a black box centred on it where ``boxed``."""
    off = np.where(boxed, 4.0, 0.0)
    return list(map(str.__mod__, [BOX if b else DOT for b in boxed.tolist()],
                    zip((cx - off).tolist(), (cy - off).tolist())))


def render_pt(pt: PTSet) -> str:
    """Position vs birth scatter; death encoded as the marker shade."""
    f, d = pt.array, pt.diagonal_array
    fx, fy = (_scale(np.concatenate((f[:, i], d[:, i]))) for i in (0, 1))
    shade = _shade(f[:, 2])
    return _svg("persistence transformation", [
        *('<circle cx="%.2f" cy="%.2f" r="2.5" fill="#4466cc"/>' % xy
          for xy in _xy(d, fx, fy)),
        *('<circle cx="%.2f" cy="%.2f" r="5.0" fill="#%02x%02x%02x" '
          'stroke="#cc2222"/>' % (*xy, g, g, g)
          for xy, g in zip(_xy(f, fx, fy), shade))])


def render_rpt(rpt: RPTSet) -> str:
    """Position vs persistence; infinite persistence clamps to the top edge."""
    x, p = rpt.array.T
    inf = np.isinf(p)
    cy = np.where(inf, MARGIN, _to_px(_scale(np.append(p, 0.0))(p), True))
    return _svg("reduced persistence transformation",
                _marks(_to_px(_scale(x)(x)), cy, inf))


def render_pd(pd: PDSet) -> str:
    """Birth vs death scatter with the diagonal, corner to corner (from
    t = 0 to t = 1 on both axes); -inf deaths clamp left."""
    b, d = pd.array.T
    frac = _scale(np.concatenate((b, d, [0.0])))
    inf = np.isinf(d)
    return _svg("persistence diagram (upper levelset)", [
        f'<line x1="{MARGIN:.2f}" y1="{HEIGHT - MARGIN:.2f}" '
        f'x2="{WIDTH - MARGIN:.2f}" y2="{MARGIN:.2f}" '
        'stroke="#888" stroke-dasharray="4 3"/>',
        *_marks(np.where(inf, MARGIN, _to_px(frac(d))), _to_px(frac(b), True),
                inf)])
