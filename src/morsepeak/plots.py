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


def _scale(values: np.ndarray) -> tuple[float, float]:
    finite = values[~np.isinf(values)]
    if not finite.size:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _to_px(v, lim: tuple[float, float], vertical: bool = False):
    """Pixel coordinates of ``v`` across the plot, or up it if ``vertical``."""
    t = (v - lim[0]) / (lim[1] - lim[0])
    if vertical:
        return MARGIN + (1.0 - t) * (HEIGHT - 2 * MARGIN)
    return MARGIN + t * (WIDTH - 2 * MARGIN)


def _xy(rows: np.ndarray, xlim, ylim) -> zip:
    return zip(_to_px(rows[:, 0], xlim).tolist(),
               _to_px(rows[:, 1], ylim, True).tolist())


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


def _shade(values: np.ndarray, lo: float, hi: float) -> list[int]:
    # grey level: darker = lower death value; the essential death is black
    t = (values - lo) / (hi - lo) if hi != lo else np.zeros_like(values)
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
    xlim, ylim = (_scale(np.concatenate((f[:, i], d[:, i]))) for i in (0, 1))
    shade = _shade(f[:, 2], *_scale(f[:, 2]))
    return _svg("persistence transformation", [
        *('<circle cx="%.2f" cy="%.2f" r="2.5" fill="#4466cc"/>' % xy
          for xy in _xy(d, xlim, ylim)),
        *('<circle cx="%.2f" cy="%.2f" r="5.0" fill="#%02x%02x%02x" '
          'stroke="#cc2222"/>' % (*xy, g, g, g)
          for xy, g in zip(_xy(f, xlim, ylim), shade))])


def render_rpt(rpt: RPTSet) -> str:
    """Position vs persistence; infinite persistence clamps to the top edge."""
    x, p = rpt.array.T
    inf = np.isinf(p)
    cy = np.where(inf, MARGIN, _to_px(p, _scale(np.append(p, 0.0)), True))
    return _svg("reduced persistence transformation",
                _marks(_to_px(x, _scale(x)), cy, inf))


def render_pd(pd: PDSet) -> str:
    """Birth vs death scatter with the diagonal; -inf deaths clamp left."""
    b, d = pd.array.T
    lim = _scale(np.concatenate((b, d, [0.0])))
    ends = np.array(lim)
    (x0, x1), (y0, y1) = _to_px(ends, lim), _to_px(ends, lim, True)
    inf = np.isinf(d)
    return _svg("persistence diagram (upper levelset)", [
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="#888" stroke-dasharray="4 3"/>',
        *_marks(np.where(inf, MARGIN, _to_px(d, lim)), _to_px(b, lim, True),
                inf)])
