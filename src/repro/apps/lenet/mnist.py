"""Synthetic MNIST-like digit images.

The paper's clients send 28x28 grayscale MNIST images.  The dataset is
not bundled offline, so we render digits from a 5x7 bitmap font,
upscale to 28x28, and add seeded noise/jitter — same payload size, same
value range, deterministic, and classifiable by the prototype-
calibrated LeNet (see :meth:`LeNet5.calibrate_to_templates`).
"""

import numpy as np

from ...errors import ConfigError

# 5x7 font, one string per digit row; '#' marks an on pixel.
_FONT = {
    0: [" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "],
    1: ["  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "],
    2: [" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"],
    3: [" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "],
    4: ["   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "],
    5: ["#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "],
    6: [" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "],
    7: ["#####", "    #", "   # ", "  #  ", "  #  ", "  #  ", "  #  "],
    8: [" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "],
    9: [" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "],
}

IMAGE_SIDE = 28

#: (digit, shift) -> pre-noise float64 glyph image.  Rendering is a pure
#: function of its arguments, and load generators re-render the same few
#: dozen variants for every request.
_GLYPH_CACHE = {}


def _base_image(digit, shift):
    key = (digit, shift)
    img = _GLYPH_CACHE.get(key)
    if img is None:
        glyph = _FONT[digit]
        img = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=np.float64)
        # Upscale 5x7 -> 20x21(ish): each font pixel becomes a 4x3 block.
        cell_h, cell_w = 3, 4
        top = (IMAGE_SIDE - len(glyph) * cell_h) // 2 + shift[0]
        left = (IMAGE_SIDE - len(glyph[0]) * cell_w) // 2 + shift[1]
        for r, row in enumerate(glyph):
            for c, ch in enumerate(row):
                if ch == "#":
                    y0 = top + r * cell_h
                    x0 = left + c * cell_w
                    img[max(0, y0):y0 + cell_h, max(0, x0):x0 + cell_w] = 255.0
        _GLYPH_CACHE[key] = img
    return img


def render_digit(digit, noise=0.0, shift=(0, 0), rng=None):
    """Render *digit* as a 28x28 uint8 image.

    *noise* in [0, 1) adds seeded gaussian pixel noise; *shift* moves
    the glyph by (dy, dx) pixels (|shift| <= 3 keeps it in frame).
    """
    if digit not in _FONT:
        raise ConfigError("digit must be 0..9, got %r" % (digit,))
    img = _base_image(digit, tuple(shift)).copy()
    if noise > 0:
        if rng is None:
            rng = np.random.default_rng(digit)
        img += rng.standard_normal(img.shape) * 255.0 * noise
    return np.clip(img, 0, 255).astype(np.uint8)


def image_bytes(digit, noise=0.0, shift=(0, 0), rng=None):
    """The 784-byte wire payload of a rendered digit."""
    return render_digit(digit, noise=noise, shift=shift, rng=rng).tobytes()


#: pixel noise (fraction of full scale) on every streamed digit
STREAM_NOISE = 0.02


class MnistStream:
    """Deterministic stream of (payload, label) pairs for load clients."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)

    def sample(self, index):
        digit = index % 10
        shift = (int(self._rng.integers(-1, 2)), int(self._rng.integers(-1, 2)))
        return image_bytes(digit, noise=STREAM_NOISE, shift=shift,
                           rng=self._rng), digit


def template_set(max_shift=1):
    """Digit -> list of images, for LeNet prototype calibration.

    Covers every glyph shift :class:`MnistStream` emits so
    the prototype readout sees each variant.
    """
    out = {}
    for digit in range(10):
        images = []
        for dy in range(-max_shift, max_shift + 1):
            for dx in range(-max_shift, max_shift + 1):
                images.append(render_digit(digit, shift=(dy, dx)))
        out[digit] = images
    return out
