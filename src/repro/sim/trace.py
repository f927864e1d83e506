"""Issue-queue traces (the waterfall visualisation of Figure 9)."""

from __future__ import annotations

from dataclasses import dataclass

#: Per-cycle issue classification codes.
BUBBLE = 0
SHORT = 1
LONG = 2
INV = 3

_SYMBOLS = {BUBBLE: ".", SHORT: "s", LONG: "L", INV: "I"}


@dataclass
class IssueTrace:
    """Compact per-cycle record of what was issued (one code per cycle)."""

    codes: list

    def window(self, start: int, length: int) -> list:
        return self.codes[start:start + length]

    def occupancy(self) -> float:
        """Share of the traced cycles that issued an op."""
        if not self.codes:
            return 0.0
        return sum(1 for c in self.codes if c != BUBBLE) / len(self.codes)

    def render(self, start: int = 0, length: int = 64) -> str:
        """ASCII waterfall: one character per cycle, wrapped at 64 columns."""
        codes = self.window(start, length)
        lines = []
        for row_start in range(0, len(codes), 64):
            row = codes[row_start:row_start + 64]
            lines.append("".join(_SYMBOLS[c] for c in row))
        return "\n".join(lines)

    def histogram(self, start: int = 0, length: int | None = None) -> dict:
        codes = self.codes[start:start + length] if length else self.codes[start:]
        result = {"bubble": 0, "short": 0, "long": 0, "inv": 0}
        names = {BUBBLE: "bubble", SHORT: "short", LONG: "long", INV: "inv"}
        for code in codes:
            result[names[code]] += 1
        return result
