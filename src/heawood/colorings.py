"""Edge colorings of cubic graphs over the color set {0, 1, 2}."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TaitColoring"]

# Maps values equal to a color (2.0, numpy ints, True) to the int; 1.5 or "1" miss.
_COLORS = {0: 0, 1: 1, 2: 2}


@dataclass(frozen=True)
class TaitColoring:
    """Colors for each edge of a fixed graph, in its canonical edge order.

    The coloring is proper when the three edges at every vertex carry three
    distinct colors; properness is a property of the (graph, coloring) pair
    and is checked by the functions that consume colorings.
    """

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            colors = tuple(map(_COLORS.__getitem__, self.colors))
        except (KeyError, TypeError):
            raise ValueError(f"edge colors must be 0, 1 or 2, got {self.colors}") from None
        object.__setattr__(self, "colors", colors)

    def shifted(self, amount: int) -> "TaitColoring":
        """The coloring with every color cyclically shifted by ``amount``."""
        return TaitColoring(tuple((c + amount) % 3 for c in self.colors))
