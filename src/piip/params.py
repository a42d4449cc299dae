"""Flat parameter registry: every learnable tensor has exactly one name.

Layers *declare* their parameters (name, shape, init rule) into a
``ParamSpec``; allocation is a separate deterministic step so that shape-only
uses (parameter counting, serialization headers) never have to materialize a
large model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ParamDecl:
    shape: tuple[int, ...]
    init: str  # "trunc_normal" | "zeros" | "ones" | "const"
    fill: float = 0.0

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


class ParamSpec:
    """Ordered name -> declaration mapping; order fixes init determinism."""

    def __init__(self) -> None:
        self.decls: dict[str, ParamDecl] = {}

    def declare(
        self, name: str, shape: tuple[int, ...], init: str = "trunc_normal", fill: float = 0.0
    ) -> None:
        if name in self.decls:
            raise ValueError(f"parameter {name!r} declared twice")
        self.decls[name] = ParamDecl(tuple(shape), init, fill)

    def total(self) -> int:
        return sum(d.size for d in self.decls.values())

    def names(self) -> list[str]:
        return list(self.decls)


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with resampling outside +-2 std.

    Each round redraws only the values still rejected, in row-major order,
    so the draws consumed from ``rng`` do not depend on how they are found.
    """
    out = rng.standard_normal(int(np.prod(shape))) * std
    bad = np.flatnonzero(np.abs(out) > 2.0 * std)
    while bad.size:
        out[bad] = rng.standard_normal(bad.size) * std
        bad = bad[np.abs(out[bad]) > 2.0 * std]
    return out.reshape(shape)


def allocate(spec: ParamSpec, seed: int) -> dict[str, np.ndarray]:
    """Materialize every declared tensor, deterministically in ``seed``."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for name, decl in spec.decls.items():
        if decl.init == "trunc_normal":
            out[name] = trunc_normal(rng, decl.shape)
        elif decl.init == "zeros":
            out[name] = np.zeros(decl.shape)
        elif decl.init == "ones":
            out[name] = np.ones(decl.shape)
        elif decl.init == "const":
            out[name] = np.full(decl.shape, decl.fill, dtype=np.float64)
        else:
            raise ValueError(f"unknown init rule {decl.init!r} for {name!r}")
    return out
