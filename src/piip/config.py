"""Typed configuration for pyramid models.

A pyramid is a list of branches ordered so that branch 1 has the widest
embedding and the smallest input resolution, and the last branch the
narrowest embedding and the largest resolution. Interactions exchange
information between feature-scale-adjacent branches at evenly spaced points
along the shared depth; merging combines the final per-branch features.

The on-disk format is a flat-sectioned key/value document (INI): one
``[branch.N]`` section per branch plus ``[pyramid]``, ``[interactions]`` and
``[merge]``. ``parse_config(render_config(c)) == c`` holds exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from enum import Enum


class ConfigError(ValueError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """The config document is malformed (unknown key, bad literal, ...)."""


class ValidationError(ConfigError):
    """The config parses but violates a structural invariant."""


class Arch(str, Enum):
    TRANSFORMER = "transformer"
    CONVNET = "convnet"


class AttentionKind(str, Enum):
    GLOBAL = "global"
    WINDOWED = "windowed"


class MergeMode(str, Enum):
    DENSE = "dense"
    CLASSIFICATION = "classification"


class ProjStyle(str, Enum):
    CONV3X3 = "conv3x3"
    LINEAR = "linear"


class AttentionImpl(str, Enum):
    DEFORMABLE = "deformable"
    REGULAR = "regular"


@dataclass(frozen=True)
class BranchSpec:
    """Shape of one pyramid branch."""

    depth: int
    dim: int
    heads: int
    patch_size: int
    resolution: int
    arch: Arch = Arch.TRANSFORMER
    mlp_ratio: float = 4.0
    attention_mode: AttentionKind = AttentionKind.GLOBAL
    window_tokens: int | None = None

    @property
    def grid(self) -> tuple[int, int]:
        g = self.resolution // self.patch_size
        return (g, g)

    @property
    def tokens(self) -> int:
        g = self.resolution // self.patch_size
        return g * g


@dataclass(frozen=True)
class InteractionSchedule:
    """How many interaction points there are and which branches talk."""

    count: int
    directions: tuple[tuple[int, int], ...]  # ordered (src, dst), 1-based
    deform_heads: int | None = None  # None: 8 if dim >= 64 else max(1, dim // 8)
    deform_points: int = 4
    ffn_ratio: float = 0.25
    deform_ratio: float = 0.5
    attention_impl: AttentionImpl = AttentionImpl.DEFORMABLE
    allow_nonadjacent: bool = False


@dataclass(frozen=True)
class PyramidConfig:
    branches: tuple[BranchSpec, ...]
    interactions: InteractionSchedule
    merge_mode: MergeMode = MergeMode.DENSE
    merge_proj: ProjStyle = ProjStyle.CONV3X3
    classes: int = 10
    seed: int = 0


def default_directions(n_branches: int) -> tuple[tuple[int, int], ...]:
    """Bidirectional links between feature-scale-adjacent branches."""
    out: list[tuple[int, int]] = []
    for i in range(1, n_branches):
        out.append((i, i + 1))
        out.append((i + 1, i))
    return tuple(out)


def deform_heads_for(dim: int, schedule: InteractionSchedule) -> int:
    """Head count used by the deformable attention that updates a branch of width ``dim``."""
    if schedule.deform_heads is not None:
        return schedule.deform_heads
    return 8 if dim >= 64 else max(1, dim // 8)


def deform_value_dim(dim: int, schedule: InteractionSchedule) -> int:
    """Width of the deformable value/output projections for query width ``dim``."""
    return int(round(schedule.deform_ratio * dim))


def ffn_hidden(dim: int, ratio: float) -> int:
    return int(round(ratio * dim))


def interaction_positions(depth: int, count: int) -> tuple[int, ...]:
    """Block indices (1-based, "after block k") of the interaction points.

    Points are spread as evenly as the integer grid allows and the last one
    always follows the final block, so merging consumes interacted features.
    """
    if count == 0:
        return ()
    return tuple((k * depth) // count for k in range(1, count + 1))


def validate(cfg: PyramidConfig) -> PyramidConfig:
    """Check every structural invariant; returns the config for chaining."""
    if not cfg.branches:
        raise ValidationError("config needs at least one branch")
    depth0 = cfg.branches[0].depth
    for i, b in enumerate(cfg.branches, start=1):
        where = f"branch {i}"
        if b.depth < 1:
            raise ValidationError(f"{where}: depth must be >= 1, got {b.depth}")
        if b.depth != depth0:
            raise ValidationError(
                f"{where}: all branches must share one depth ({b.depth} != {depth0})"
            )
        if b.dim < 1:
            raise ValidationError(f"{where}: dim must be >= 1, got {b.dim}")
        if b.patch_size < 1:
            raise ValidationError(f"{where}: patch_size must be >= 1, got {b.patch_size}")
        if b.resolution % b.patch_size != 0:
            raise ValidationError(
                f"{where}: resolution {b.resolution} not divisible by patch_size {b.patch_size}"
            )
        if b.resolution < b.patch_size:
            raise ValidationError(
                f"{where}: resolution {b.resolution} smaller than one patch ({b.patch_size})"
            )
        if not 0 < b.mlp_ratio < math.inf:
            raise ValidationError(f"{where}: mlp_ratio must be positive and finite")
        if b.arch is Arch.TRANSFORMER:
            if b.heads < 1 or b.dim % b.heads != 0:
                raise ValidationError(
                    f"{where}: dim {b.dim} not divisible by heads {b.heads}"
                )
            if b.attention_mode is AttentionKind.WINDOWED:
                wt = b.window_tokens
                if wt is None or wt < 1:
                    raise ValidationError(f"{where}: windowed attention needs window_tokens")
                side = int(round(wt**0.5))
                if side * side != wt:
                    raise ValidationError(
                        f"{where}: window_tokens {wt} must be a perfect square"
                    )
            elif b.window_tokens is not None:
                raise ValidationError(f"{where}: window_tokens set but attention is global")
        else:
            if b.attention_mode is not AttentionKind.GLOBAL or b.window_tokens is not None:
                raise ValidationError(f"{where}: convnet branches take no attention options")
    for i in range(1, len(cfg.branches)):
        prev, cur = cfg.branches[i - 1], cfg.branches[i]
        if cur.dim > prev.dim:
            raise ValidationError(
                f"branch {i + 1}: dims must be non-increasing with branch index "
                f"({cur.dim} > {prev.dim})"
            )
        if cur.resolution < prev.resolution:
            raise ValidationError(
                f"branch {i + 1}: resolutions must be non-decreasing with branch index "
                f"({cur.resolution} < {prev.resolution})"
            )

    sched = cfg.interactions
    if sched.count < 0 or sched.count > depth0:
        raise ValidationError(
            f"interactions: count {sched.count} must lie in [0, depth={depth0}]"
        )
    if sched.deform_points < 1:
        raise ValidationError("interactions: deform_points must be >= 1")
    if not 0 < sched.ffn_ratio < math.inf:
        raise ValidationError("interactions: ffn_ratio must be positive and finite")
    if not 0 < sched.deform_ratio <= 1:
        raise ValidationError("interactions: deform_ratio must be in (0, 1]")
    n = len(cfg.branches)
    for src, dst in sched.directions:
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ValidationError(f"interactions: direction {src}->{dst} out of range")
        if src == dst:
            raise ValidationError(f"interactions: direction {src}->{dst} links a branch to itself")
        if abs(src - dst) != 1 and not sched.allow_nonadjacent:
            raise ValidationError(
                f"interactions: direction {src}->{dst} is not feature-scale adjacent "
                "(set allow_nonadjacent to override)"
            )
    if len(set(sched.directions)) != len(sched.directions):
        raise ValidationError("interactions: duplicate direction")
    if sched.count > 0 and sched.directions:
        for src, dst in sched.directions:
            dim = cfg.branches[dst - 1].dim
            heads = deform_heads_for(dim, sched)
            if sched.attention_impl is AttentionImpl.DEFORMABLE:
                vdim = deform_value_dim(dim, sched)
                if heads < 1 or vdim % heads != 0 or vdim // heads < 1:
                    raise ValidationError(
                        f"interactions: value width {vdim} of branch {dst} (dim {dim}) "
                        f"not divisible into {heads} heads"
                    )
            else:
                if heads < 1 or dim % heads != 0:
                    raise ValidationError(
                        f"interactions: branch {dst} dim {dim} not divisible into "
                        f"{heads} cross-attention heads"
                    )

    if cfg.merge_mode is MergeMode.CLASSIFICATION and cfg.classes < 2:
        raise ValidationError(f"merge: classes must be >= 2, got {cfg.classes}")
    if cfg.seed < 0:
        raise ValidationError(f"seed must be non-negative, got {cfg.seed}")
    return cfg


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_BRANCH_KEYS = {
    "arch",
    "depth",
    "dim",
    "heads",
    "patch_size",
    "resolution",
    "mlp_ratio",
    "attention_mode",
}
_INTERACTION_KEYS = {
    "count",
    "directions",
    "deform_heads",
    "deform_points",
    "ffn_ratio",
    "deform_ratio",
    "attention_impl",
    "allow_nonadjacent",
}
_MERGE_KEYS = {"mode", "proj", "classes"}
_PYRAMID_KEYS = {"seed"}


def _get_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _get_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _get_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ParseError(f"[{section}] {key}: expected true/false, got {raw!r}")


def _parse_attention(section: str, raw: str) -> tuple[AttentionKind, int | None]:
    text = raw.strip()
    if text == "global":
        return AttentionKind.GLOBAL, None
    if text.startswith("windowed(") and text.endswith(")"):
        inner = text[len("windowed(") : -1]
        return AttentionKind.WINDOWED, _get_int(section, "attention_mode", inner)
    raise ParseError(
        f"[{section}] attention_mode: expected 'global' or 'windowed(T)', got {raw!r}"
    )


def _parse_directions(raw: str) -> tuple[tuple[int, int], ...]:
    text = raw.strip()
    if not text:
        return ()
    out: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if "->" not in part:
            raise ParseError(f"[interactions] directions: expected 'src->dst', got {part!r}")
        a, b = part.split("->", 1)
        try:
            out.append((int(a), int(b)))
        except ValueError:
            raise ParseError(
                f"[interactions] directions: expected 'src->dst' integers, got {part!r}"
            ) from None
    return tuple(out)


def parse_config(text: str) -> PyramidConfig:
    """Parse and validate a config document."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        ini.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"malformed config document: {exc}") from None

    branch_sections: dict[int, str] = {}
    for section in ini.sections():
        if section == "pyramid":
            extra = set(ini[section]) - _PYRAMID_KEYS
            if extra:
                raise ParseError(f"unknown key {sorted(extra)[0]!r} in section [pyramid]")
        elif section == "interactions":
            extra = set(ini[section]) - _INTERACTION_KEYS
            if extra:
                raise ParseError(f"unknown key {sorted(extra)[0]!r} in section [interactions]")
        elif section == "merge":
            extra = set(ini[section]) - _MERGE_KEYS
            if extra:
                raise ParseError(f"unknown key {sorted(extra)[0]!r} in section [merge]")
        elif section.startswith("branch."):
            suffix = section[len("branch.") :]
            try:
                idx = int(suffix)
            except ValueError:
                raise ParseError(f"bad branch section name [{section}]") from None
            extra = set(ini[section]) - _BRANCH_KEYS
            if extra:
                raise ParseError(f"unknown key {sorted(extra)[0]!r} in section [{section}]")
            branch_sections[idx] = section
        else:
            raise ParseError(f"unknown section [{section}]")

    if not branch_sections:
        raise ParseError("config has no [branch.N] sections")
    n = len(branch_sections)
    if sorted(branch_sections) != list(range(1, n + 1)):
        raise ParseError(
            f"branch sections must be numbered 1..{n}, got {sorted(branch_sections)}"
        )

    branches: list[BranchSpec] = []
    for i in range(1, n + 1):
        sec = branch_sections[i]
        vals = ini[sec]
        for required in ("depth", "dim", "heads", "patch_size", "resolution"):
            if required not in vals:
                raise ParseError(f"[{sec}] missing required key {required!r}")
        arch_raw = vals.get("arch", "transformer")
        try:
            arch = Arch(arch_raw)
        except ValueError:
            raise ParseError(f"[{sec}] arch: unknown value {arch_raw!r}") from None
        mode, window_tokens = _parse_attention(sec, vals.get("attention_mode", "global"))
        branches.append(
            BranchSpec(
                depth=_get_int(sec, "depth", vals["depth"]),
                dim=_get_int(sec, "dim", vals["dim"]),
                heads=_get_int(sec, "heads", vals["heads"]),
                patch_size=_get_int(sec, "patch_size", vals["patch_size"]),
                resolution=_get_int(sec, "resolution", vals["resolution"]),
                arch=arch,
                mlp_ratio=_get_float(sec, "mlp_ratio", vals.get("mlp_ratio", "4.0")),
                attention_mode=mode,
                window_tokens=window_tokens,
            )
        )

    ivals = ini["interactions"] if ini.has_section("interactions") else {}
    count = _get_int("interactions", "count", ivals.get("count", "0"))
    if "directions" in ivals:
        directions = _parse_directions(ivals["directions"])
    else:
        directions = default_directions(n) if count > 0 else ()
    dh_raw = ivals.get("deform_heads", "auto").strip()
    deform_heads = None if dh_raw == "auto" else _get_int("interactions", "deform_heads", dh_raw)
    impl_raw = ivals.get("attention_impl", "deformable")
    try:
        impl = AttentionImpl(impl_raw)
    except ValueError:
        raise ParseError(f"[interactions] attention_impl: unknown value {impl_raw!r}") from None
    schedule = InteractionSchedule(
        count=count,
        directions=directions,
        deform_heads=deform_heads,
        deform_points=_get_int("interactions", "deform_points", ivals.get("deform_points", "4")),
        ffn_ratio=_get_float("interactions", "ffn_ratio", ivals.get("ffn_ratio", "0.25")),
        deform_ratio=_get_float("interactions", "deform_ratio", ivals.get("deform_ratio", "0.5")),
        attention_impl=impl,
        allow_nonadjacent=_get_bool(
            "interactions", "allow_nonadjacent", ivals.get("allow_nonadjacent", "false")
        ),
    )

    mvals = ini["merge"] if ini.has_section("merge") else {}
    mode_raw = mvals.get("mode", "dense")
    try:
        merge_mode = MergeMode(mode_raw)
    except ValueError:
        raise ParseError(f"[merge] mode: unknown value {mode_raw!r}") from None
    proj_raw = mvals.get("proj", "conv3x3")
    try:
        merge_proj = ProjStyle(proj_raw)
    except ValueError:
        raise ParseError(f"[merge] proj: unknown value {proj_raw!r}") from None

    pvals = ini["pyramid"] if ini.has_section("pyramid") else {}
    cfg = PyramidConfig(
        branches=tuple(branches),
        interactions=schedule,
        merge_mode=merge_mode,
        merge_proj=merge_proj,
        classes=_get_int("merge", "classes", mvals.get("classes", "10")),
        seed=_get_int("pyramid", "seed", pvals.get("seed", "0")),
    )
    return validate(cfg)


def render_config(cfg: PyramidConfig) -> str:
    """Serialize a config to its text form (deterministic key order)."""
    out = io.StringIO()
    out.write("[pyramid]\n")
    out.write(f"seed = {cfg.seed}\n\n")
    for i, b in enumerate(cfg.branches, start=1):
        out.write(f"[branch.{i}]\n")
        out.write(f"arch = {b.arch.value}\n")
        out.write(f"depth = {b.depth}\n")
        out.write(f"dim = {b.dim}\n")
        out.write(f"heads = {b.heads}\n")
        out.write(f"patch_size = {b.patch_size}\n")
        out.write(f"resolution = {b.resolution}\n")
        out.write(f"mlp_ratio = {b.mlp_ratio!r}\n")
        if b.attention_mode is AttentionKind.WINDOWED:
            out.write(f"attention_mode = windowed({b.window_tokens})\n")
        else:
            out.write("attention_mode = global\n")
        out.write("\n")
    sched = cfg.interactions
    out.write("[interactions]\n")
    out.write(f"count = {sched.count}\n")
    out.write(f"directions = {', '.join(f'{s}->{d}' for s, d in sched.directions)}\n")
    out.write(f"deform_heads = {'auto' if sched.deform_heads is None else sched.deform_heads}\n")
    out.write(f"deform_points = {sched.deform_points}\n")
    out.write(f"ffn_ratio = {sched.ffn_ratio!r}\n")
    out.write(f"deform_ratio = {sched.deform_ratio!r}\n")
    out.write(f"attention_impl = {sched.attention_impl.value}\n")
    out.write(f"allow_nonadjacent = {'true' if sched.allow_nonadjacent else 'false'}\n\n")
    out.write("[merge]\n")
    out.write(f"mode = {cfg.merge_mode.value}\n")
    out.write(f"proj = {cfg.merge_proj.value}\n")
    out.write(f"classes = {cfg.classes}\n")
    return out.getvalue()


def load_config(path: str) -> PyramidConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _transformer_branch(
    depth: int,
    dim: int,
    heads: int,
    resolution: int,
    patch_size: int = 16,
    attention_mode: AttentionKind = AttentionKind.GLOBAL,
    window_tokens: int | None = None,
) -> BranchSpec:
    return BranchSpec(
        depth=depth,
        dim=dim,
        heads=heads,
        patch_size=patch_size,
        resolution=resolution,
        attention_mode=attention_mode,
        window_tokens=window_tokens,
    )


def _presets() -> dict[str, PyramidConfig]:
    piip_b = PyramidConfig(
        branches=(
            _transformer_branch(12, 640, 8, 128),
            _transformer_branch(12, 320, 4, 256),
            _transformer_branch(
                12, 160, 2, 512, attention_mode=AttentionKind.WINDOWED, window_tokens=256
            ),
        ),
        interactions=InteractionSchedule(count=12, directions=default_directions(3)),
        merge_mode=MergeMode.DENSE,
        merge_proj=ProjStyle.LINEAR,
        classes=1000,
        seed=0,
    )
    vit_b = PyramidConfig(
        branches=(_transformer_branch(12, 768, 12, 224),),
        interactions=InteractionSchedule(count=0, directions=()),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
        classes=1000,
        seed=0,
    )
    tsb_toy = PyramidConfig(
        branches=(
            _transformer_branch(4, 48, 4, 64),
            _transformer_branch(4, 24, 2, 128),
            _transformer_branch(4, 12, 1, 160),
        ),
        interactions=InteractionSchedule(count=4, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
        classes=10,
        seed=0,
    )
    sbl_toy = PyramidConfig(
        branches=(
            _transformer_branch(4, 64, 4, 64),
            _transformer_branch(4, 48, 3, 128),
            _transformer_branch(4, 24, 2, 192),
        ),
        interactions=InteractionSchedule(count=4, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
        classes=10,
        seed=0,
    )
    tiny = PyramidConfig(
        branches=(
            _transformer_branch(2, 32, 4, 16),
            _transformer_branch(2, 16, 2, 32),
            _transformer_branch(2, 8, 1, 64),
        ),
        interactions=InteractionSchedule(count=2, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
        classes=10,
        seed=0,
    )
    return {
        "piip-b": piip_b,
        "vit-b-baseline": vit_b,
        "piip-tsb-toy": tsb_toy,
        "piip-sbl-toy": sbl_toy,
        "piip-tiny-test": tiny,
    }


PRESET_NAMES = tuple(sorted(_presets()))


def preset(name: str) -> PyramidConfig:
    """Return a named built-in configuration (validated)."""
    table = _presets()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return validate(table[name])
