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
import math
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum


class ConfigError(ValueError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """The config document is malformed (unknown key, bad literal, ...)."""


class ValidationError(ConfigError):
    """The config parses but violates a structural invariant."""


class Arch(str, Enum):
    TRANSFORMER = "transformer"


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
    def tokens(self) -> int:
        g = self.resolution // self.patch_size
        return g * g


@dataclass(frozen=True)
class InteractionSchedule:
    """How many interaction points there are and which branches talk."""

    count: int = 0
    # ordered (src, dst), 1-based; parse_config links adjacent branches both
    # ways when the document gives a count but no directions
    directions: tuple[tuple[int, int], ...] = ()
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


def window_side(window_tokens: int) -> int:
    """Side of a square attention window of ``window_tokens`` tokens, in exact integers."""
    return math.isqrt(window_tokens)


def ffn_hidden(dim: int, ratio: float) -> int:
    return int(round(ratio * dim))


def _check_hidden_width(where: str, dim: int, ratio: float) -> None:
    """Raise unless ``ffn_hidden(dim, ratio)`` is a finite width of at least 1."""
    width = ratio * dim
    if not math.isfinite(width) or ffn_hidden(dim, ratio) < 1:
        raise ValidationError(
            f"{where} hidden width {ratio:g} * {dim} = {width:g} must round to a finite "
            "width >= 1"
        )


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
        if b.heads < 1 or b.dim % b.heads != 0:
            raise ValidationError(f"{where}: dim {b.dim} not divisible by heads {b.heads}")
        _check_hidden_width(f"{where}: MLP", b.dim, b.mlp_ratio)
        if b.attention_mode is AttentionKind.WINDOWED:
            wt = b.window_tokens
            if wt is None or wt < 1:
                raise ValidationError(f"{where}: windowed attention needs window_tokens")
            side, grid = window_side(wt), b.resolution // b.patch_size
            if side**2 != wt:
                raise ValidationError(f"{where}: window_tokens {wt} must be a perfect square")
            if side > grid:
                raise ValidationError(
                    f"{where}: window side {side} exceeds the token grid side {grid}"
                )
        elif b.window_tokens is not None:
            raise ValidationError(f"{where}: window_tokens set but attention is global")
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
            _check_hidden_width(f"interactions: branch {dst} FFN", dim, sched.ffn_ratio)
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


@dataclass(frozen=True)
class _Key:
    """One INI key: the literal it holds and the dataclass field(s) it sets."""

    kind: str  # what the literal should be, for the error on a bad one
    parse: object  # callable: text -> value; raises ValueError on a bad literal
    render: object = str  # callable: field value(s) -> text
    fields: tuple[str, ...] = ()  # default: the one field named like the key


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in _BOOLEANS:
        raise ValueError(raw)
    return _BOOLEANS[low]


def _attention(raw: str) -> tuple[AttentionKind, int | None]:
    text = raw.strip()
    if text == "global":
        return AttentionKind.GLOBAL, None
    if text.startswith("windowed(") and text.endswith(")"):
        return AttentionKind.WINDOWED, int(text[len("windowed(") : -1])
    raise ValueError(raw)


def _directions(raw: str) -> tuple[tuple[int, int], ...]:
    if not raw.strip():
        return ()
    # a part without "->" fails to unpack, which raises ValueError like a bad integer
    return tuple((int(src), int(dst)) for src, dst in (p.split("->", 1) for p in raw.split(",")))


def _enum(cls: type[Enum], *names: str) -> _Key:
    return _Key(" or ".join(repr(m.value) for m in cls), cls, lambda member: member.value, names)


_INT = _Key("an integer", int)
_FLOAT = _Key("a number", float, repr)

# One table per section, INI key -> _Key, in rendered order. A key that is
# absent from a document leaves its field at the dataclass default.
_BRANCH_KEYS = {
    "arch": _enum(Arch),
    "depth": _INT,
    "dim": _INT,
    "heads": _INT,
    "patch_size": _INT,
    "resolution": _INT,
    "mlp_ratio": _FLOAT,
    "attention_mode": _Key(
        "'global' or 'windowed(T)'",
        _attention,
        lambda mode, tokens: f"windowed({tokens})" if mode is AttentionKind.WINDOWED else "global",
        ("attention_mode", "window_tokens"),
    ),
}
_INTERACTION_KEYS = {
    "count": _INT,
    "directions": _Key(
        "comma-separated 'src->dst' integer pairs",
        _directions,
        lambda pairs: ", ".join(f"{src}->{dst}" for src, dst in pairs),
    ),
    "deform_heads": _Key(
        "an integer or 'auto'",
        lambda raw: None if raw.strip() == "auto" else int(raw),
        lambda heads: "auto" if heads is None else str(heads),
    ),
    "deform_points": _INT,
    "ffn_ratio": _FLOAT,
    "deform_ratio": _FLOAT,
    "attention_impl": _enum(AttentionImpl),
    "allow_nonadjacent": _Key("true/false", _boolean, lambda flag: "true" if flag else "false"),
}
_MERGE_KEYS = {
    "mode": _enum(MergeMode, "merge_mode"),
    "proj": _enum(ProjStyle, "merge_proj"),
    "classes": _INT,
}
_PYRAMID_KEYS = {"seed": _INT}
_REQUIRED_BRANCH_KEYS = tuple(f.name for f in fields(BranchSpec) if f.default is MISSING)


def _read_section(
    ini: configparser.ConfigParser, section: str, keys: dict[str, _Key]
) -> dict[str, object]:
    """The dataclass fields set by the keys of one section (none if it is absent)."""
    out = {}
    for key, raw in (ini[section] if ini.has_section(section) else {}).items():
        if key not in keys:
            raise ParseError(f"unknown key {key!r} in section [{section}]")
        codec = keys[key]
        try:
            value = codec.parse(raw)
        except ValueError:
            raise ParseError(f"[{section}] {key}: expected {codec.kind}, got {raw!r}") from None
        names = codec.fields or (key,)
        out.update(zip(names, value if len(names) > 1 else (value,)))
    return out


def _render_section(section: str, keys: dict[str, _Key], obj: object) -> str:
    lines = [f"[{section}]"]
    for key, codec in keys.items():
        values = (getattr(obj, name) for name in codec.fields or (key,))
        lines.append(f"{key} = {codec.render(*values)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PyramidConfig:
    """Parse and validate a config document."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        ini.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"malformed config document: {exc}") from None

    branch_sections: dict[int, str] = {}
    for section in ini.sections():
        if section.startswith("branch."):
            try:
                idx = int(section[len("branch.") :])
            except ValueError:
                raise ParseError(f"bad branch section name [{section}]") from None
            if idx in branch_sections:
                raise ParseError(f"[{section}] repeats [{branch_sections[idx]}]")
            branch_sections[idx] = section
        elif section not in ("pyramid", "interactions", "merge"):
            raise ParseError(f"unknown section [{section}]")
    if not branch_sections:
        raise ParseError("config has no [branch.N] sections")
    n = len(branch_sections)
    if sorted(branch_sections) != list(range(1, n + 1)):
        raise ParseError(
            f"branch sections must be numbered 1..{n}, got {sorted(branch_sections)}"
        )

    branches = []
    for i in range(1, n + 1):
        sec = branch_sections[i]
        spec = _read_section(ini, sec, _BRANCH_KEYS)
        for required in _REQUIRED_BRANCH_KEYS:
            if required not in spec:
                raise ParseError(f"[{sec}] missing required key {required!r}")
        branches.append(BranchSpec(**spec))

    given = _read_section(ini, "interactions", _INTERACTION_KEYS)
    schedule = InteractionSchedule(**given)
    if "directions" not in given and schedule.count > 0:  # interaction points need links
        schedule = replace(schedule, directions=default_directions(n))
    cfg = PyramidConfig(
        branches=tuple(branches),
        interactions=schedule,
        **_read_section(ini, "merge", _MERGE_KEYS),
        **_read_section(ini, "pyramid", _PYRAMID_KEYS),
    )
    return validate(cfg)


def render_config(cfg: PyramidConfig) -> str:
    """Serialize a config to its text form (deterministic key order)."""
    sections = [_render_section("pyramid", _PYRAMID_KEYS, cfg)]
    for i, b in enumerate(cfg.branches, start=1):
        sections.append(_render_section(f"branch.{i}", _BRANCH_KEYS, b))
    sections.append(_render_section("interactions", _INTERACTION_KEYS, cfg.interactions))
    sections.append(_render_section("merge", _MERGE_KEYS, cfg))
    return "\n".join(sections)


def load_config(path: str) -> PyramidConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _presets() -> dict[str, PyramidConfig]:
    piip_b = PyramidConfig(
        branches=(
            BranchSpec(12, 640, 8, 16, 128),
            BranchSpec(12, 320, 4, 16, 256),
            BranchSpec(
                12, 160, 2, 16, 512, attention_mode=AttentionKind.WINDOWED, window_tokens=256
            ),
        ),
        interactions=InteractionSchedule(count=12, directions=default_directions(3)),
        merge_proj=ProjStyle.LINEAR,
        classes=1000,
    )
    vit_b = PyramidConfig(
        branches=(BranchSpec(12, 768, 12, 16, 224),),
        interactions=InteractionSchedule(),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
        classes=1000,
    )
    tsb_toy = PyramidConfig(
        branches=(
            BranchSpec(4, 48, 4, 16, 64),
            BranchSpec(4, 24, 2, 16, 128),
            BranchSpec(4, 12, 1, 16, 160),
        ),
        interactions=InteractionSchedule(count=4, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
    )
    sbl_toy = PyramidConfig(
        branches=(
            BranchSpec(4, 64, 4, 16, 64),
            BranchSpec(4, 48, 3, 16, 128),
            BranchSpec(4, 24, 2, 16, 192),
        ),
        interactions=InteractionSchedule(count=4, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
    )
    tiny = PyramidConfig(
        branches=(
            BranchSpec(2, 32, 4, 16, 16),
            BranchSpec(2, 16, 2, 16, 32),
            BranchSpec(2, 8, 1, 16, 64),
        ),
        interactions=InteractionSchedule(count=2, directions=default_directions(3)),
        merge_mode=MergeMode.CLASSIFICATION,
        merge_proj=ProjStyle.LINEAR,
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
