"""Config parsing, rendering, validation, and schedule helpers."""

import configparser
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from piip import config as cf


MINIMAL = """
[branch.1]
depth = 2
dim = 16
heads = 2
patch_size = 4
resolution = 16

[branch.2]
depth = 2
dim = 8
heads = 1
patch_size = 4
resolution = 32

[interactions]
count = 2

[merge]
mode = classification
classes = 10
"""


def test_parse_minimal():
    cfg = cf.parse_config(MINIMAL)
    assert len(cfg.branches) == 2
    assert cfg.branches[0].dim == 16
    assert cfg.branches[1].resolution == 32
    assert cfg.interactions.count == 2
    # directions default to bidirectional adjacent links
    assert cfg.interactions.directions == ((1, 2), (2, 1))
    assert cfg.merge_mode is cf.MergeMode.CLASSIFICATION


def test_round_trip_is_exact_for_odd_floats():
    cfg = cf.parse_config(MINIMAL)
    branches = (
        cf.BranchSpec(depth=2, dim=16, heads=2, patch_size=4, resolution=16,
                      mlp_ratio=3.3333333333333335),
        cfg.branches[1],
    )
    cfg2 = cf.PyramidConfig(branches=branches, interactions=cfg.interactions,
                            merge_mode=cfg.merge_mode, merge_proj=cfg.merge_proj,
                            classes=cfg.classes, seed=17)
    assert cf.parse_config(cf.render_config(cfg2)) == cfg2


def test_render_is_deterministic():
    cfg = cf.preset("piip-b")
    assert cf.render_config(cfg) == cf.render_config(cf.preset("piip-b"))


def test_unknown_key_is_named():
    with pytest.raises(cf.ParseError, match="frobnicate"):
        cf.parse_config(MINIMAL + "\n[pyramid]\nfrobnicate = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(cf.ParseError, match="extras"):
        cf.parse_config(MINIMAL + "\n[extras]\nx = 1\n")


def test_branch_numbering_must_be_contiguous():
    text = MINIMAL.replace("[branch.2]", "[branch.3]")
    with pytest.raises(cf.ParseError, match="numbered"):
        cf.parse_config(text)


def test_missing_required_branch_key():
    text = MINIMAL.replace("dim = 16\n", "")
    with pytest.raises(cf.ParseError, match="dim"):
        cf.parse_config(text)


def test_resolution_divisibility_message():
    text = MINIMAL.replace("resolution = 32", "resolution = 33")
    with pytest.raises(cf.ValidationError, match="not divisible by patch_size"):
        cf.parse_config(text)


def test_windowed_attention_parses():
    text = MINIMAL.replace(
        "resolution = 32\n", "resolution = 32\nattention_mode = windowed(4)\n"
    )
    cfg = cf.parse_config(text)
    assert cfg.branches[1].attention_mode is cf.AttentionKind.WINDOWED
    assert cfg.branches[1].window_tokens == 4


def test_window_tokens_must_be_square():
    text = MINIMAL.replace(
        "resolution = 32\n", "resolution = 32\nattention_mode = windowed(5)\n"
    )
    with pytest.raises(cf.ValidationError, match="square"):
        cf.parse_config(text)


def test_nonadjacent_direction_rejected_by_default():
    text = MINIMAL + "\n"
    text = text.replace("count = 2", "count = 2\ndirections = 1->2, 2->1")
    cfg = cf.parse_config(text)  # adjacent: fine
    assert cfg.interactions.directions == ((1, 2), (2, 1))

    three = MINIMAL.replace(
        "[interactions]",
        "[branch.3]\ndepth = 2\ndim = 8\nheads = 1\npatch_size = 4\nresolution = 32\n\n[interactions]",
    ).replace("count = 2", "count = 1\ndirections = 1->3")
    with pytest.raises(cf.ValidationError, match="adjacent"):
        cf.parse_config(three)
    ok = three.replace("directions = 1->3", "directions = 1->3\nallow_nonadjacent = true")
    assert cf.parse_config(ok).interactions.allow_nonadjacent


def test_branch_number_given_twice_rejected():
    # [branch.01] used to replace [branch.1] without a word
    text = MINIMAL.replace("[branch.2]", "[branch.01]")
    with pytest.raises(cf.ParseError, match=r"\[branch.01\] repeats \[branch.1\]"):
        cf.parse_config(text)


def test_huge_window_is_a_validation_error():
    # the perfect-square check took a float square root, which overflowed
    window = f"attention_mode = windowed({10**400 + 1})"
    text = MINIMAL.replace("resolution = 32\n", f"resolution = 32\n{window}\n")
    with pytest.raises(cf.ValidationError, match="square"):
        cf.parse_config(text)


@pytest.mark.parametrize("window", [36, 10**400], ids=["36", "10**400"])
def test_window_larger_than_grid_is_a_validation_error(window):
    # windowed(36) on a 4x4 grid attended over 20 zero-padding tokens, and
    # windowed(10**400) validated, then raised a TypeError from np.pad in forward
    cfg = cf.preset("piip-tiny-test")  # branch 3: 64 px in 16 px patches, a 4x4 grid

    def with_window(tokens):
        b3 = replace(cfg.branches[2], attention_mode=cf.AttentionKind.WINDOWED,
                     window_tokens=tokens)
        return replace(cfg, branches=cfg.branches[:2] + (b3,))

    cf.validate(with_window(16))  # a window as large as the grid is fine
    side = math.isqrt(window)
    with pytest.raises(cf.ValidationError,
                       match=f"branch 3: window side {side} exceeds the token grid side 4"):
        cf.validate(with_window(window))


def test_dims_must_not_increase():
    text = MINIMAL.replace("dim = 8", "dim = 24")
    with pytest.raises(cf.ValidationError, match="non-increasing"):
        cf.parse_config(text)


def test_resolutions_must_not_decrease():
    text = MINIMAL.replace("resolution = 32", "resolution = 12")
    with pytest.raises(cf.ValidationError, match="non-decreasing"):
        cf.parse_config(text)


def test_interaction_count_bounded_by_depth():
    text = MINIMAL.replace("count = 2", "count = 3")
    with pytest.raises(cf.ValidationError, match="count"):
        cf.parse_config(text)


def test_interaction_positions_even_spacing():
    assert cf.interaction_positions(12, 12) == tuple(range(1, 13))
    assert cf.interaction_positions(12, 4) == (3, 6, 9, 12)
    assert cf.interaction_positions(12, 3) == (4, 8, 12)
    assert cf.interaction_positions(7, 3) == (2, 4, 7)
    assert cf.interaction_positions(5, 1) == (5,)
    assert cf.interaction_positions(9, 0) == ()


def test_interaction_positions_always_end_at_depth():
    for depth in range(1, 15):
        for count in range(1, depth + 1):
            pos = cf.interaction_positions(depth, count)
            assert len(pos) == count
            assert pos[-1] == depth
            assert all(0 < p <= depth for p in pos)
            assert all(a <= b for a, b in zip(pos, pos[1:]))


def test_deform_heads_rule():
    auto = cf.InteractionSchedule(count=1, directions=((1, 2), (2, 1)))
    assert cf.deform_heads_for(64, auto) == 8
    assert cf.deform_heads_for(640, auto) == 8
    assert cf.deform_heads_for(48, auto) == 6
    assert cf.deform_heads_for(4, auto) == 1
    pinned = cf.InteractionSchedule(count=1, directions=(), deform_heads=2)
    assert cf.deform_heads_for(640, pinned) == 2


def test_deform_value_dim_rounds():
    sched = cf.InteractionSchedule(count=1, directions=(), deform_ratio=0.5)
    assert cf.deform_value_dim(640, sched) == 320
    assert cf.deform_value_dim(13, sched) == 6  # round(6.5) banker's
    full = cf.InteractionSchedule(count=1, directions=(), deform_ratio=1.0)
    assert cf.deform_value_dim(48, full) == 48


def test_ffn_hidden_quarter_width():
    assert cf.ffn_hidden(640, 0.25) == 160
    assert cf.ffn_hidden(10, 0.25) == 2  # round(2.5) banker's
    assert cf.ffn_hidden(8, 0.25) == 2


def test_piip_b_preset_shape():
    cfg = cf.preset("piip-b")
    dims = [b.dim for b in cfg.branches]
    res = [b.resolution for b in cfg.branches]
    assert dims == [640, 320, 160]
    assert res == [128, 256, 512]
    assert cfg.branches[2].attention_mode is cf.AttentionKind.WINDOWED
    assert cfg.branches[2].window_tokens == 256
    assert cfg.interactions.count == 12
    assert cfg.merge_mode is cf.MergeMode.DENSE


def test_unknown_preset():
    with pytest.raises(cf.ConfigError, match="piip-xxl"):
        cf.preset("piip-xxl")


RATIOS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def ratios_for(*dims):
    """Ratios whose width ``ffn_hidden(d, ratio)`` is finite and >= 1 for every d in ``dims``.

    The bounds are the extreme such floats, so the smallest and the largest
    magnitudes a width allows are still drawn.
    """
    lo = 0.5 / min(dims)
    while cf.ffn_hidden(min(dims), lo) < 1:
        lo = math.nextafter(lo, math.inf)
    hi = sys.float_info.max / max(dims)
    while not math.isfinite(hi * max(dims)):
        hi = math.nextafter(hi, 0.0)
    return st.floats(lo, hi)


@st.composite
def valid_configs(draw):
    """Configs ``validate`` accepts, covering every field ``render_config`` writes."""
    n = draw(st.integers(1, 4), label="branches")
    depth = draw(st.integers(1, 6), label="depth")
    dims = sorted(draw(st.lists(st.integers(1, 24), min_size=n, max_size=n)), reverse=True)
    branches = []
    resolution = 1
    for dim in dims:
        patch = draw(st.integers(1, 4))
        least = -(-resolution // patch)  # non-decreasing resolutions, whole patches
        resolution = patch * draw(st.integers(least, least + 4))
        common = dict(depth=depth, dim=dim, patch_size=patch, resolution=resolution,
                      mlp_ratio=draw(ratios_for(dim)))
        heads = draw(st.sampled_from([h for h in range(1, dim + 1) if dim % h == 0]))
        side = st.integers(1, min(4, resolution // patch))  # a window fits in its grid
        window = draw(st.one_of(st.none(), side.map(lambda s: s * s)))
        mode = cf.AttentionKind.GLOBAL if window is None else cf.AttentionKind.WINDOWED
        branches.append(cf.BranchSpec(heads=heads, attention_mode=mode, window_tokens=window,
                                      **common))
    nonadjacent = draw(st.booleans())
    pairs = [(s, d) for s in range(1, n + 1) for d in range(1, n + 1)
             if s != d and (nonadjacent or abs(s - d) == 1)]
    count = draw(st.integers(0, depth))
    directions = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    schedule = cf.InteractionSchedule(
        count=count,
        directions=directions,
        deform_heads=draw(st.one_of(st.none(), st.integers(1, 4))),
        deform_points=draw(st.integers(1, 6)),
        # only the branches a direction updates have an interaction FFN
        ffn_ratio=draw(ratios_for(*(dims[d - 1] for _, d in directions))
                       if count and directions else RATIOS),
        deform_ratio=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
        attention_impl=draw(st.sampled_from(cf.AttentionImpl)),
        allow_nonadjacent=nonadjacent,
    )
    cfg = cf.PyramidConfig(
        branches=tuple(branches),
        interactions=schedule,
        merge_mode=draw(st.sampled_from(cf.MergeMode)),
        merge_proj=draw(st.sampled_from(cf.ProjStyle)),
        classes=draw(st.integers(2, 2000)),
        seed=draw(st.integers(0, 2**63)),
    )
    try:
        cf.validate(cfg)
    except cf.ValidationError:
        # interaction heads that do not divide the attention width
        assume(False)
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(valid_configs())
def test_render_parse_round_trip_property(cfg):
    assert cf.parse_config(cf.render_config(cfg)) == cfg


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "field, anchor",
    [("mlp_ratio", "resolution = 16"), ("ffn_ratio", "count = 2")],
    ids=["mlp_ratio", "ffn_ratio"],
)
def test_non_finite_ratios_rejected(field, anchor, value):
    # a NaN ratio used to pass validation and break the round trip (NaN != NaN)
    text = MINIMAL.replace(anchor, f"{anchor}\n{field} = {value}")
    with pytest.raises(cf.ValidationError, match=f"{field} must be positive and finite"):
        cf.parse_config(text)


# Documents built from rendered presets with keys deleted, added or set to
# arbitrary text: parsing either gives a config that round-trips or raises
# ConfigError, whatever the text.
PRESET_TEXTS = [cf.render_config(cf.preset(name)) for name in cf.PRESET_NAMES]
KEYS = sorted({line.split(" = ")[0] for text in PRESET_TEXTS for line in text.splitlines()
               if " = " in line})
VALUES = st.one_of(
    st.text(max_size=12),
    st.text("0123456789-+.e,>() auto", max_size=12),
    st.sampled_from(["nan", "inf", "windowed(16)", "1->3", "convnet", "regular", "yes", "0"]),
    st.integers(-(10**400), 10**400).map(str),
    st.integers(-(10**400), 10**400).map("windowed({})".format),
)


@st.composite
def mutated_presets(draw):
    lines = draw(st.sampled_from(PRESET_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
        edit = draw(st.sampled_from(["delete", "add", "set"]))
        if edit == "delete":
            del lines[at]
        elif edit == "add":
            key = draw(st.one_of(st.sampled_from(KEYS), st.text(min_size=1, max_size=6)))
            lines.insert(at, f"{key} = {draw(VALUES)}")
        else:
            lines[at] = f"{lines[at].split(' = ')[0]} = {draw(VALUES)}"
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_presets())
def test_mutated_presets_parse_or_raise_config_error(text):
    try:
        cfg = cf.parse_config(text)
    except cf.ConfigError:
        return
    assert cf.parse_config(cf.render_config(cfg)) == cfg


# docs/config-format.md is pinned to the code: its example is a rendered
# preset, each key it documents takes the default it states, and each enum
# row lists exactly its enum's values.
DOC = (Path(__file__).resolve().parents[1] / "docs" / "config-format.md").read_text()
DOC_EXAMPLE = re.search(r"```ini\n(.*?)```", DOC, re.S)[1]


ENUMS = {"arch": cf.Arch, "attention_impl": cf.AttentionImpl, "mode": cf.MergeMode,
         "proj": cf.ProjStyle}


def documented_keys():
    """(section, key, type, default, meaning) cells for each row of the doc's key tables."""
    rows, section = [], None
    for line in DOC.splitlines():
        if m := re.fullmatch(r"### `\[(.+)\]`", line):
            section = m[1].replace(".N", ".1")
        elif section and (m := re.fullmatch(r"\| `(\w+)` +" + r"\| (.+?) +" * 3 + r"\|", line)):
            rows.append((section, *m.groups()))
    return rows


def set_key(text, section, key, value=None):
    """``text`` with ``key`` of ``[section]`` set to ``value``, or left out if it is None."""
    out, current = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            current = line.strip()[1:-1]
        elif current == section and line.startswith(f"{key} = "):
            if value is None:
                continue
            line = f"{key} = {value}\n"
        out.append(line)
    return "".join(out)


def test_doc_example_is_rendered_tiny_preset():
    assert DOC_EXAMPLE == cf.render_config(cf.preset("piip-tiny-test"))
    ini = configparser.ConfigParser()
    ini.read_string(DOC_EXAMPLE)
    first_branch = [s for s in ini.sections() if not s.startswith("branch.") or s == "branch.1"]
    in_example = {(s, k) for s in first_branch for k in ini[s]}
    assert {(s, k) for s, k, *_ in documented_keys()} == in_example


@pytest.mark.parametrize(
    "section, key, kind, default, meaning", documented_keys(),
    ids=[f"{s}.{k}" for s, k, *_ in documented_keys()],
)
def test_documented_default(section, key, kind, default, meaning):
    if kind == "enum":
        assert set(re.findall(r"`(\w+)`", meaning)) == {m.value for m in ENUMS[key]}
    omitted = set_key(DOC_EXAMPLE, section, key)
    assert omitted != DOC_EXAMPLE
    if default == "required":
        with pytest.raises(cf.ParseError, match=f"{section}.*{key}"):
            cf.parse_config(omitted)
    elif key == "directions":  # adjacent pairs both ways when there are interaction points
        assert cf.parse_config(omitted).interactions.directions == cf.default_directions(3)
        no_points = set_key(omitted, "interactions", "count", "0")
        assert cf.parse_config(no_points).interactions.directions == ()
    else:
        stated = set_key(DOC_EXAMPLE, section, key, re.fullmatch(r"`([^`]+)`", default)[1])
        assert cf.parse_config(omitted) == cf.parse_config(stated)


TINY = cf.preset("piip-tiny-test")


def with_branch(index: int, **changes) -> cf.PyramidConfig:
    """``piip-tiny-test`` with fields of branch ``index`` (1-based) changed."""
    branches = list(TINY.branches)
    branches[index - 1] = replace(branches[index - 1], **changes)
    return replace(TINY, branches=tuple(branches))


def with_schedule(**changes) -> cf.PyramidConfig:
    return replace(TINY, interactions=replace(TINY.interactions, **changes))


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: cf.validate(replace(TINY, branches=())), cf.ValidationError,
         "config needs at least one branch"),
        (lambda: cf.validate(replace(TINY, branches=tuple(replace(b, depth=0) for b in
                                                          TINY.branches))),
         cf.ValidationError, "branch 1: depth must be >= 1, got 0"),
        (lambda: cf.validate(with_branch(2, depth=3)), cf.ValidationError,
         "branch 2: all branches must share one depth (3 != 2)"),
        (lambda: cf.validate(with_branch(1, patch_size=0)), cf.ValidationError,
         "branch 1: patch_size must be >= 1, got 0"),
        (lambda: cf.validate(with_branch(1, resolution=0)), cf.ValidationError,
         "branch 1: resolution 0 smaller than one patch (16)"),
        (lambda: cf.validate(with_branch(3, attention_mode=cf.AttentionKind.WINDOWED)),
         cf.ValidationError, "branch 3: windowed attention needs window_tokens"),
        (lambda: cf.validate(with_branch(3, window_tokens=4)), cf.ValidationError,
         "branch 3: window_tokens set but attention is global"),
        (lambda: cf.validate(with_schedule(deform_points=0)), cf.ValidationError,
         "interactions: deform_points must be >= 1"),
        (lambda: cf.validate(with_schedule(deform_ratio=1.5)), cf.ValidationError,
         "interactions: deform_ratio must be in (0, 1]"),
        (lambda: cf.validate(with_schedule(directions=((1, 4),))), cf.ValidationError,
         "interactions: direction 1->4 out of range"),
        (lambda: cf.validate(with_schedule(directions=((2, 2),))), cf.ValidationError,
         "interactions: direction 2->2 links a branch to itself"),
        (lambda: cf.validate(with_schedule(directions=((1, 2), (1, 2)))), cf.ValidationError,
         "interactions: duplicate direction"),
        (lambda: cf.validate(replace(TINY, classes=1)), cf.ValidationError,
         "merge: classes must be >= 2, got 1"),
        (lambda: cf.validate(replace(TINY, seed=-1)), cf.ValidationError,
         "seed must be non-negative, got -1"),
        (lambda: cf.parse_config(MINIMAL.replace("[branch.2]", "[branch.x]")), cf.ParseError,
         "bad branch section name [branch.x]"),
        (lambda: cf.parse_config(MINIMAL.replace("[branch.1]\n", "[branch.1]\narch = convnet\n")),
         cf.ParseError, "[branch.1] arch: expected 'transformer', got 'convnet'"),
        (lambda: cf.validate(with_branch(1, mlp_ratio=0.01)), cf.ValidationError,
         "branch 1: MLP hidden width 0.01 * 32 = 0.32 must round to a finite width >= 1"),
        (lambda: cf.validate(with_branch(3, mlp_ratio=0.0625)), cf.ValidationError,
         "branch 3: MLP hidden width 0.0625 * 8 = 0.5 must round to a finite width >= 1"),
        (lambda: cf.validate(with_branch(1, mlp_ratio=1e308)), cf.ValidationError,
         "branch 1: MLP hidden width 1e+308 * 32 = inf must round to a finite width >= 1"),
        (lambda: cf.validate(with_schedule(ffn_ratio=0.05)), cf.ValidationError,
         "interactions: branch 3 FFN hidden width 0.05 * 8 = 0.4 must round to a finite "
         "width >= 1"),
    ],
    ids=[
        "no-branches", "depth-0", "unequal-depths", "patch-0", "resolution-below-patch",
        "windowed-without-tokens", "tokens-with-global", "deform-points-0",
        "deform-ratio-above-1", "direction-out-of-range", "direction-to-itself",
        "duplicate-direction", "one-class", "negative-seed", "branch-section-name", "arch-convnet",
        "mlp-width-0", "mlp-width-half", "mlp-width-inf", "ffn-width-0",
    ],
)
def test_config_checks_raise_their_messages(check, error, message):
    with pytest.raises(error, match=re.escape(message)):
        check()


def test_hidden_width_of_one_validates_and_unbuilt_widths_are_not_checked():
    cf.validate(with_branch(3, mlp_ratio=0.125))  # 0.125 * 8 = 1
    # no interaction FFN exists at count 0
    cf.validate(with_schedule(count=0, ffn_ratio=0.05))
