"""Cost model against hand-computed ledgers and frozen operating points.

The published windows for piip-b and ViT-B are acceptance criteria 1 and 2.

The piip-tiny-test constants below were worked out by hand (spreadsheet
style) before the analytic counter existed, so they are an independent
oracle. Branch arithmetic, dims 32/16/8, patch 16, depth 2, MLP ratio 4:

  branch1 (grid 1x1, d=32):
    embed 16*16*3*32+32 = 24_608, pos 1*32 = 32
    block: ln1 64 + qkv 32*96+96=3_168 + proj 32*32+32=1_056 + ln2 64
           + mlp1 32*128+128=4_224 + mlp2 128*32+32=4_128  -> 12_704
    total 24_608 + 32 + 2*12_704 = 50_048
  branch2 (grid 2x2, d=16):
    embed 12_304, pos 64
    block: 32 + 816 + 272 + 32 + 1_088 + 1_040 = 3_280 -> total 18_928
  branch3 (grid 4x4, d=8):
    embed 6_152, pos 128
    block: 16 + 216 + 72 + 16 + 288 + 264 = 872 -> total 8_024

  interaction directions (K=4, value/out at half width, FFN at quarter width,
  deform heads = max(1, d // 8)); per destination d_dst with source d_src:
    to1 (d=32, src 16, M=4): fc 544 + norms 192 + val 528 + out 544
        + off 1_056 + wt 528 + gates 64 + ffn 552            = 4_008
    to2 from 1 (d=16, src 32, M=2): 528+96+136+144+272+136+32+148 = 1_492
    to2 from 3 (d=16, src 8):       144+96+136+144+272+136+32+148 = 1_108
    to3 (d=8, src 16, M=1):         136+48+36+40+72+36+16+42      =   426
    per point 7_034, two points -> 14_068

  classification heads: (2d + 10d + 10) per branch = 394 + 202 + 106 = 702

  MAC counts (matmuls and convs only):
    branch1: embed 1*768*32 = 24_576;
      block qkv 3_072 + scores 32 + attnV 32 + proj 1_024 + mlp 8_192
      -> 49_280
    branch2: embed 49_152; block 12_800 -> 74_752
    branch3: embed 98_304; block 16_384 -> 131_072
"""

import dataclasses

import pytest

from piip.config import AttentionKind, preset, validate
from piip.costmodel import cost_report
from piip.model import PiipModel

TINY = preset("piip-tiny-test")
PIIP_B = preset("piip-b")
VIT_B = preset("vit-b-baseline")


def entry(report, name):
    return report.entry(name)


def test_tiny_params_match_hand_ledger():
    report = cost_report(TINY)
    assert entry(report, "branch1").params == 50_048
    assert entry(report, "branch2").params == 18_928
    assert entry(report, "branch3").params == 8_024
    assert entry(report, "interactions").params == 14_068
    assert entry(report, "merging").params == 702
    assert report.total_params == 91_770
    with pytest.raises(KeyError, match="no cost entry named 'branch4'"):
        report.entry("branch4")


def test_tiny_flops_match_hand_ledger():
    report = cost_report(TINY)
    assert entry(report, "branch1").flops == 49_280
    assert entry(report, "branch2").flops == 74_752
    assert entry(report, "branch3").flops == 131_072
    assert entry(report, "interactions").flops == 48_640
    assert entry(report, "merging").flops == 560
    assert report.total_flops == 304_304


def test_piip_b_operating_point():
    report = cost_report(PIIP_B)
    # hand-derived once, frozen; a change here is a cost-model regression
    assert entry(report, "branch1").params == 59_615_360
    assert entry(report, "branch2").params == 15_123_520
    assert entry(report, "branch3").params == 3_998_240
    assert entry(report, "interactions").params == 19_530_528
    assert entry(report, "merging").params == 311_043
    assert entry(report, "branch1").flops == 3_869_245_440
    assert entry(report, "branch2").flops == 4_341_104_640
    assert entry(report, "branch3").flops == 4_907_335_680
    assert entry(report, "interactions").flops == 4_663_541_760
    assert entry(report, "merging").flops == 164_495_360
    assert report.total_params == 98_578_691
    assert report.total_flops == 17_945_722_880


def test_vit_b_baseline():
    report = cost_report(VIT_B)
    assert report.total_params == 86_566_120
    assert report.total_flops == 17_471_649_792


@pytest.mark.parametrize("which", [0, 1, 2])
def test_flops_monotone_in_resolution(which):
    # growing any one branch's input (others fixed) must cost more MACs
    base = TINY
    prev = cost_report(base).total_flops
    for bump in (1, 2, 3):
        branches = list(base.branches)
        b = branches[which]
        branches[which] = dataclasses.replace(b, resolution=b.resolution + 16 * bump)
        grown = dataclasses.replace(base, branches=tuple(branches))
        try:
            cur = cost_report(grown).total_flops
        except Exception:
            continue  # bump broke the resolution ordering constraint
        assert cur > prev
        prev = cur


def test_windowed_cheaper_than_global():
    b3 = PIIP_B.branches[2]
    assert b3.attention_mode is AttentionKind.WINDOWED
    global_b3 = dataclasses.replace(
        b3, attention_mode=AttentionKind.GLOBAL, window_tokens=None
    )
    cfg_global = dataclasses.replace(
        PIIP_B, branches=(PIIP_B.branches[0], PIIP_B.branches[1], global_b3)
    )
    windowed = cost_report(PIIP_B)
    glob = cost_report(cfg_global)
    assert entry(windowed, "branch3").flops < entry(glob, "branch3").flops
    assert entry(windowed, "branch3").params == entry(glob, "branch3").params


def test_window_covering_all_tokens_equals_global():
    # 64/16 -> 4x4 grid, 16 tokens; a 16-token window is global attention
    branch = dataclasses.replace(
        TINY.branches[2],
        attention_mode=AttentionKind.WINDOWED,
        window_tokens=16,
    )
    windowed_cfg = dataclasses.replace(
        TINY, branches=(TINY.branches[0], TINY.branches[1], branch)
    )
    assert (
        cost_report(windowed_cfg).entry("branch3").flops
        == cost_report(TINY).entry("branch3").flops
    )


def test_huge_square_window_prices_in_exact_integers():
    # validate took an integer root of window_tokens, but the cost model and
    # the branch took a float one, which overflowed past 1e308
    wt = 10**400
    # a window may not exceed its grid, so the grid is 10**200 tokens on a side
    glob = dataclasses.replace(TINY.branches[2], resolution=16 * 10**200)
    branch = dataclasses.replace(glob, attention_mode=AttentionKind.WINDOWED, window_tokens=wt)
    cfg = validate(dataclasses.replace(TINY, branches=TINY.branches[:2] + (branch,)))
    # one window covering the whole grid costs exactly what global attention does
    want = cost_report(dataclasses.replace(TINY, branches=TINY.branches[:2] + (glob,)))
    assert cost_report(cfg).entry("branch3").flops == want.entry("branch3").flops
    assert PiipModel(cfg, materialize=False).branches[2].blocks[0].window_side == 10**200


def test_render_and_dict_agree():
    report = cost_report(TINY)
    text = report.render()
    assert text.endswith("\n")
    assert "91,770" in text
    assert "304,304" in text
    d = report.as_dict()
    assert d["total_params"] == 91_770
    assert d["total_flops"] == 304_304
    assert [e["name"] for e in d["entries"]] == [e.name for e in report.entries]


def test_report_runtime_is_trivial():
    import time

    t0 = time.perf_counter()
    cost_report(PIIP_B)
    cost_report(VIT_B)
    assert time.perf_counter() - t0 < 1.0
