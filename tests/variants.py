"""Small off-preset configs that reach the paths no preset takes.

Every preset's windows tile its grid, every preset interacts through
deformable attention, and no preset has a convnet branch or a dense
``conv3x3`` merge; these variants of ``piip-tiny-test`` do.
"""

from dataclasses import replace

from piip.config import (
    Arch,
    AttentionImpl,
    AttentionKind,
    BranchSpec,
    MergeMode,
    ProjStyle,
    preset,
)

TINY = preset("piip-tiny-test")
# an 8x8 grid in 3x3 windows: 81 tokens after padding
PADDED_WINDOW = replace(
    TINY,
    branches=TINY.branches[:2]
    + (BranchSpec(2, 8, 1, 8, 64, attention_mode=AttentionKind.WINDOWED, window_tokens=9),),
)
REGULAR_ATTENTION = replace(
    TINY, interactions=replace(TINY.interactions, attention_impl=AttentionImpl.REGULAR)
)
DENSE_LINEAR = replace(TINY, merge_mode=MergeMode.DENSE)
DENSE_CONV3X3 = replace(TINY, merge_mode=MergeMode.DENSE, merge_proj=ProjStyle.CONV3X3)
CONVNET_BRANCH = replace(
    TINY, branches=TINY.branches[:2] + (replace(TINY.branches[2], arch=Arch.CONVNET),)
)
