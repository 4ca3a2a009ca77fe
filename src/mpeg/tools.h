/**
 * @file
 * The MPEG-2 and MPEG-4 ASP tool sets as compile-time traits, plus the
 * syntax constants and macroblock reconstruction that the one MPEG-class
 * encoder and decoder share.
 *
 * The paper (Table II) sets the two generations apart by tool set
 * only. Each trait field names a coding tool, never a codec;
 * MpegEncoder<Tools> and MpegDecoder<Tools> read the fields as
 * constants or in `if constexpr`, so a tool choice costs no per-MB
 * dispatch:
 *
 * | field               | Mpeg2Tools          | Mpeg4Tools              |
 * |---------------------|---------------------|-------------------------|
 * | kMvShift            | 1 (half-sample)     | 2 (quarter-sample)      |
 * | Filter              | bilinear half-pel   | 6-tap luma, qpel chroma |
 * | kFourMv             | no; 1-bit P mode    | 8x8 vectors; ue P mode  |
 * | kMedianPred         | left neighbour      | median (left if resil.) |
 * | kHeaderToolFlags    | no                  | qpel and 4MV flag bits  |
 * | kBSpatialCandidates | neighbours seed B   | collocated only in B    |
 * | kQuantShift         | 4 (step W*q/16)     | 3 (step W*q/8)          |
 * | kInterDeadZone      | 8/64 of a step      | 10/64 of a step         |
 * | kIntraRl, kInterRl  | MPEG-2 tables       | MPEG-4 tables           |
 *
 * Encoder and decoder build predictions and reconstructions with
 * exactly the helpers below, which is what keeps the encoder's
 * closed-loop reconstruction and the decoder output bit-identical.
 */
#ifndef HDVB_MPEG_TOOLS_H
#define HDVB_MPEG_TOOLS_H

#include <cstring>
#include <vector>

#include "codec/run_level.h"
#include "common/types.h"
#include "dsp/quant.h"
#include "mc/mc.h"
#include "simd/dispatch.h"
#include "video/frame.h"

namespace hdvb {
namespace mpeg {

// ---- bitstream syntax constants (shared by encoder and decoder) ----

/** P-picture macroblock modes: ue-coded with 4MV; without it one bit
 * codes inter (0) or intra (1) and kPInter4v cannot occur. */
enum PMbType { kPInter16 = 0, kPInter4v = 1, kPIntra = 2 };

/** B-picture macroblock modes (ue-coded; bi-prediction cheapest). */
enum BMbType { kBBi = 0, kBFwd = 1, kBBwd = 2, kBIntra = 3 };

/** Intra DC: predictor reset value (mid-grey level / DC step). */
inline constexpr int kDcPredReset = 128;
/** Intra DC quantiser step (full-precision coefficient units). */
inline constexpr int kDcStep = 8;

// ---- interpolation filters ----

/** Half-sample bilinear luma and chroma (vectors in half samples). */
struct BilinearHalfpel {
    static constexpr auto luma = &mc_halfpel;
    static constexpr auto chroma = &mc_halfpel;
    static constexpr auto chroma_mv = &chroma_mv_from_halfpel;
};

/** FIR-filtered quarter-sample luma, bilinear quarter-sample chroma
 * (vectors in quarter samples). */
struct SixTapQpel {
    static constexpr auto luma = &mc_qpel_tap;
    static constexpr auto chroma = &mc_qpel_bilin;
    static constexpr auto chroma_mv = &chroma_mv_from_qpel;
};

// ---- tool sets ----

struct Mpeg2Tools {
    static constexpr const char *kName = "mpeg2";
    static constexpr int kMvShift = 1;
    using Filter = BilinearHalfpel;
    static constexpr bool kFourMv = false;
    static constexpr bool kMedianPred = false;
    static constexpr bool kHeaderToolFlags = false;
    static constexpr bool kBSpatialCandidates = true;
    /** The MPEG-2-era inter quantiser truncates (narrow dead-zone
     * offset), one of the RD gaps to the later codecs. */
    static constexpr int kQuantShift = 4;
    static constexpr int kInterDeadZone = 8;
    static constexpr RunLevelProfile kIntraRl = RunLevelProfile::kMpeg2Intra;
    static constexpr RunLevelProfile kInterRl = RunLevelProfile::kMpeg2Inter;
};

struct Mpeg4Tools {
    static constexpr const char *kName = "mpeg4";
    static constexpr int kMvShift = 2;
    using Filter = SixTapQpel;
    static constexpr bool kFourMv = true;
    static constexpr bool kMedianPred = true;
    static constexpr bool kHeaderToolFlags = true;
    static constexpr bool kBSpatialCandidates = false;
    static constexpr int kQuantShift = 3;
    static constexpr int kInterDeadZone = 10;
    static constexpr RunLevelProfile kIntraRl = RunLevelProfile::kMpeg4Intra;
    static constexpr RunLevelProfile kInterRl = RunLevelProfile::kMpeg4Inter;
};

template <typename Tools>
MpegQuantizer
intra_quantizer(int qscale)
{
    return MpegQuantizer(kMpegIntraMatrix, qscale, 32, Tools::kQuantShift);
}

template <typename Tools>
MpegQuantizer
inter_quantizer(int qscale)
{
    return MpegQuantizer(kMpegInterMatrix, qscale, Tools::kInterDeadZone,
                         Tools::kQuantShift);
}

// ---- motion vectors ----

/** A sub-sample vector rounded down to full samples. */
template <typename Tools>
MotionVector
full_pel(MotionVector mv)
{
    return {static_cast<s16>(mv.x >> Tools::kMvShift),
            static_cast<s16>(mv.y >> Tools::kMvShift)};
}

/**
 * P-picture MV predictor from the grid of the current picture's
 * decoded vectors: the left neighbour, or with kMedianPred the median
 * of left, top and top-right. Resilient rows must parse standalone, so
 * they predict from the left only and a concealed row cannot skew the
 * vectors of the rows below it.
 */
template <typename Tools>
MotionVector
p_mv_pred(const std::vector<MotionVector> &grid, int mb_w, int mbx,
          int mby, bool resilient)
{
    const MotionVector zero{};
    const MotionVector a = mbx > 0 ? grid[mby * mb_w + mbx - 1] : zero;
    if (!Tools::kMedianPred || mby == 0 || resilient)
        return a;
    const MotionVector b = grid[(mby - 1) * mb_w + mbx];
    const MotionVector c =
        mbx + 1 < mb_w ? grid[(mby - 1) * mb_w + mbx + 1] : zero;
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

/** Average of four quarter-sample MVs then halved for chroma, with
 * symmetric rounding. */
inline MotionVector
chroma_mv_from_4mv(const MotionVector mv[4])
{
    const int sx = mv[0].x + mv[1].x + mv[2].x + mv[3].x;
    const int sy = mv[0].y + mv[1].y + mv[2].y + mv[3].y;
    return {static_cast<s16>(div_round(sx, 8)),
            static_cast<s16>(div_round(sy, 8))};
}

// ---- macroblock prediction and reconstruction ----

/** Per-macroblock prediction (luma 16x16, chroma 8x8 each). */
struct PredBuffers {
    Pixel luma[16 * 16];
    Pixel cb[8 * 8];
    Pixel cr[8 * 8];
};

/** Block b of a macroblock: 0..3 the luma quadrants, 4 Cb, 5 Cr. */
struct BlockPos {
    int comp;  ///< plane index
    int x;     ///< position in the plane
    int y;
    int pred_offset;  ///< offset into the matching PredBuffers array
    int pred_stride;
};

inline BlockPos
block_pos(int b, int mbx, int mby)
{
    if (b < 4) {
        return {0, mbx * 16 + (b & 1) * 8, mby * 16 + (b >> 1) * 8,
                (b >> 1) * 8 * 16 + (b & 1) * 8, 16};
    }
    return {b - 3, mbx * 8, mby * 8, 0, 8};
}

inline const Pixel *
pred_block(const PredBuffers &pred, int b)
{
    const BlockPos pos = block_pos(b, 0, 0);
    const Pixel *base = b < 4 ? pred.luma : (b == 4 ? pred.cb : pred.cr);
    return base + pos.pred_offset;
}

/**
 * Motion-compensated prediction of MB (mbx, mby): forward from
 * @p fwd_ref (four 8x8 luma vectors when @p four, else fwd[0] only),
 * averaged with a backward prediction by @p bwd when @p bwd_ref is set.
 */
template <typename Tools>
void
predict_mb(const Dsp &dsp, const Frame &fwd_ref, const Frame *bwd_ref,
           const MotionVector *fwd, bool four, MotionVector bwd, int mbx,
           int mby, PredBuffers *pred)
{
    using Filter = typename Tools::Filter;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    const int cx = mbx * 8;
    const int cy = mby * 8;
    if (four) {
        for (int b = 0; b < 4; ++b) {
            const BlockPos pos = block_pos(b, mbx, mby);
            Filter::luma(fwd_ref.luma(), pos.x, pos.y, fwd[b],
                         pred->luma + pos.pred_offset, 16, 8, 8, dsp);
        }
    } else {
        Filter::luma(fwd_ref.luma(), lx, ly, fwd[0], pred->luma, 16, 16,
                     16, dsp);
    }
    const MotionVector cmv =
        four ? chroma_mv_from_4mv(fwd) : Filter::chroma_mv(fwd[0]);
    Filter::chroma(fwd_ref.cb(), cx, cy, cmv, pred->cb, 8, 8, 8, dsp);
    Filter::chroma(fwd_ref.cr(), cx, cy, cmv, pred->cr, 8, 8, 8, dsp);
    if (bwd_ref != nullptr) {
        PredBuffers back;
        Filter::luma(bwd_ref->luma(), lx, ly, bwd, back.luma, 16, 16, 16,
                     dsp);
        const MotionVector bc = Filter::chroma_mv(bwd);
        Filter::chroma(bwd_ref->cb(), cx, cy, bc, back.cb, 8, 8, 8, dsp);
        Filter::chroma(bwd_ref->cr(), cx, cy, bc, back.cr, 8, 8, 8, dsp);
        dsp.avg_rect(pred->luma, 16, pred->luma, 16, back.luma, 16, 16,
                     16);
        dsp.avg_rect(pred->cb, 8, pred->cb, 8, back.cb, 8, 8, 8);
        dsp.avg_rect(pred->cr, 8, pred->cr, 8, back.cr, 8, 8, 8);
    }
}

/**
 * Reconstruct one 8x8 block from quantised levels and add it to @p dst
 * (which holds the prediction, or zeros for intra blocks).
 *
 * @param dc_coeff for intra blocks, the reconstructed DC transform
 *        coefficient (dc_level * kDcStep); pass a negative value for
 *        inter blocks, whose DC went through the regular quantiser.
 */
inline void
recon_block(const Coeff levels[64], const MpegQuantizer &quant,
            s32 dc_coeff, Pixel *dst, int ds, const Dsp &dsp)
{
    Coeff tmp[64];
    std::memcpy(tmp, levels, sizeof(tmp));
    quant.dequantize(tmp);
    if (dc_coeff >= 0)
        tmp[0] = static_cast<Coeff>(clamp<s32>(dc_coeff, 0, 2040));
    dsp.idct8x8(tmp);
    dsp.add_rect(dst, ds, tmp, 8, 8, 8);
}

/** Intra block b of MB (mbx, mby): DC level plus AC levels. */
inline void
recon_intra_block(Frame *frame, int b, int mbx, int mby,
                  const Coeff levels[64], int dc_level,
                  const MpegQuantizer &quant, const Dsp &dsp)
{
    const BlockPos pos = block_pos(b, mbx, mby);
    Plane &plane = frame->plane(pos.comp);
    Pixel *dst = plane.row(pos.y) + pos.x;
    for (int y = 0; y < 8; ++y)
        std::memset(dst + y * plane.stride(), 0, 8);
    recon_block(levels, quant, dc_level * kDcStep, dst, plane.stride(),
                dsp);
}

/** Inter MB (mbx, mby): prediction plus each coded block's residual. */
inline void
recon_inter_mb(Frame *frame, int mbx, int mby, const PredBuffers &pred,
               int cbp, const Coeff levels[6][64],
               const MpegQuantizer &quant, const Dsp &dsp)
{
    for (int b = 0; b < 6; ++b) {
        const BlockPos pos = block_pos(b, mbx, mby);
        Plane &plane = frame->plane(pos.comp);
        Pixel *dst = plane.row(pos.y) + pos.x;
        dsp.copy_rect(dst, plane.stride(), pred_block(pred, b),
                      pos.pred_stride, 8, 8);
        if (cbp & (1 << b))
            recon_block(levels[b], quant, -1, dst, plane.stride(), dsp);
    }
}

}  // namespace mpeg
}  // namespace hdvb

#endif  // HDVB_MPEG_TOOLS_H
