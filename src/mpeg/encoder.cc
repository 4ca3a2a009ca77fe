/**
 * @file
 * MPEG-class encoder, one implementation for both tool sets
 * (mpeg/tools.h): EPZS motion estimation, sub-sample refinement with
 * the tool set's interpolation filter, optional four-MV macroblocks,
 * 8x8 DCT with the MPEG weighting matrices, run/level VLC.
 *
 * Encoding is a two-phase pipeline so CodecConfig::threads can
 * parallelise the expensive part without touching a single emitted bit:
 * an analysis phase makes every decision (ME, mode, quantised levels,
 * reconstruction) into per-MB records — wavefront-ordered across MB
 * rows when a thread pool is configured — and a serial write phase
 * replays the records through the entropy coder in raster order. The
 * same two phases run back-to-back on the caller's thread when
 * threads == 1, so the bitstream is byte-identical for any thread
 * count.
 */
#include <memory>
#include <span>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/resync.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/wavefront.h"
#include "dsp/approx.h"
#include "me/me.h"
#include "mpeg/mpeg.h"
#include "mpeg/tools.h"

namespace hdvb {
namespace mpeg {
namespace {

/** Hint vector (quarter-sample) as a full-sample search candidate; the
 * estimator clamps all candidates to its legal window, so even an
 * out-of-range hint is safe. */
inline MotionVector
hint_full_pel(MotionVector quarter)
{
    return {static_cast<s16>(quarter.x >> 2),
            static_cast<s16>(quarter.y >> 2)};
}

/** EPZS candidates per search: left, top, top-right and collocated,
 * then a hint or, for the 8x8 searches of a 4MV trial, the 16x16
 * result. */
constexpr size_t kMaxCands = 5;

template <typename T>
class MpegEncoder final : public EncoderBase
{
  public:
    explicit MpegEncoder(const CodecConfig &cfg)
        : EncoderBase(cfg),
          dsp_(get_dsp(cfg.simd)),
          intra_quant_(intra_quantizer<T>(cfg.qscale)),
          inter_quant_(inter_quantizer<T>(cfg.qscale)),
          intra_rl_(RunLevelCoder::get(T::kIntraRl)),
          inter_rl_(RunLevelCoder::get(T::kInterRl)),
          me_(MeParams{cfg.me_range, cfg.qscale * 16, T::kMvShift, &dsp_,
                       cfg.approx}),
          dead_zone_sad_(
              mpeg_dead_zone_sad(cfg.qscale, T::kQuantShift, cfg.approx)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          anchor_mvs_(static_cast<size_t>(mb_w_) * mb_h_),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          records_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return T::kName; }

  protected:
    std::vector<u8> encode_picture(const Frame &src,
                                   PictureType type) override;

  private:
    /** Everything the serial write phase needs to replay one MB. */
    struct MbRecord {
        enum Kind : u8 { kIntra, kInter, kSkip };
        Kind kind = kIntra;
        u8 mode = 0;  ///< PMbType or BMbType
        u8 cbp = 0;
        bool four = false;
        bool use_fwd = false;
        bool use_bwd = false;
        MotionVector mv[4];   ///< forward (4MV uses all four), sub-pel
        MotionVector bwd;
        MotionVector pred_p;  ///< P-picture predictor for the MVDs
        s16 dc[6] = {};            ///< intra DC levels (absolute)
        Coeff levels[6][64] = {};  ///< quantised coefficients
    };

    /** Analysis-side row-scoped predictor state (sub-pel units). */
    struct RowState {
        MotionVector left_fwd;
        MotionVector left_bwd;
    };

    /** Write-side row/picture-scoped predictor state. */
    struct WriteState {
        int dc_pred[3] = {kDcPredReset, kDcPredReset, kDcPredReset};
        MotionVector left_fwd;
        MotionVector left_bwd;
        int pending_skips = 0;

        void
        reset_row()
        {
            dc_pred[0] = dc_pred[1] = dc_pred[2] = kDcPredReset;
            left_fwd = left_bwd = MotionVector{};
        }
    };

    void write_header(const Frame &src, PictureType type);
    void analyze_picture(const Frame &src, PictureType type);
    void analyze_mb(RowState &rs, const Frame &src, PictureType type,
                    int mbx, int mby, MbRecord &rec);
    void analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                          int mby, MbRecord &rec);
    void analyze_inter_mb(RowState &rs, const Frame &src,
                          PictureType type, int mode,
                          const MotionVector *mv, MotionVector bwd,
                          int mbx, int mby, MbRecord &rec);
    void write_mb(BitWriter &bw, WriteState &ws, const MbRecord &rec,
                  PictureType type) const;
    void write_p_mode(BitWriter &bw, int mode) const;

    MotionVector
    p_pred(int mbx, int mby) const
    {
        return p_mv_pred<T>(mv_grid_, mb_w_, mbx, mby,
                            config().error_resilience);
    }
    MeResult estimate(const Frame &src, const Frame &ref, int x0, int y0,
                      int size, MotionVector pred_sub,
                      std::span<const MotionVector> cands) const;
    int intra_cost(const Frame &src, int mbx, int mby) const;
    /** EPZS candidates in full samples; returns how many. */
    size_t gather_candidates(const RowState &rs, PictureType type,
                             int mbx, int mby, bool backward,
                             MotionVector out[kMaxCands]) const;

    const Dsp &dsp_;
    MpegQuantizer intra_quant_;
    MpegQuantizer inter_quant_;
    const RunLevelCoder &intra_rl_;
    const RunLevelCoder &inter_rl_;
    MotionEstimator me_;
    /** approx >= 1: per-8x8 SAD below which the residual is coded as
     * all-zero without running fdct + quant (0 disables). */
    int dead_zone_sad_;
    int mb_w_;
    int mb_h_;

    Frame prev_anchor_;  ///< forward reference for B pictures
    Frame last_anchor_;  ///< forward ref for P, backward ref for B
    std::vector<MotionVector> anchor_mvs_;  ///< full-pel, last anchor
    std::vector<MotionVector> mv_grid_;     ///< sub-pel, current picture
    Frame recon_;
    std::vector<MbRecord> records_;   ///< one per MB, raster order
    std::unique_ptr<ThreadPool> pool_;  ///< band pool (threads > 1)
    BitWriter bw_;           ///< persistent writer (capacity reuse)
    std::vector<u8> wbuf_;   ///< persistent finish_into() scratch

    /** Hints for the picture being analysed (read-only during the
     * wavefront phase), or null for full analysis. */
    std::shared_ptr<const PictureSideInfo> hint_pic_;

    const MbSideInfo *
    hint_mb(int mbx, int mby) const
    {
        return hint_pic_ ? &hint_pic_->at(mbx, mby) : nullptr;
    }
};

template <typename T>
void
MpegEncoder<T>::write_header(const Frame &src, PictureType type)
{
    const CodecConfig &cfg = config();
    bw_.clear();
    bw_.put_bits(static_cast<u32>(type), 2);
    bw_.put_bits(static_cast<u32>(cfg.qscale), 5);
    if constexpr (T::kHeaderToolFlags) {
        bw_.put_bit(cfg.qpel);
        bw_.put_bit(cfg.four_mv);
    }
    bw_.put_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
}

template <typename T>
std::vector<u8>
MpegEncoder<T>::encode_picture(const Frame &src, PictureType type)
{
    recon_ = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    hint_pic_ = take_hints(src, type);
    analyze_picture(src, type);
    hint_pic_.reset();

    std::vector<u8> out;
    write_header(src, type);
    if (config().error_resilience) {
        // Resilient layout (see src/bitstream/resync.h): escaped
        // header, then per row a resync marker plus an escaped,
        // sentinel-terminated segment with row-scoped skip runs, so
        // each segment parses standalone.
        bw_.finish_into(&wbuf_);
        escape_emulation(wbuf_.data(), wbuf_.size(), &out);

        for (int mby = 0; mby < mb_h_; ++mby) {
            WriteState ws;
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(bw_, ws, records_[mby * mb_w_ + mbx], type);
            if (type != PictureType::kI && ws.pending_skips > 0)
                write_ue(bw_, static_cast<u32>(ws.pending_skips));
            bw_.put_bits(kRowSentinel, 8);
            bw_.finish_into(&wbuf_);
            append_resync_marker(&out, mby);
            escape_emulation(wbuf_.data(), wbuf_.size(), &out);
        }
    } else {
        WriteState ws;
        for (int mby = 0; mby < mb_h_; ++mby) {
            ws.reset_row();
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(bw_, ws, records_[mby * mb_w_ + mbx], type);
        }
        if (type != PictureType::kI)
            write_ue(bw_, static_cast<u32>(ws.pending_skips));
        bw_.finish_into(&out);
    }

    recon_.extend_borders();
    if (type != PictureType::kB) {
        prev_anchor_ = std::move(last_anchor_);
        last_anchor_ = std::move(recon_);
        for (size_t i = 0; i < mv_grid_.size(); ++i)
            anchor_mvs_[i] = full_pel<T>(mv_grid_[i]);
    }
    return out;
}

template <typename T>
void
MpegEncoder<T>::analyze_picture(const Frame &src, PictureType type)
{
    if (pool_ == nullptr || mb_h_ < 2) {
        for (int mby = 0; mby < mb_h_; ++mby) {
            RowState rs{};
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                analyze_mb(rs, src, type, mbx, mby,
                           records_[mby * mb_w_ + mbx]);
        }
        return;
    }

    // One band per MB row, wavefront-ordered: before MB (x, y) runs,
    // row y-1 must be done through column x+1 (its above-right
    // neighbour), which covers every cross-row read — the mv_grid_
    // reads of the MV predictor and the search candidates. Row-local
    // predictors live in RowState, so bands share no mutable state
    // beyond the published per-MB results.
    WavefrontScheduler wf(mb_h_, mb_w_);
    parallel_for(*pool_, mb_h_, [&](int mby, int) {
        WavefrontRowGuard guard(wf, mby);
        RowState rs{};
        for (int mbx = 0; mbx < mb_w_; ++mbx) {
            wf.wait_above(mby, mbx);
            analyze_mb(rs, src, type, mbx, mby,
                       records_[mby * mb_w_ + mbx]);
            wf.publish(mby, mbx + 1);
        }
    });
}

template <typename T>
size_t
MpegEncoder<T>::gather_candidates(const RowState &rs, PictureType type,
                                  int mbx, int mby, bool backward,
                                  MotionVector out[kMaxCands]) const
{
    size_t n = 0;
    const int idx = mby * mb_w_ + mbx;
    if (type == PictureType::kP || T::kBSpatialCandidates) {
        // In P pictures the row chain's left vector is the left MB's
        // mv_grid_ entry (zero at a row start, a vector EPZS tests
        // anyway); in B pictures it follows the search direction.
        out[n++] = full_pel<T>(backward ? rs.left_bwd : rs.left_fwd);
        if (mby > 0) {
            out[n++] = full_pel<T>(mv_grid_[idx - mb_w_]);
            if (mbx + 1 < mb_w_)
                out[n++] = full_pel<T>(mv_grid_[idx - mb_w_ + 1]);
        }
    }
    out[n++] = anchor_mvs_[idx];  // collocated (temporal)
    return n;
}

template <typename T>
MeResult
MpegEncoder<T>::estimate(const Frame &src, const Frame &ref, int x0,
                         int y0, int size, MotionVector pred_sub,
                         std::span<const MotionVector> cands) const
{
    MeBlock blk;
    blk.cur = &src.luma();
    blk.ref = &ref.luma();
    blk.x0 = x0;
    blk.y0 = y0;
    blk.w = size;
    blk.h = size;
    const MeResult full = me_.epzs(blk, pred_sub, cands);
    const MotionVector start{
        static_cast<s16>(full.mv.x * (1 << T::kMvShift)),
        static_cast<s16>(full.mv.y * (1 << T::kMvShift))};
    const int approx = me_.params().approx;
    if (approx >= 1 && full.sad < me_.exit_threshold(blk)) {
        // The full-pel match is already under the exit threshold:
        // sub-sample refinement cannot buy enough to matter at this
        // approximation level.
        MeResult r = full;
        r.mv = start;
        return r;
    }
    auto predict = [&](MotionVector mv, Pixel *dst, int ds) {
        T::Filter::luma(ref.luma(), x0, y0, mv, dst, ds, size, size,
                        dsp_);
    };
    // Half-sample steps, then quarter-sample ones when the vectors
    // have quarter precision and qpel is on; approx >= 2 drops the
    // quarter pass, halving the interpolation work per refined block.
    constexpr int kHalf = 1 << (T::kMvShift - 1);
    const bool quarter = kHalf > 1 && config().qpel && approx < 2;
    return quarter ? subpel_refine(blk, start, pred_sub, me_.params(),
                                   {kHalf, 1}, /*use_satd=*/false, predict)
                   : subpel_refine(blk, start, pred_sub, me_.params(),
                                   {kHalf}, /*use_satd=*/false, predict);
}

template <typename T>
int
MpegEncoder<T>::intra_cost(const Frame &src, int mbx, int mby) const
{
    const Plane &luma = src.luma();
    int sum = 0;
    for (int y = 0; y < 16; ++y) {
        const Pixel *row = luma.row(mby * 16 + y) + mbx * 16;
        for (int x = 0; x < 16; ++x)
            sum += row[x];
    }
    const int mean = (sum + 128) >> 8;
    int dev = 0;
    for (int y = 0; y < 16; ++y) {
        const Pixel *row = luma.row(mby * 16 + y) + mbx * 16;
        for (int x = 0; x < 16; ++x) {
            const int d = row[x] - mean;
            dev += d < 0 ? -d : d;
        }
    }
    // Rough intra rate surcharge keeps intra from winning on noise.
    return dev + ((me_.params().lambda16 * 96) >> 4);
}

template <typename T>
void
MpegEncoder<T>::analyze_mb(RowState &rs, const Frame &src,
                           PictureType type, int mbx, int mby,
                           MbRecord &rec)
{
    if (type == PictureType::kI) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    // Analysis-reuse hints, when the transcode engine wired a HintMap
    // (see src/codec/side_info.h): a decode-side intra MB goes straight
    // to intra, a decode-side inter MB seeds its vector as a search
    // candidate and skips the intra trial and the 4MV split, and a B
    // MB searches only the hinted direction(s). Every pruned branch
    // keeps a legal fallback, so hints never make the stream
    // undecodable — only cheaper to produce.
    const MbSideInfo *hint = hint_mb(mbx, mby);
    if (hint != nullptr && hint->mode == MbSideInfo::kIntra) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    const int icost =
        hint != nullptr ? INT32_MAX : intra_cost(src, mbx, mby);
    MotionVector cands[kMaxCands];

    if (type == PictureType::kP) {
        const MotionVector pred = p_pred(mbx, mby);
        size_t n = gather_candidates(rs, type, mbx, mby, false, cands);
        if (hint != nullptr)
            cands[n++] = hint_full_pel(hint->fwd);
        const MeResult r16 = estimate(src, last_anchor_, mbx * 16,
                                      mby * 16, 16, pred, {cands, n});

        MotionVector mv[4] = {r16.mv, r16.mv, r16.mv, r16.mv};
        bool four = false;
        // The hint is a 16x16 seed, so trust it and skip the 4MV split
        // trial (the decoder's 4MV collapses to one vector). approx >= 2
        // also prunes the trial — four separate 8x8 searches plus
        // refinements for a rate win the coarse quantiser rarely cashes
        // in — unless the 16x16 match is bad.
        const bool try_four_mv =
            T::kFourMv && config().four_mv && hint == nullptr &&
            (me_.params().approx < 2 ||
             r16.sad >= (256 << me_.params().approx) * 4);
        if (try_four_mv) {
            // 4MV: refine each 8x8 quadrant; adopt if the summed cost
            // beats 16x16 plus the extra vector overhead.
            MeResult sub[4];
            int cost4 = (me_.params().lambda16 * 40) >> 4;
            cands[n++] = full_pel<T>(r16.mv);
            for (int b = 0; b < 4; ++b) {
                sub[b] = estimate(src, last_anchor_,
                                  mbx * 16 + (b & 1) * 8,
                                  mby * 16 + (b >> 1) * 8, 8, pred,
                                  {cands, n});
                cost4 += sub[b].cost;
            }
            if (cost4 < r16.cost) {
                four = true;
                for (int b = 0; b < 4; ++b)
                    mv[b] = sub[b].mv;
            }
        }

        if (!four && icost < r16.cost) {
            analyze_intra_mb(rs, src, mbx, mby, rec);
            return;
        }
        analyze_inter_mb(rs, src, type, four ? kPInter4v : kPInter16, mv,
                         {}, mbx, mby, rec);
        return;
    }

    // B picture: forward / backward / bi / intra decision. A
    // single-direction hint prunes the opposite estimate and the
    // bi-prediction build.
    const bool want_fwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterBwd;
    const bool want_bwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterFwd;

    MeResult fwd;
    MeResult bwd;
    if (want_fwd) {
        size_t n = gather_candidates(rs, type, mbx, mby, false, cands);
        if (hint != nullptr)
            cands[n++] = hint_full_pel(hint->fwd);
        fwd = estimate(src, prev_anchor_, mbx * 16, mby * 16, 16,
                       rs.left_fwd, {cands, n});
    }
    if (want_bwd) {
        size_t n = gather_candidates(rs, type, mbx, mby, true, cands);
        if (hint != nullptr)
            cands[n++] = hint_full_pel(hint->bwd);
        bwd = estimate(src, last_anchor_, mbx * 16, mby * 16, 16,
                       rs.left_bwd, {cands, n});
    }

    int best;
    int best_cost;
    if (want_fwd && want_bwd) {
        PredBuffers bi;
        predict_mb<T>(dsp_, prev_anchor_, &last_anchor_, &fwd.mv, false,
                      bwd.mv, mbx, mby, &bi);
        const Plane &luma = src.luma();
        const int bi_sad = dsp_.sad16x16(luma.row(mby * 16) + mbx * 16,
                                         luma.stride(), bi.luma, 16);
        const int bi_cost =
            bi_sad +
            mv_rate_cost(fwd.mv, rs.left_fwd, me_.params().lambda16) +
            mv_rate_cost(bwd.mv, rs.left_bwd, me_.params().lambda16);

        best = kBBi;
        best_cost = bi_cost;
        if (fwd.cost < best_cost) {
            best = kBFwd;
            best_cost = fwd.cost;
        }
        if (bwd.cost < best_cost) {
            best = kBBwd;
            best_cost = bwd.cost;
        }
    } else if (want_fwd) {
        best = kBFwd;
        best_cost = fwd.cost;
    } else {
        best = kBBwd;
        best_cost = bwd.cost;
    }
    if (icost < best_cost) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    analyze_inter_mb(rs, src, type, best, &fwd.mv, bwd.mv, mbx, mby, rec);
}

template <typename T>
void
MpegEncoder<T>::analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                                 int mby, MbRecord &rec)
{
    rec.kind = MbRecord::kIntra;
    for (int b = 0; b < 6; ++b) {
        const BlockPos pos = block_pos(b, mbx, mby);
        const Plane &src_plane = src.plane(pos.comp);
        Coeff *blk = rec.levels[b];
        for (int yy = 0; yy < 8; ++yy) {
            const Pixel *row = src_plane.row(pos.y + yy) + pos.x;
            for (int xx = 0; xx < 8; ++xx)
                blk[yy * 8 + xx] = row[xx];
        }
        dsp_.fdct8x8(blk);
        const int dc_level = clamp(div_round(blk[0], kDcStep), 0, 255);
        blk[0] = 0;
        intra_quant_.quantize(blk);
        rec.dc[b] = static_cast<s16>(dc_level);
        recon_intra_block(&recon_, b, mbx, mby, blk, dc_level,
                          intra_quant_, dsp_);
    }
    // Intra interrupts the MV prediction chain.
    rs.left_fwd = rs.left_bwd = MotionVector{};
    mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
}

template <typename T>
void
MpegEncoder<T>::analyze_inter_mb(RowState &rs, const Frame &src,
                                 PictureType type, int mode,
                                 const MotionVector *mv, MotionVector bwd,
                                 int mbx, int mby, MbRecord &rec)
{
    const bool is_b = type == PictureType::kB;
    const bool four = !is_b && mode == kPInter4v;
    bool use_fwd = true;
    bool use_bwd = false;
    MotionVector fwd = mv[0];
    if (is_b) {
        use_fwd = mode == kBFwd || mode == kBBi;
        use_bwd = mode == kBBwd || mode == kBBi;
        if (!use_fwd)
            fwd = {};
        if (!use_bwd)
            bwd = {};
    }

    PredBuffers pred;
    if (!is_b) {
        predict_mb<T>(dsp_, last_anchor_, nullptr, mv, four, {}, mbx, mby,
                      &pred);
    } else if (!use_fwd) {
        // Backward-only prediction.
        predict_mb<T>(dsp_, last_anchor_, nullptr, &bwd, false, {}, mbx,
                      mby, &pred);
    } else {
        predict_mb<T>(dsp_, prev_anchor_, use_bwd ? &last_anchor_ : nullptr,
                      &fwd, false, bwd, mbx, mby, &pred);
    }

    // Transform/quantise the six residual blocks.
    int cbp = 0;
    for (int b = 0; b < 6; ++b) {
        const BlockPos pos = block_pos(b, mbx, mby);
        const Plane &src_plane = src.plane(pos.comp);
        const Pixel *sp = src_plane.row(pos.y) + pos.x;
        const Pixel *pp = pred_block(pred, b);
        if (dead_zone_sad_ > 0 &&
            dsp_.sad_rect(sp, src_plane.stride(), pp, pos.pred_stride, 8,
                          8) < dead_zone_sad_) {
            // Near-zero residual: the quantiser would have flattened
            // it anyway; code the block as all-zero without running
            // fdct + quant (cbp bit stays clear, recon = prediction).
            continue;
        }
        dsp_.sub_rect(rec.levels[b], 8, sp, src_plane.stride(), pp,
                      pos.pred_stride, 8, 8);
        if (me_.params().approx >= 3)
            fdct8x8_low4(rec.levels[b]);
        else
            dsp_.fdct8x8(rec.levels[b]);
        if (inter_quant_.quantize(rec.levels[b]) != 0)
            cbp |= 1 << b;
    }

    // Skip decision (must match the decoder's skip semantics):
    // P-skip copies the forward reference at (0,0); B-skip is
    // bi-prediction at (0,0).
    const bool skippable =
        cbp == 0 && !four &&
        (is_b ? (mode == kBBi && fwd == MotionVector{} &&
                 bwd == MotionVector{})
              : fwd == MotionVector{});
    MotionVector &grid = mv_grid_[mby * mb_w_ + mbx];
    if (skippable) {
        rec.kind = MbRecord::kSkip;
        rs.left_fwd = rs.left_bwd = MotionVector{};
        grid = MotionVector{};
    } else {
        rec.kind = MbRecord::kInter;
        rec.mode = static_cast<u8>(mode);
        rec.cbp = static_cast<u8>(cbp);
        rec.four = four;
        rec.use_fwd = use_fwd;
        rec.use_bwd = use_bwd;
        for (int b = 0; b < 4; ++b)
            rec.mv[b] = is_b ? (b == 0 ? fwd : MotionVector{}) : mv[b];
        rec.bwd = bwd;
        // Recorded after the left MB's mv_grid_ update, before this
        // MB's own — the point the decoder evaluates it.
        if (!is_b)
            rec.pred_p = p_pred(mbx, mby);
        rs.left_fwd = use_fwd ? fwd : MotionVector{};
        rs.left_bwd = use_bwd ? bwd : MotionVector{};
        grid = use_fwd ? fwd : bwd;
    }

    recon_inter_mb(&recon_, mbx, mby, pred, cbp, rec.levels, inter_quant_,
                   dsp_);
}

template <typename T>
void
MpegEncoder<T>::write_p_mode(BitWriter &bw, int mode) const
{
    if constexpr (T::kFourMv)
        write_ue(bw, static_cast<u32>(mode));
    else
        bw.put_bit(mode == kPIntra);
}

template <typename T>
void
MpegEncoder<T>::write_mb(BitWriter &bw, WriteState &ws,
                         const MbRecord &rec, PictureType type) const
{
    const bool is_b = type == PictureType::kB;

    if (rec.kind == MbRecord::kSkip) {
        ++ws.pending_skips;
        ws.left_fwd = ws.left_bwd = MotionVector{};
        ws.dc_pred[0] = ws.dc_pred[1] = ws.dc_pred[2] = kDcPredReset;
        return;
    }

    if (rec.kind == MbRecord::kIntra) {
        if (type != PictureType::kI) {
            write_ue(bw, static_cast<u32>(ws.pending_skips));
            ws.pending_skips = 0;
            if (is_b)
                write_ue(bw, kBIntra);
            else
                write_p_mode(bw, kPIntra);
        }
        for (int b = 0; b < 6; ++b) {
            const int comp = b < 4 ? 0 : b - 3;
            write_se(bw, rec.dc[b] - ws.dc_pred[comp]);
            ws.dc_pred[comp] = rec.dc[b];
            intra_rl_.encode_block(bw, rec.levels[b], 1);
        }
        ws.left_fwd = ws.left_bwd = MotionVector{};
        return;
    }

    write_ue(bw, static_cast<u32>(ws.pending_skips));
    ws.pending_skips = 0;
    if (is_b) {
        write_ue(bw, static_cast<u32>(rec.mode));
        if (rec.use_fwd) {
            write_se(bw, rec.mv[0].x - ws.left_fwd.x);
            write_se(bw, rec.mv[0].y - ws.left_fwd.y);
        }
        if (rec.use_bwd) {
            write_se(bw, rec.bwd.x - ws.left_bwd.x);
            write_se(bw, rec.bwd.y - ws.left_bwd.y);
        }
    } else {
        write_p_mode(bw, rec.mode);
        const int count = rec.four ? 4 : 1;
        for (int b = 0; b < count; ++b) {
            write_se(bw, rec.mv[b].x - rec.pred_p.x);
            write_se(bw, rec.mv[b].y - rec.pred_p.y);
        }
    }
    bw.put_bits(rec.cbp, 6);
    for (int b = 0; b < 6; ++b) {
        if (rec.cbp & (1 << b))
            inter_rl_.encode_block(bw, rec.levels[b], 0);
    }
    ws.left_fwd = rec.use_fwd ? rec.mv[0] : MotionVector{};
    ws.left_bwd = rec.use_bwd ? rec.bwd : MotionVector{};
    ws.dc_pred[0] = ws.dc_pred[1] = ws.dc_pred[2] = kDcPredReset;
}

}  // namespace
}  // namespace mpeg

std::unique_ptr<VideoEncoder>
create_mpeg2_encoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<mpeg::MpegEncoder<mpeg::Mpeg2Tools>>(config);
}

std::unique_ptr<VideoEncoder>
create_mpeg4_encoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<mpeg::MpegEncoder<mpeg::Mpeg4Tools>>(config);
}

}  // namespace hdvb
