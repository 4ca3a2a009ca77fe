/**
 * @file
 * MPEG-class decoder, one implementation for both tool sets
 * (mpeg/tools.h): the exact mirror of the encoder syntax, sharing its
 * prediction and reconstruction helpers so decoder output is
 * bit-identical to the encoder's closed-loop reconstruction.
 */
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/resync.h"
#include "codec/conceal.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "me/me.h"
#include "mpeg/mpeg.h"
#include "mpeg/tools.h"

namespace hdvb {
namespace mpeg {
namespace {

template <typename T>
class MpegDecoder final : public DecoderBase
{
  public:
    explicit MpegDecoder(const CodecConfig &cfg)
        : DecoderBase(cfg),
          dsp_(get_dsp(cfg.simd)),
          intra_rl_(RunLevelCoder::get(T::kIntraRl)),
          inter_rl_(RunLevelCoder::get(T::kInterRl)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return T::kName; }

  protected:
    Status decode_picture(const Packet &packet, Frame *out) override;

  private:
    struct MbState {
        BitReader *br;
        Frame *frame;
        PictureType type;
        const MpegQuantizer *intra_quant;
        const MpegQuantizer *inter_quant;
        int mbx;
        int mby;
        int dc_pred[3];
        MotionVector left_fwd;  ///< B-picture MV chains (sub-pel)
        MotionVector left_bwd;
        /** Side-info slot for the current MB (serial path only). */
        MbSideInfo *rec = nullptr;

        void
        reset_predictors()
        {
            dc_pred[0] = dc_pred[1] = dc_pred[2] = kDcPredReset;
            left_fwd = left_bwd = MotionVector{};
        }
    };

    Status read_header(BitReader &br, const Packet &packet,
                       int *qscale) const;
    bool decode_mb(MbState &st);
    bool decode_intra_mb(MbState &st);
    bool decode_p_inter_mb(MbState &st, bool four);
    bool decode_b_inter_mb(MbState &st, int mode);
    bool read_blocks(MbState &st, int *cbp, Coeff blocks[6][64]);
    void skip_mb(MbState &st);
    Status decode_picture_resilient(const Packet &packet, Frame *out);
    bool decode_resilient_row(MbState &st, const std::vector<u8> &bytes,
                              int mby, int *bad_from);
    void conceal_row(Frame *out, PictureType type, int from, int mby);
    void promote_anchor(const Frame &picture);
    MotionVector clamp_mv(MotionVector mv, int mbx, int mby,
                          int block) const;

    /** Side info wants quarter-sample vectors. */
    static MotionVector
    to_quarter(MotionVector mv)
    {
        constexpr int kScale = 4 >> T::kMvShift;
        return {static_cast<s16>(mv.x * kScale),
                static_cast<s16>(mv.y * kScale)};
    }

    Status
    corrupt(const char *what) const
    {
        return Status::corrupt_stream(std::string("bad ") + T::kName +
                                      " " + what);
    }

    const Dsp &dsp_;
    const RunLevelCoder &intra_rl_;
    const RunLevelCoder &inter_rl_;
    int mb_w_;
    int mb_h_;

    Frame prev_anchor_;
    Frame last_anchor_;
    std::vector<MotionVector> mv_grid_;  ///< sub-pel, current picture
    std::unique_ptr<ThreadPool> pool_;   ///< row pool (threads > 1)
};

template <typename T>
MotionVector
MpegDecoder<T>::clamp_mv(MotionVector mv, int mbx, int mby,
                         int block) const
{
    // Sub-sample units; block < 0 means the whole 16x16. Keep all reads
    // inside the extended border even for corrupt input. The margin
    // allows the encoder's sub-sample refinement drift (kMeMargin + 4
    // still clears kRefBorder with the interpolation taps).
    const int size = block < 0 ? 16 : 8;
    const int x0 = mbx * 16 + (block > 0 ? (block & 1) * 8 : 0);
    const int y0 = mby * 16 + (block > 0 ? (block >> 1) * 8 : 0);
    const int margin = kMeMargin + 4;
    const int scale = 1 << T::kMvShift;
    const int min_x = scale * (-margin - x0);
    const int max_x = scale * (config().width + margin - x0 - size);
    const int min_y = scale * (-margin - y0);
    const int max_y = scale * (config().height + margin - y0 - size);
    return {static_cast<s16>(clamp<int>(mv.x, min_x, max_x)),
            static_cast<s16>(clamp<int>(mv.y, min_y, max_y))};
}

template <typename T>
bool
MpegDecoder<T>::read_blocks(MbState &st, int *cbp, Coeff blocks[6][64])
{
    BitReader &br = *st.br;
    *cbp = static_cast<int>(br.get_bits(6));
    if (br.has_error())
        return false;
    for (int b = 0; b < 6; ++b) {
        if (*cbp & (1 << b)) {
            std::memset(blocks[b], 0, sizeof(blocks[b]));
            if (!inter_rl_.decode_block(br, blocks[b], 0))
                return false;
        }
    }
    return true;
}

template <typename T>
bool
MpegDecoder<T>::decode_intra_mb(MbState &st)
{
    for (int b = 0; b < 6; ++b) {
        const int comp = b < 4 ? 0 : b - 3;
        const int dc_level = st.dc_pred[comp] + read_se(*st.br);
        if (dc_level < 0 || dc_level > 255 || st.br->has_error())
            return false;
        st.dc_pred[comp] = dc_level;

        Coeff blk[64] = {};
        if (!intra_rl_.decode_block(*st.br, blk, 1))
            return false;
        recon_intra_block(st.frame, b, st.mbx, st.mby, blk, dc_level,
                          *st.intra_quant, dsp_);
    }
    st.left_fwd = st.left_bwd = MotionVector{};
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
    if (st.rec != nullptr)
        st.rec->mode = MbSideInfo::kIntra;
    return true;
}

template <typename T>
bool
MpegDecoder<T>::decode_p_inter_mb(MbState &st, bool four)
{
    BitReader &br = *st.br;
    const MotionVector pred = p_mv_pred<T>(mv_grid_, mb_w_, st.mbx, st.mby,
                                           config().error_resilience);
    MotionVector mv[4];
    const int count = four ? 4 : 1;
    for (int b = 0; b < count; ++b) {
        mv[b] = {static_cast<s16>(pred.x + read_se(br)),
                 static_cast<s16>(pred.y + read_se(br))};
        mv[b] = clamp_mv(mv[b], st.mbx, st.mby, four ? b : -1);
    }
    if (br.has_error())
        return false;

    int cbp;
    Coeff blocks[6][64];
    if (!read_blocks(st, &cbp, blocks))
        return false;

    PredBuffers pred_buf;
    predict_mb<T>(dsp_, last_anchor_, nullptr, mv, four, {}, st.mbx,
                  st.mby, &pred_buf);
    recon_inter_mb(st.frame, st.mbx, st.mby, pred_buf, cbp, blocks,
                   *st.inter_quant, dsp_);
    st.dc_pred[0] = st.dc_pred[1] = st.dc_pred[2] = kDcPredReset;
    mv_grid_[st.mby * mb_w_ + st.mbx] = mv[0];
    if (st.rec != nullptr) {
        // 4MV collapses to its first vector; good enough as a seed.
        st.rec->mode = MbSideInfo::kInterFwd;
        st.rec->fwd = to_quarter(mv[0]);
    }
    return true;
}

template <typename T>
bool
MpegDecoder<T>::decode_b_inter_mb(MbState &st, int mode)
{
    BitReader &br = *st.br;
    const bool use_fwd = mode == kBFwd || mode == kBBi;
    const bool use_bwd = mode == kBBwd || mode == kBBi;
    MotionVector fwd{}, bwd{};
    if (use_fwd) {
        fwd = {static_cast<s16>(st.left_fwd.x + read_se(br)),
               static_cast<s16>(st.left_fwd.y + read_se(br))};
        fwd = clamp_mv(fwd, st.mbx, st.mby, -1);
    }
    if (use_bwd) {
        bwd = {static_cast<s16>(st.left_bwd.x + read_se(br)),
               static_cast<s16>(st.left_bwd.y + read_se(br))};
        bwd = clamp_mv(bwd, st.mbx, st.mby, -1);
    }
    if (br.has_error())
        return false;

    int cbp;
    Coeff blocks[6][64];
    if (!read_blocks(st, &cbp, blocks))
        return false;

    PredBuffers pred;
    if (!use_fwd) {
        predict_mb<T>(dsp_, last_anchor_, nullptr, &bwd, false, {}, st.mbx,
                      st.mby, &pred);
    } else {
        predict_mb<T>(dsp_, prev_anchor_, use_bwd ? &last_anchor_ : nullptr,
                      &fwd, false, bwd, st.mbx, st.mby, &pred);
    }
    recon_inter_mb(st.frame, st.mbx, st.mby, pred, cbp, blocks,
                   *st.inter_quant, dsp_);
    st.left_fwd = use_fwd ? fwd : MotionVector{};
    st.left_bwd = use_bwd ? bwd : MotionVector{};
    st.dc_pred[0] = st.dc_pred[1] = st.dc_pred[2] = kDcPredReset;
    if (st.rec != nullptr) {
        st.rec->mode = use_fwd && use_bwd
                           ? MbSideInfo::kInterBi
                           : (use_fwd ? MbSideInfo::kInterFwd
                                      : MbSideInfo::kInterBwd);
        st.rec->fwd = to_quarter(fwd);
        st.rec->bwd = to_quarter(bwd);
    }
    return true;
}

template <typename T>
void
MpegDecoder<T>::skip_mb(MbState &st)
{
    // P-skip copies the forward reference at (0,0); B-skip is
    // bi-prediction at (0,0).
    const MotionVector zero{};
    PredBuffers pred;
    predict_mb<T>(dsp_, st.type == PictureType::kB ? prev_anchor_
                                                   : last_anchor_,
                  st.type == PictureType::kB ? &last_anchor_ : nullptr,
                  &zero, false, {}, st.mbx, st.mby, &pred);
    recon_inter_mb(st.frame, st.mbx, st.mby, pred, 0, nullptr,
                   *st.inter_quant, dsp_);
    if (st.rec != nullptr)
        st.rec->mode = MbSideInfo::kSkip;
    st.left_fwd = st.left_bwd = MotionVector{};
    st.dc_pred[0] = st.dc_pred[1] = st.dc_pred[2] = kDcPredReset;
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
}

/** Decode the mode and data of one coded MB of a P or B picture. */
template <typename T>
bool
MpegDecoder<T>::decode_mb(MbState &st)
{
    BitReader &br = *st.br;
    if (st.type == PictureType::kB) {
        const u32 mode = read_ue(br);
        if (br.has_error() || mode > kBIntra)
            return false;
        return mode == kBIntra
                   ? decode_intra_mb(st)
                   : decode_b_inter_mb(st, static_cast<int>(mode));
    }
    int mode;
    if constexpr (T::kFourMv) {
        const u32 code = read_ue(br);
        mode = code > kPIntra ? -1 : static_cast<int>(code);
    } else {
        mode = br.get_bit() ? kPIntra : kPInter16;
    }
    if (br.has_error() || mode < 0)
        return false;
    return mode == kPIntra ? decode_intra_mb(st)
                           : decode_p_inter_mb(st, mode == kPInter4v);
}

template <typename T>
void
MpegDecoder<T>::conceal_row(Frame *out, PictureType type, int from,
                            int mby)
{
    for (int mbx = from; mbx < mb_w_; ++mbx) {
        if (type == PictureType::kI || last_anchor_.empty())
            conceal_mb_dc(out, mbx, mby);
        else
            conceal_mb_from_ref(out, last_anchor_, mbx, mby);
        mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
    }
}

template <typename T>
bool
MpegDecoder<T>::decode_resilient_row(MbState &st,
                                     const std::vector<u8> &bytes,
                                     int mby, int *bad_from)
{
    BitReader br(bytes);
    st.br = &br;
    st.mby = mby;
    st.reset_predictors();
    *bad_from = 0;

    if (st.type == PictureType::kI) {
        for (int mbx = 0; mbx < mb_w_; ++mbx) {
            st.mbx = mbx;
            if (!decode_intra_mb(st)) {
                *bad_from = mbx;
                return false;
            }
        }
    } else {
        // Row-scoped skip runs: a run before each coded MB, plus a
        // trailing run only when the row ends in skips.
        int mbx = 0;
        while (mbx < mb_w_) {
            const int run = static_cast<int>(read_ue(br));
            if (br.has_error() || run > mb_w_ - mbx) {
                *bad_from = mbx;
                return false;
            }
            for (int i = 0; i < run; ++i) {
                st.mbx = mbx++;
                skip_mb(st);
            }
            if (mbx >= mb_w_)
                break;
            st.mbx = mbx;
            if (!decode_mb(st)) {
                *bad_from = mbx;
                return false;
            }
            ++mbx;
        }
    }

    // A wrong or missing sentinel means the row decoded to garbage
    // without tripping a syntax error; treat the whole row as lost.
    const u32 sentinel = br.get_bits(8);
    if (br.has_error() || sentinel != kRowSentinel)
        return false;
    if (bytes.size() * 8 - br.bits_consumed() >= 8)
        return false;  // trailing junk beyond alignment padding
    return true;
}

template <typename T>
Status
MpegDecoder<T>::read_header(BitReader &br, const Packet &packet,
                            int *qscale) const
{
    const PictureType type = static_cast<PictureType>(br.get_bits(2));
    *qscale = static_cast<int>(br.get_bits(5));
    if constexpr (T::kHeaderToolFlags)
        br.skip_bits(2);  // qpel / 4MV flags (informational)
    br.skip_bits(16);     // poc_lsb, unused
    if (br.has_error() || type != packet.type)
        return corrupt("picture header");
    if (*qscale < 1 || *qscale > 31)
        return corrupt("qscale");
    if (type != PictureType::kI && last_anchor_.empty())
        return Status::corrupt_stream("inter picture without reference");
    if (type == PictureType::kB && prev_anchor_.empty())
        return Status::corrupt_stream("B picture without two references");
    return Status::ok();
}

template <typename T>
void
MpegDecoder<T>::promote_anchor(const Frame &picture)
{
    prev_anchor_ = std::move(last_anchor_);
    last_anchor_ = new_frame(kRefBorder);
    last_anchor_.copy_from(picture);
    last_anchor_.extend_borders();
}

template <typename T>
Status
MpegDecoder<T>::decode_picture_resilient(const Packet &packet, Frame *out)
{
    const std::vector<ResyncMarker> cands =
        scan_resync_markers(packet.data, mb_h_);
    std::vector<ResyncMarker> markers;
    int last_row = -1;
    for (const ResyncMarker &m : cands) {
        if (m.row > last_row) {
            markers.push_back(m);
            last_row = m.row;
        }
    }
    if (markers.empty())
        return Status::corrupt_stream("no resync markers survive");

    const std::vector<u8> header =
        unescape_emulation(packet.data.data(), markers.front().pos);
    BitReader hbr(header);
    int qscale;
    if (Status s = read_header(hbr, packet, &qscale); !s.is_ok())
        return s;
    const PictureType type = packet.type;
    const MpegQuantizer intra_quant = intra_quantizer<T>(qscale);
    const MpegQuantizer inter_quant = inter_quantizer<T>(qscale);

    *out = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    // Map each surviving marker to its row's byte segment.
    std::vector<std::pair<const u8 *, size_t>> segments(
        static_cast<size_t>(mb_h_), {nullptr, 0});
    for (size_t i = 0; i < markers.size(); ++i) {
        const size_t start = markers[i].pos + 4;
        const size_t end = i + 1 < markers.size() ? markers[i + 1].pos
                                                  : packet.data.size();
        segments[static_cast<size_t>(markers[i].row)] = {
            packet.data.data() + start, end - start};
    }

    // Rows are fully independent here: fresh per-row entropy chunk and
    // predictors, MV prediction is left-only in resilient mode (so
    // mv_grid_ reads stay within the row each task writes), and inter
    // prediction reads only the anchor frames. Decode the rows in
    // parallel when the codec has a band pool, then run concealment
    // and stats as a serial top-to-bottom pass — spatial DC
    // concealment reads the pixel row above, which is final by then,
    // exactly as in the serial schedule.
    struct RowResult {
        bool ok = false;
        int bad_from = 0;
    };
    std::vector<RowResult> rows(static_cast<size_t>(mb_h_));
    auto decode_row = [&](int mby) {
        const auto &seg = segments[static_cast<size_t>(mby)];
        if (seg.first == nullptr)
            return;
        MbState st{};
        st.frame = out;
        st.type = type;
        st.intra_quant = &intra_quant;
        st.inter_quant = &inter_quant;
        const std::vector<u8> row_bytes =
            unescape_emulation(seg.first, seg.second);
        RowResult &r = rows[static_cast<size_t>(mby)];
        r.ok = decode_resilient_row(st, row_bytes, mby, &r.bad_from);
    };
    if (pool_ != nullptr) {
        parallel_for(*pool_, mb_h_,
                     [&](int mby, int) { decode_row(mby); });
    } else {
        for (int mby = 0; mby < mb_h_; ++mby)
            decode_row(mby);
    }

    bool in_error = false;
    bool any_ok = false;
    for (int mby = 0; mby < mb_h_; ++mby) {
        const RowResult &r = rows[static_cast<size_t>(mby)];
        if (r.ok) {
            if (in_error) {
                ++stats_.resyncs;
                in_error = false;
            }
            any_ok = true;
        } else {
            in_error = true;
            conceal_row(out, type, r.bad_from, mby);
            stats_.mbs_concealed += mb_w_ - r.bad_from;
        }
    }
    if (!any_ok)
        return Status::corrupt_stream("every row of the picture lost");

    if (type != PictureType::kB) {
        out->extend_borders();
        promote_anchor(*out);
    }
    return Status::ok();
}

template <typename T>
Status
MpegDecoder<T>::decode_picture(const Packet &packet, Frame *out)
{
    if (config().error_resilience)
        return decode_picture_resilient(packet, out);

    BitReader br(packet.data);
    int qscale;
    if (Status s = read_header(br, packet, &qscale); !s.is_ok())
        return s;
    const PictureType type = packet.type;
    const MpegQuantizer intra_quant = intra_quantizer<T>(qscale);
    const MpegQuantizer inter_quant = inter_quantizer<T>(qscale);

    *out = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    MbState st{};
    st.br = &br;
    st.frame = out;
    st.type = type;
    st.intra_quant = &intra_quant;
    st.inter_quant = &inter_quant;

    const bool record = side_info_sink() != nullptr;
    PictureSideInfo si;
    if (record) {
        si.poc = packet.poc;
        si.type = type;
        si.mb_w = mb_w_;
        si.mb_h = mb_h_;
        si.quant = qscale;
        si.mbs.resize(static_cast<size_t>(mb_w_) * mb_h_);
    }

    if (type == PictureType::kI) {
        for (int mby = 0; mby < mb_h_; ++mby) {
            st.mby = mby;
            st.reset_predictors();
            for (int mbx = 0; mbx < mb_w_; ++mbx) {
                st.mbx = mbx;
                st.rec = record ? &si.at(mbx, mby) : nullptr;
                if (!decode_intra_mb(st))
                    return Status::corrupt_stream("bad intra MB data");
            }
        }
    } else {
        int mb = 0;
        const int total = mb_w_ * mb_h_;
        // Row-scoped predictor resets happen as mb crosses rows.
        int cur_row = -1;
        auto enter = [&](int index) {
            st.mbx = index % mb_w_;
            st.mby = index / mb_w_;
            if (st.mby != cur_row) {
                cur_row = st.mby;
                st.reset_predictors();
            }
            st.rec = record ? &si.at(st.mbx, st.mby) : nullptr;
        };
        while (mb < total) {
            const int run = static_cast<int>(read_ue(br));
            if (br.has_error() || run > total - mb)
                return Status::corrupt_stream("bad skip run");
            for (int i = 0; i < run; ++i) {
                enter(mb++);
                skip_mb(st);
            }
            if (mb >= total)
                break;
            enter(mb++);
            if (!decode_mb(st))
                return Status::corrupt_stream("bad MB data");
        }
    }
    if (br.has_error())
        return Status::corrupt_stream(std::string("truncated ") +
                                      T::kName + " picture");

    if (record)
        side_info_sink()->push(std::move(si));

    if (type != PictureType::kB) {
        out->extend_borders();
        promote_anchor(*out);
    }
    return Status::ok();
}

}  // namespace
}  // namespace mpeg

std::unique_ptr<VideoDecoder>
create_mpeg2_decoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<mpeg::MpegDecoder<mpeg::Mpeg2Tools>>(config);
}

std::unique_ptr<VideoDecoder>
create_mpeg4_decoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<mpeg::MpegDecoder<mpeg::Mpeg4Tools>>(config);
}

}  // namespace hdvb
