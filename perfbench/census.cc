/**
 * @file
 * The per-layer census of a traced run. Every probe works on blocks and
 * frames of the workload's own clip, at the run's SIMD tier, and is
 * wrapped in a span named after the metric it feeds.
 */
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "codec/side_info.h"
#include "me/me.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kBatches = 5;  // timings report the median batch

/** Median over kBatches of (batch seconds / calls), in ns. */
double
ns_per_call(Tracer *tracer, const char *name, s64 calls,
            const std::function<void()> &batch)
{
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        Tracer::Scope span = tracer->span(name);
        const Clock::time_point t0 = Clock::now();
        batch();
        ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                     static_cast<double>(calls));
    }
    return median(ns);
}

/** Block positions (top-left, luma) spread over the interior, kept
 * 16 samples clear of every edge for the interpolation taps. */
std::vector<std::pair<int, int>>
block_positions(const Frame &f, int count)
{
    std::vector<std::pair<int, int>> pos;
    const int cols = f.width() / 16 - 2;
    const int rows = f.height() / 16 - 2;
    for (int i = 0; i < count; ++i) {
        const int mb = (i * 7919) % (cols * rows);
        pos.emplace_back(16 + (mb % cols) * 16, 16 + (mb / cols) * 16);
    }
    return pos;
}

void
kernel_census(const Clip &clip, Tracer *tracer, Result *layers)
{
    Tracer::Scope census = tracer->span("census.kernels");
    const Dsp &dsp = get_dsp(best_simd_level());
    const Plane &cur = clip.frames[1].luma();
    const Plane &ref = clip.frames[0].luma();
    const int cs = cur.stride();
    const int rs = ref.stride();
    constexpr int kBlocks = 64;
    constexpr int kReps = 400;
    constexpr s64 kCalls = static_cast<s64>(kBlocks) * kReps;
    const auto pos = block_positions(clip.frames[0], kBlocks);
    std::vector<const Pixel *> a, b;
    for (const auto &[x, y] : pos) {
        a.push_back(cur.row(y) + x);
        b.push_back(ref.row(y + 1) + x + 3);  // a motion-shifted match
    }
    alignas(64) Pixel dst[16 * 16];
    alignas(64) Coeff res[16 * 16];
    volatile s64 sink = 0;

    // Coefficient blocks from real residuals, for the transforms.
    std::vector<std::array<Coeff, 64>> residual(kBlocks), coeffs(kBlocks);
    for (int i = 0; i < kBlocks; ++i) {
        dsp.sub_rect(residual[i].data(), 8, a[i], cs, b[i], rs, 8, 8);
        coeffs[i] = residual[i];
        dsp.fdct8x8(coeffs[i].data());
    }
    auto per_block = [&](auto &&fn) {
        return [&, fn] {
            for (int r = 0; r < kReps; ++r)
                for (int i = 0; i < kBlocks; ++i)
                    fn(i);
        };
    };

    layers->add("simd.sad16x16_ns",
                ns_per_call(tracer, "simd.sad16x16", kCalls,
                            per_block([&](int i) {
                                sink = sink + dsp.sad16x16(a[i], cs, b[i],
                                                           rs);
                            })),
                "ns");
    layers->add("simd.satd16x16_ns",
                ns_per_call(tracer, "simd.satd16x16", kCalls,
                            per_block([&](int i) {
                                sink = sink + dsp.satd_rect(a[i], cs, b[i],
                                                            rs, 16, 16);
                            })),
                "ns");
    layers->add("simd.fdct8x8_ns",
                ns_per_call(tracer, "simd.fdct8x8", kCalls,
                            per_block([&](int i) {
                                alignas(64) Coeff blk[64];
                                std::memcpy(blk, residual[i].data(),
                                            sizeof blk);
                                dsp.fdct8x8(blk);
                                sink = sink + blk[0];
                            })),
                "ns");
    layers->add("simd.sub16_ns",
                ns_per_call(tracer, "simd.sub16", kCalls,
                            per_block([&](int i) {
                                dsp.sub_rect(res, 16, a[i], cs, b[i], rs,
                                             16, 16);
                                sink = sink + res[i];
                            })),
                "ns");
    layers->add("simd.hpel_h16_ns",
                ns_per_call(tracer, "simd.hpel_h16", kCalls,
                            per_block([&](int i) {
                                dsp.h264_hpel_h(dst, 16, b[i], rs, 16, 16);
                                sink = sink + dst[i];
                            })),
                "ns");
    layers->add("simd.hpel_v16_ns",
                ns_per_call(tracer, "simd.hpel_v16", kCalls,
                            per_block([&](int i) {
                                dsp.h264_hpel_v(dst, 16, b[i], rs, 16, 16);
                                sink = sink + dst[i];
                            })),
                "ns");
    layers->add("simd.hpel_hv16_ns",
                ns_per_call(tracer, "simd.hpel_hv16", kCalls,
                            per_block([&](int i) {
                                dsp.h264_hpel_hv(dst, 16, b[i], rs, 16, 16);
                                sink = sink + dst[i];
                            })),
                "ns");
    layers->add("simd.qpel_bilin16_ns",
                ns_per_call(tracer, "simd.qpel_bilin16", kCalls,
                            per_block([&](int i) {
                                dsp.qpel_bilin_rect(dst, 16, b[i], rs, 16,
                                                    16, 1, 3);
                                sink = sink + dst[i];
                            })),
                "ns");
    layers->add("simd.avg16_ns",
                ns_per_call(tracer, "simd.avg16", kCalls,
                            per_block([&](int i) {
                                dsp.avg_rect(dst, 16, a[i], cs, b[i], rs,
                                             16, 16);
                                sink = sink + dst[i];
                            })),
                "ns");
    layers->add("simd.idct8x8_ns",
                ns_per_call(tracer, "simd.idct8x8", kCalls,
                            per_block([&](int i) {
                                alignas(64) Coeff blk[64];
                                std::memcpy(blk, coeffs[i].data(),
                                            sizeof blk);
                                dsp.idct8x8(blk);
                                sink = sink + blk[0];
                            })),
                "ns");
    for (int i = 0; i < 16 * 16; ++i)
        res[i] = static_cast<Coeff>((i * 37) % 33 - 16);
    layers->add("simd.add16_ns",
                ns_per_call(tracer, "simd.add16", kCalls,
                            per_block([&](int i) {
                                (void)i;
                                dsp.add_rect(dst, 16, res, 16, 16, 16);
                                sink = sink + dst[0];
                            })),
                "ns");
}

/** Border-extended copy of @p src's luma, as a codec's reference. */
Frame
reference(const Frame &src)
{
    Frame ref(src.width(), src.height(), kRefBorder);
    ref.copy_from(src);
    ref.extend_borders();
    return ref;
}

int
h264_lambda16(int qp)
{
    // The H.264-class encoder's motion-search rate weight.
    return static_cast<int>(16.0 * std::pow(2.0, (qp - 12) / 6.0));
}

void
me_mc_census(const Clip &clip, Tracer *tracer, Result *layers)
{
    Tracer::Scope census = tracer->span("census.me_mc");
    const Dsp &dsp = get_dsp(best_simd_level());
    const Frame ref_frame = reference(clip.frames[0]);
    const Plane &ref = ref_frame.luma();
    const Plane &cur = clip.frames[1].luma();
    const int w = cur.width();
    const int h = cur.height();
    const CodecConfig mpeg = table4_config(CodecId::kMpeg4, w, h,
                                           best_simd_level());
    const CodecConfig avc = table4_config(CodecId::kH264, w, h,
                                          best_simd_level());
    const MeParams epzs_params{mpeg.me_range, mpeg.qscale * 16, 2, &dsp, 0};
    const MeParams hex_params{avc.me_range, h264_lambda16(avc.qp), 2, &dsp,
                              0};
    const MotionEstimator epzs(epzs_params);
    const MotionEstimator hex(hex_params);
    const int mb_w = w / 16;
    const int mbs = mb_w * (h / 16);

    auto block = [&](int mb) {
        MeBlock blk;
        blk.cur = &cur;
        blk.ref = &ref;
        blk.x0 = (mb % mb_w) * 16;
        blk.y0 = (mb / mb_w) * 16;
        return blk;
    };
    // Times one pass over every macroblock, median of a few passes.
    auto per_mb_us = [&](const char *name, const std::function<void()> &fn) {
        std::vector<double> us;
        for (int pass = 0; pass < 3; ++pass) {
            Tracer::Scope span = tracer->span(name);
            const Clock::time_point t0 = Clock::now();
            fn();
            us.push_back(seconds_between(t0, Clock::now()) * 1e6 / mbs);
        }
        return median(us);
    };

    std::vector<MeResult> epzs_out(mbs), hex_out(mbs);
    std::vector<MeResult> qpel_out(mbs), avc_out(mbs);
    auto run_search = [&](const MotionEstimator &me, bool use_hex,
                          std::vector<MeResult> *out) {
        std::vector<MotionVector> cands;
        for (int mb = 0; mb < mbs; ++mb) {
            cands.clear();
            if (mb % mb_w)
                cands.push_back((*out)[mb - 1].mv);
            const MeBlock blk = block(mb);
            (*out)[mb] = use_hex ? me.hex(blk, MotionVector{}, cands)
                                 : me.epzs(blk, MotionVector{}, cands);
        }
    };
    auto cost_per_mb = [&](const std::vector<MeResult> &out) {
        double sum = 0.0;
        for (const MeResult &r : out)
            sum += r.cost;
        return sum / mbs;
    };
    layers->add("me.epzs_us_per_mb",
                per_mb_us("me.epzs", [&] { run_search(epzs, false,
                                                      &epzs_out); }),
                "us");
    layers->add("me.epzs_cost_per_mb", cost_per_mb(epzs_out), "count");
    layers->add("me.hex_us_per_mb",
                per_mb_us("me.hex", [&] { run_search(hex, true, &hex_out); }),
                "us");
    layers->add("me.hex_cost_per_mb", cost_per_mb(hex_out), "count");

    auto refine = [&](const std::vector<MeResult> &full,
                      const MeParams &params, bool h264,
                      std::vector<MeResult> *out) {
        for (int mb = 0; mb < mbs; ++mb) {
            const MeBlock blk = block(mb);
            const MotionVector start{static_cast<s16>(full[mb].mv.x * 4),
                                     static_cast<s16>(full[mb].mv.y * 4)};
            auto predict = [&](MotionVector mv, Pixel *dst, int ds) {
                if (h264)
                    mc_h264_luma(ref, blk.x0, blk.y0, mv, dst, ds, 16, 16,
                                 dsp);
                else
                    mc_qpel_tap(ref, blk.x0, blk.y0, mv, dst, ds, 16, 16,
                                dsp);
            };
            (*out)[mb] = subpel_refine(blk, start, MotionVector{}, params,
                                       {2, 1}, /*use_satd=*/h264, predict);
        }
    };
    layers->add("me.subpel_h264_us_per_mb",
                per_mb_us("me.subpel_h264",
                          [&] { refine(hex_out, hex_params, true,
                                       &avc_out); }),
                "us");
    layers->add("me.subpel_qpel_us_per_mb",
                per_mb_us("me.subpel_qpel",
                          [&] { refine(epzs_out, epzs_params, false,
                                       &qpel_out); }),
                "us");

    // Motion compensation at the vectors the searches chose.
    alignas(64) Pixel dst[16 * 16];
    volatile int sink = 0;
    auto mc_ns = [&](const char *name, auto &&fn) {
        std::vector<double> ns;
        for (int pass = 0; pass < kBatches; ++pass) {
            Tracer::Scope span = tracer->span(name);
            const Clock::time_point t0 = Clock::now();
            for (int mb = 0; mb < mbs; ++mb) {
                fn(mb);
                sink = sink + dst[mb & 255];
            }
            ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / mbs);
        }
        return median(ns);
    };
    layers->add("mc.h264_luma_ns",
                mc_ns("mc.h264_luma",
                      [&](int mb) {
                          const MeBlock blk = block(mb);
                          mc_h264_luma(ref, blk.x0, blk.y0, avc_out[mb].mv,
                                       dst, 16, 16, 16, dsp);
                      }),
                "ns");
    layers->add("mc.qpel_tap_ns",
                mc_ns("mc.qpel_tap",
                      [&](int mb) {
                          const MeBlock blk = block(mb);
                          mc_qpel_tap(ref, blk.x0, blk.y0, qpel_out[mb].mv,
                                      dst, 16, 16, 16, dsp);
                      }),
                "ns");
    layers->add("mc.halfpel_ns",
                mc_ns("mc.halfpel",
                      [&](int mb) {
                          const MeBlock blk = block(mb);
                          // Half-sample units: the search vector plus a
                          // diagonal half step.
                          const MotionVector mv{
                              static_cast<s16>(epzs_out[mb].mv.x * 2 + 1),
                              static_cast<s16>(epzs_out[mb].mv.y * 2 + 1)};
                          mc_halfpel(ref, blk.x0, blk.y0, mv, dst, 16, 16,
                                     16, dsp);
                      }),
                "ns");
}

void
codec_census(const Clip &clip, Tracer *tracer, Result *layers)
{
    Tracer::Scope census = tracer->span("census.codecs");
    const std::vector<Frame> frames(clip.frames.begin(),
                                    clip.frames.begin() + 7);
    const int w = frames[0].width();
    const int h = frames[0].height();
    s64 steady_allocs = 0;
    s64 steady_frames = 0;
    for (CodecId c : kAllCodecs) {
        const std::string name = codec_name(c);
        const CodecConfig cfg = table4_config(c, w, h, best_simd_level());
        StatusOr<std::unique_ptr<VideoEncoder>> made = make_encoder(c, cfg);
        require(made.status(), "census encoder");
        VideoEncoder &enc = *made.value();
        std::vector<Packet> scratch;

        // The first pass gives the stream. Warm-up passes continue until
        // the reference window is full (H.264 keeps up to refs + 1
        // anchors), so the measured pass runs on a warmed instance and
        // gives time and steady-state allocations.
        std::vector<Packet> packets;
        {
            Tracer::Scope span = tracer->span("census.encode_warm");
            const size_t warm_frames =
                static_cast<size_t>(cfg.bframes + 1) * (cfg.refs + 2);
            for (size_t n = 0; n < warm_frames; n += frames.size()) {
                std::vector<Packet> *out = n ? &scratch : &packets;
                for (const Frame &f : frames)
                    require(enc.encode(f, out), "census encode");
                require(enc.flush(out), "census flush");
            }
        }
        const s64 allocs_before = enc.stats().pool.buffer_allocs;
        std::vector<Packet> steady;
        double encode_s = 0.0;
        {
            Tracer::Scope span = tracer->span("census.encode_steady");
            const Clock::time_point t0 = Clock::now();
            for (const Frame &f : frames)
                require(enc.encode(f, &steady), "census encode");
            require(enc.flush(&steady), "census flush");
            encode_s = seconds_between(t0, Clock::now());
        }
        steady_allocs += enc.stats().pool.buffer_allocs - allocs_before;
        steady_frames += static_cast<s64>(frames.size());
        layers->add(name + ".encode_ms_per_frame",
                    encode_s * 1e3 / frames.size(), "ms");

        std::map<PictureType, std::pair<double, int>> kbit;
        for (const Packet &p : packets) {
            kbit[p.type].first += p.data.size() * 8 / 1e3;
            kbit[p.type].second += 1;
        }
        EncodedStream stream;
        stream.codec = name;
        stream.width = w;
        stream.height = h;
        stream.packets = packets;
        DecodePass dec;
        require(decode_pass(c, cfg, stream, packets.size(), tracer, &dec),
                "census decode");
        std::map<PictureType, std::vector<double>> decode_ms;
        for (size_t i = 0; i < packets.size(); ++i)
            decode_ms[packets[i].type].push_back(dec.packet_ms[i]);
        for (PictureType t : {PictureType::kI, PictureType::kP,
                              PictureType::kB}) {
            const auto &k = kbit[t];
            layers->add(name + ".kbit." + picture_type_name(t),
                        k.second ? k.first / k.second : 0.0, "kbit");
        }
        for (PictureType t : {PictureType::kI, PictureType::kP,
                              PictureType::kB})
            layers->add(name + ".decode_ms." + picture_type_name(t),
                        median(decode_ms[t]), "ms");
        layers->add(name + ".decode_ns_per_bit",
                    dec.codec_seconds * 1e9 /
                        static_cast<double>(stream.total_bits()),
                    "ns");
    }
    layers->add("video.allocs_per_frame_steady",
                static_cast<double>(steady_allocs) / steady_frames, "count");
}

/** Serial replay of the transcode hint path: MPEG-2 decode exporting
 * side info into a HintMap, then an H.264 encode that uses it. */
void
transcode_census(const Clip &clip, Tracer *tracer, Result *layers)
{
    Tracer::Scope census = tracer->span("census.transcode");
    const std::vector<Frame> frames(clip.frames.begin(),
                                    clip.frames.begin() + 7);
    const int w = frames[0].width();
    const int h = frames[0].height();
    const CodecConfig src_cfg = table4_config(CodecId::kMpeg2, w, h,
                                              best_simd_level());
    const CodecConfig dst_cfg = table4_config(CodecId::kH264, w, h,
                                              best_simd_level());
    Tracer off(false, "");
    EncodePass source;
    require(encode_pass(CodecId::kMpeg2, src_cfg, frames, &off, &source),
            "census transcode source");

    auto hints = std::make_shared<HintMap>();
    auto decoder = make_decoder(CodecId::kMpeg2, src_cfg);
    require(decoder.status(), "census transcode decoder");
    require(decoder.value()->export_side_info(hints.get()), "side info");
    std::vector<Frame> decoded;
    double decode_s = 0.0;
    {
        Tracer::Scope span = tracer->span("transcode.decode");
        const Clock::time_point t0 = Clock::now();
        for (const Packet &p : source.stream.packets)
            require(decoder.value()->decode(p, &decoded), "replay decode");
        require(decoder.value()->flush(&decoded), "replay flush");
        decode_s = seconds_between(t0, Clock::now());
    }
    auto encoder = make_encoder(CodecId::kH264, dst_cfg);
    require(encoder.status(), "census transcode encoder");
    require(encoder.value()->use_hints(hints), "use_hints");
    std::vector<Packet> packets;
    double encode_s = 0.0;
    {
        Tracer::Scope span = tracer->span("transcode.encode");
        const Clock::time_point t0 = Clock::now();
        for (const Frame &f : decoded)
            require(encoder.value()->encode(f, &packets), "replay encode");
        require(encoder.value()->flush(&packets), "replay flush");
        encode_s = seconds_between(t0, Clock::now());
    }
    const double n = static_cast<double>(decoded.size());
    layers->add("transcode.decode_ms_per_frame", decode_s * 1e3 / n, "ms");
    layers->add("transcode.encode_ms_per_frame", encode_s * 1e3 / n, "ms");
    const HintMapStats stats = hints->stats();
    layers->add("transcode.hints_taken", static_cast<double>(stats.taken),
                "count");
    layers->add("transcode.hints_missed", static_cast<double>(stats.missed),
                "count");
}

}  // namespace

void
run_census(const Clip &clip, Tracer *tracer, Result *layers)
{
    kernel_census(clip, tracer, layers);
    me_mc_census(clip, tracer, layers);
    codec_census(clip, tracer, layers);
    transcode_census(clip, tracer, layers);
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    layers->add("video.peak_rss_mb", usage.ru_maxrss / 1024.0, "MB");
}

}  // namespace perfbench
