/**
 * @file
 * vod-encode, playback and transcode: the three closed-loop workloads.
 * Each round runs the same codec operations on the same set-up inputs,
 * so every round must produce byte-identical output (checked).
 */
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>

#include "transcode/transcode.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kFrameRate = 25.0;  // every clip is 25 fps material

/** Per-codec accumulation across a run. */
struct Tally {
    std::vector<double> fps;  ///< one sample per round
    std::vector<double> frame_ms;  ///< time per picture
    u64 sse = 0;
    u64 samples = 0;
    u64 bits = 0;
    s64 frames = 0;  ///< frames behind `bits`
};

void
emit_e2e(const Tally (&tally)[kCodecCount], Result *e2e)
{
    std::vector<std::vector<double>> frame_ms;
    for (CodecId c : kAllCodecs) {
        const Tally &t = tally[static_cast<int>(c)];
        e2e->add(std::string("fps.") + codec_name(c), median(t.fps), "1/s");
        frame_ms.push_back(t.frame_ms);
    }
    e2e->add("frame_ms.p50", geomean_quantile(frame_ms, 0.50), "ms");
    for (CodecId c : kAllCodecs) {
        const Tally &t = tally[static_cast<int>(c)];
        e2e->add(std::string("psnr_y_db.") + codec_name(c),
                 psnr_db(t.sse, t.samples), "dB");
    }
    for (CodecId c : kAllCodecs) {
        const Tally &t = tally[static_cast<int>(c)];
        e2e->add(std::string("kbps.") + codec_name(c),
                 t.frames ? static_cast<double>(t.bits) / t.frames *
                                kFrameRate / 1e3
                          : 0.0,
                 "kbit/s");
    }
}

/** Decode @p stream and run the display-order/PSNR checks against
 * @p source; adds its SSE and bits to @p t. */
void
check_stream(CodecId codec, const CodecConfig &config,
             const EncodedStream &stream, const std::vector<Frame> &source,
             const std::string &label, Tally *t, Result *result)
{
    Tracer off(false, "");
    DecodePass dec;
    require(decode_pass(codec, config, stream, stream.packets.size(), &off,
                        &dec),
            label + ": decode");
    t->sse += check_decoded(source, dec.frames, kPsnrFloorDb, label,
                            result);
    t->samples += static_cast<u64>(source.size()) * source[0].width() *
                  source[0].height();
    result->expect(packet_bits(stream.packets) == stream.total_bits(),
                   label + ": packet bits differ from total_bits()");
    t->bits += stream.total_bits();
    t->frames += static_cast<s64>(source.size());
}

/**
 * The properties checked on a short prefix: the best SIMD tier's
 * stream and decoded frames are byte-identical to the scalar kernels',
 * and a coarser quantiser gives strictly fewer bits and strictly lower
 * PSNR.
 */
void
check_prefix(CodecId codec, const std::vector<Frame> &source,
             Result *result)
{
    const std::string label = std::string(codec_name(codec)) + " prefix";
    const int w = source[0].width();
    const int h = source[0].height();
    Tracer off(false, "");
    auto encode_decode = [&](const CodecConfig &cfg, EncodePass *enc,
                             DecodePass *dec) {
        require(encode_pass(codec, cfg, source, &off, enc), label);
        require(decode_pass(codec, cfg, enc->stream,
                            enc->stream.packets.size(), &off, dec),
                label);
    };
    const CodecConfig best = table4_config(codec, w, h, best_simd_level());
    const CodecConfig scalar = table4_config(codec, w, h, SimdLevel::kScalar);
    CodecConfig coarse = best;
    coarse.qscale += 4;
    coarse.qp += 6;
    EncodePass e_best, e_scalar, e_coarse;
    DecodePass d_best, d_scalar, d_coarse;
    encode_decode(best, &e_best, &d_best);
    encode_decode(scalar, &e_scalar, &d_scalar);
    encode_decode(coarse, &e_coarse, &d_coarse);
    result->expect(digest_packets(e_best.stream.packets) ==
                       digest_packets(e_scalar.stream.packets),
                   label + ": stream differs between " +
                       simd_level_name(best.simd) + " and scalar");
    result->expect(digest_frames(d_best.frames) ==
                       digest_frames(d_scalar.frames),
                   label + ": decoded frames differ between " +
                       simd_level_name(best.simd) + " and scalar");
    const u64 sse_best = check_decoded(source, d_best.frames, 0.0, label,
                                       result);
    const u64 sse_coarse = check_decoded(source, d_coarse.frames, 0.0,
                                         label + " coarse", result);
    result->expect(e_coarse.stream.total_bits() <
                       e_best.stream.total_bits(),
                   label + ": coarser quantiser did not save bits");
    result->expect(sse_coarse > sse_best,
                   label + ": coarser quantiser did not lower PSNR");
}

constexpr int kPrefixFrames = 4;  // I P B B

std::vector<Frame>
prefix(const std::vector<Frame> &frames)
{
    return std::vector<Frame>(frames.begin(),
                              frames.begin() + kPrefixFrames);
}

/**
 * Run whole rounds of @p passes passes until @p seconds have passed (a
 * traced run makes at least kMinTracedRounds). In a traced run pass p of
 * round r is traced when traced_pass(r, p), so each pass is traced and
 * untraced in turn; @p pass_fn(round, pass, &time) runs one pass and
 * fills its time.
 */
template <typename PassFn>
void
run_rounds(double seconds, int passes, Tracer *tracer,
           std::vector<PassTime> *times, PassFn &&pass_fn)
{
    const Clock::time_point t0 = Clock::now();
    for (int round = 0;; ++round) {
        for (int pass = 0; pass < passes; ++pass) {
            tracer->set_active(traced_pass(round, pass));
            PassTime pt{round, pass, tracer->active(), 0.0, 0};
            pass_fn(round, pass, &pt);
            times->push_back(pt);
        }
        if (seconds_between(t0, Clock::now()) >= seconds &&
            (!tracer->enabled() || round + 1 >= kMinTracedRounds))
            break;
    }
    tracer->set_active(true);
}

// ------------------------------------------------------------ vod-encode

class VodEncode final : public Workload
{
  public:
    void
    setup(u64 seed, std::vector<double> *frame_ms) override
    {
        clips_ = make_clips({{SequenceId::kBlueSky, kFrames},
                             {SequenceId::kRiverbed, kFrames}},
                            1280, 720, seed, frame_ms);
    }

    void
    execute(double seconds, Tracer *tracer, Result *result, Result *e2e,
            std::vector<PassTime> *passes) override
    {
        Tally tally[kCodecCount];
        EncodedStream first[kCodecCount][2];
        double codec_s = 0.0;  // of the current codec in this round
        s64 frames = 0;
        run_rounds(seconds, kCodecCount * 2, tracer, passes,
                   [&](int round, int pass, PassTime *pt) {
            const CodecId c = kAllCodecs[pass / 2];
            const int ci = static_cast<int>(c);
            const int k = pass % 2;
            if (k == 0) {
                codec_s = 0.0;
                frames = 0;
            }
            const std::vector<Frame> &src = clips_[k].frames;
            result->attempted += static_cast<s64>(src.size());
            EncodePass enc;
            const Status status = encode_pass(c, config(c), src, tracer,
                                              &enc);
            if (!status.is_ok()) {
                result->failed += static_cast<s64>(src.size());
                return;
            }
            codec_s += enc.codec_seconds;
            frames += static_cast<s64>(src.size());
            if (k == 1 && codec_s > 0.0)
                tally[ci].fps.push_back(frames / codec_s);
            tally[ci].frame_ms.insert(tally[ci].frame_ms.end(),
                                      enc.picture_ms.begin(),
                                      enc.picture_ms.end());
            pt->seconds = enc.codec_seconds;
            pt->frames = static_cast<s64>(src.size());
            if (round == 0)
                first[ci][k] = std::move(enc.stream);
            else
                result->expect(digest_packets(enc.stream.packets) ==
                                   digest_packets(first[ci][k].packets),
                               std::string(codec_name(c)) +
                                   ": encode differs between rounds");
        });

        for (CodecId c : kAllCodecs) {
            const int ci = static_cast<int>(c);
            for (int k = 0; k < 2; ++k)
                if (!first[ci][k].packets.empty())
                    check_stream(c, config(c), first[ci][k],
                                 clips_[k].frames,
                                 std::string(codec_name(c)) + "/" +
                                     sequence_name(clips_[k].seq),
                                 &tally[ci], result);
            check_prefix(c, prefix(clips_[0].frames), result);
        }
        emit_e2e(tally, e2e);
    }

    const Clip &clip_for_census() const override { return clips_[0]; }

  private:
    static constexpr int kFrames = 7;  // I P B B P B B

    static CodecConfig
    config(CodecId c)
    {
        return table4_config(c, 1280, 720, best_simd_level());
    }

    std::vector<Clip> clips_;
};

// ------------------------------------------------------------- playback

class Playback final : public Workload
{
  public:
    void
    setup(u64 seed, std::vector<double> *frame_ms) override
    {
        clips_ = make_clips({{SequenceId::kRushHour, kFrames},
                             {SequenceId::kRiverbed, kFrames}},
                            kWidth, kHeight, seed, frame_ms);
        // The six streams are encoded concurrently, H.264 first as it
        // takes longest.
        std::vector<std::pair<CodecId, int>> jobs;
        for (int c = kCodecCount - 1; c >= 0; --c)
            for (int k = 0; k < 2; ++k)
                jobs.emplace_back(kAllCodecs[c], k);
        std::atomic<size_t> next{0};
        std::vector<Status> status(jobs.size());
        auto worker = [&] {
            Tracer off(false, "");
            for (size_t j = next++; j < jobs.size(); j = next++) {
                const auto [c, k] = jobs[j];
                EncodePass pass;
                status[j] = encode_pass(c, config(c), clips_[k].frames,
                                        &off, &pass);
                streams_[static_cast<int>(c)][k] = std::move(pass.stream);
            }
        };
        std::vector<std::thread> threads;
        for (int t = 1; t < kSetupThreads; ++t)
            threads.emplace_back(worker);
        worker();
        for (std::thread &t : threads)
            t.join();
        for (const Status &s : status)
            require(s, "playback set-up encode");
    }

    void
    execute(double seconds, Tracer *tracer, Result *result, Result *e2e,
            std::vector<PassTime> *passes) override
    {
        Tally tally[kCodecCount];
        std::vector<Frame> first[kCodecCount][2];
        double codec_s = 0.0;  // of the current codec in this round
        s64 frames = 0;
        run_rounds(seconds, kCodecCount * 2, tracer, passes,
                   [&](int round, int pass, PassTime *pt) {
            const CodecId c = kAllCodecs[pass / 2];
            const int ci = static_cast<int>(c);
            const int k = pass % 2;
            if (k == 0) {
                codec_s = 0.0;
                frames = 0;
            }
            const EncodedStream &stream = streams_[ci][k];
            const s64 n = static_cast<s64>(stream.packets.size());
            result->attempted += n;
            DecodePass dec;
            const Status status = decode_pass(c, config(c), stream,
                                              stream.packets.size(), tracer,
                                              &dec);
            if (!status.is_ok()) {
                result->failed += n;
                return;
            }
            codec_s += dec.codec_seconds;
            frames += n;
            if (k == 1 && codec_s > 0.0)
                tally[ci].fps.push_back(frames / codec_s);
            tally[ci].frame_ms.insert(tally[ci].frame_ms.end(),
                                      dec.packet_ms.begin(),
                                      dec.packet_ms.end());
            pt->seconds = dec.codec_seconds;
            pt->frames = n;
            if (round == 0)
                first[ci][k] = std::move(dec.frames);
            else
                result->expect(digest_frames(dec.frames) ==
                                   digest_frames(first[ci][k]),
                               std::string(codec_name(c)) +
                                   ": decode differs between rounds");
        });

        Tracer off(false, "");
        for (CodecId c : kAllCodecs) {
            const int ci = static_cast<int>(c);
            for (int k = 0; k < 2; ++k) {
                const std::string label = std::string(codec_name(c)) +
                                          "/" +
                                          sequence_name(clips_[k].seq);
                Tally &t = tally[ci];
                t.sse += check_decoded(clips_[k].frames, first[ci][k],
                                       kPsnrFloorDb, label, result);
                t.samples += static_cast<u64>(kFrames) * kWidth * kHeight;
                const EncodedStream &stream = streams_[ci][k];
                result->expect(packet_bits(stream.packets) ==
                                   stream.total_bits(),
                               label + ": packet bits differ from "
                                       "total_bits()");
                t.bits += stream.total_bits();
                t.frames += kFrames;
            }
            // The scalar kernels must decode the same bytes to the same
            // pixels.
            DecodePass best, scalar;
            require(decode_pass(c, config(c), streams_[ci][0],
                                kPrefixFrames, &off, &best),
                    "prefix decode");
            require(decode_pass(c,
                                table4_config(c, kWidth, kHeight,
                                              SimdLevel::kScalar),
                                streams_[ci][0], kPrefixFrames, &off,
                                &scalar),
                    "prefix decode");
            result->expect(best.frames.size() == kPrefixFrames &&
                               digest_frames(best.frames) ==
                                   digest_frames(scalar.frames),
                           std::string(codec_name(c)) +
                               ": scalar decode differs on the prefix");
        }
        emit_e2e(tally, e2e);
    }

    const Clip &clip_for_census() const override { return clips_[0]; }

  private:
    static constexpr int kFrames = 7;
    static constexpr int kWidth = 1920;
    static constexpr int kHeight = 1088;

    static CodecConfig
    config(CodecId c)
    {
        return table4_config(c, kWidth, kHeight, best_simd_level());
    }

    std::vector<Clip> clips_;
    EncodedStream streams_[kCodecCount][2];
};

// ------------------------------------------------------------ transcode

class Transcode final : public Workload
{
  public:
    void
    setup(u64 seed, std::vector<double> *frame_ms) override
    {
        clips_ = make_clips({{SequenceId::kRushHour, kFrames}}, 1280, 720,
                            seed, frame_ms);
        Tracer off(false, "");
        CodecConfig cfg = table4_config(CodecId::kMpeg2, 1280, 720,
                                        best_simd_level());
        cfg.threads = 3;
        EncodePass pass;
        require(encode_pass(CodecId::kMpeg2, cfg, clips_[0].frames, &off,
                            &pass),
                "transcode set-up encode");
        source_ = std::move(pass.stream);
    }

    void
    execute(double seconds, Tracer *tracer, Result *result, Result *e2e,
            std::vector<PassTime> *passes) override
    {
        Tally tally[kCodecCount];
        TranscodeResult first[kCodecCount];
        run_rounds(seconds, kCodecCount, tracer, passes,
                   [&](int round, int pass, PassTime *pt) {
            const CodecId c = kAllCodecs[pass];
            const int ci = static_cast<int>(c);
            result->attempted += kFrames;
            StatusOr<TranscodeResult> out = Status::unavailable("not run");
            {
                Tracer::Scope span = tracer->span("transcode.engine_run");
                out = TranscodeEngine(options(c)).run(source_);
            }
            if (!out.is_ok()) {
                result->failed += kFrames;
                return;
            }
            const TranscodeStats &stats = out.value().stats;
            tally[ci].fps.push_back(stats.fps());
            tally[ci].frame_ms.push_back(stats.seconds * 1e3 /
                                         static_cast<double>(stats.frames));
            pt->seconds = stats.seconds;
            pt->frames = stats.frames;
            if (round == 0)
                first[ci] = std::move(out.value());
            else
                result->expect(digest_packets(out.value().stream.packets) ==
                                   digest_packets(first[ci].stream.packets),
                               std::string("mpeg2->") + codec_name(c) +
                                   ": output differs between rounds");
        });

        for (CodecId c : kAllCodecs) {
            const int ci = static_cast<int>(c);
            const TranscodeResult &r = first[ci];
            if (r.stream.packets.empty())
                continue;
            const std::string label = std::string("mpeg2->") +
                                      codec_name(c);
            check_stream(c, options(c).encoder_config, r.stream,
                         clips_[0].frames, label, &tally[ci], result);
            result->expect(r.stats.frames == kFrames,
                           label + ": frame count changed");
            result->expect(r.stats.hints.taken == kFrames &&
                               r.stats.hints.missed == 0,
                           label + ": not every picture was hinted");
            result->expect(static_cast<u64>(r.stats.bits_out) ==
                               packet_bits(r.stream.packets),
                           label + ": bits_out differs from packets");
        }
        emit_e2e(tally, e2e);
    }

    const Clip &clip_for_census() const override { return clips_[0]; }

  private:
    static constexpr int kFrames = 10;  // I P B B P B B P B B

    static TranscodeOptions
    options(CodecId to)
    {
        TranscodeOptions opt = transcode_benchmark_options(
            CodecId::kMpeg2, to, Resolution::k720p25, best_simd_level());
        opt.reuse_analysis = true;
        opt.workers = 2;
        return opt;
    }

    std::vector<Clip> clips_;
    EncodedStream source_;
};

}  // namespace

std::unique_ptr<Workload>
make_workload(const std::string &name)
{
    if (name == "vod-encode")
        return std::make_unique<VodEncode>();
    if (name == "playback")
        return std::make_unique<Playback>();
    if (name == "transcode")
        return std::make_unique<Transcode>();
    if (name == "serve")
        return make_serve();
    return nullptr;
}

}  // namespace perfbench
