/**
 * @file
 * serve: an open loop against one SessionScheduler. A single generator
 * thread (the runner's main thread) submits every frame at its due time
 * to live-encode and vod-encode sessions of MPEG-2 and MPEG-4 and to
 * thumbnail-decode sessions of all three codecs, in one-second segments;
 * each segment's sessions are then closed and their output compared with
 * the same codec run inline.
 */
#include <algorithm>
#include <random>
#include <thread>

#include "serve/scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kTicks = 50;               // per segment
constexpr double kTickSeconds = 0.020;   // live runs at 50 fps
constexpr double kSegmentPeriod = 1.5;  // 1 s of traffic + drain gap
constexpr double kJitterSeconds = 0.005;
constexpr int kWorkers = 3;

/** One class of traffic: geometry, rate, and what its sessions do. */
struct ClassPlan {
    SessionClass cls;
    bool encode;
    int width;
    int height;
    int every;  ///< submit on every n-th tick
};

constexpr ClassPlan kPlans[kSessionClassCount] = {
    {SessionClass::kLive, true, 96, 64, 1},
    {SessionClass::kVod, true, 176, 144, 2},
    {SessionClass::kThumbnail, false, 176, 144, 2},
};

constexpr int
inputs_per_segment(const ClassPlan &p)
{
    return kTicks / p.every;
}

/**
 * Whether serve runs @p codec in sessions of @p p. H.264 encodes are left
 * out: through the shared FrameArena the H.264 encoder's output depends on
 * the stale pixels of recycled buffers, so it differs from run to run and
 * from the inline run now and then (CHANGES.md, FOUND). Every session
 * that runs uses the arena.
 */
constexpr bool
serves(const ClassPlan &p, CodecId codec)
{
    return !p.encode || codec != CodecId::kH264;
}

/** Forwarding encoder that records each encode() call's duration. */
class TimedEncoder final : public VideoEncoder
{
  public:
    TimedEncoder(std::unique_ptr<VideoEncoder> inner,
                 std::vector<double> *service_ms)
        : inner_(std::move(inner)), service_ms_(service_ms)
    {
    }
    const char *name() const override { return inner_->name(); }
    CodecStats stats() const override { return inner_->stats(); }
    void use_arena(const FrameArena &arena) override
    {
        inner_->use_arena(arena);
    }
    Status
    encode(const Frame &frame, std::vector<Packet> *out) override
    {
        const Clock::time_point t0 = Clock::now();
        Status status = inner_->encode(frame, out);
        service_ms_->push_back(seconds_between(t0, Clock::now()) * 1e3);
        return status;
    }
    Status flush(std::vector<Packet> *out) override
    {
        return inner_->flush(out);
    }

  private:
    std::unique_ptr<VideoEncoder> inner_;
    std::vector<double> *service_ms_;
};

/** Forwarding decoder that records each decode() call's duration. */
class TimedDecoder final : public VideoDecoder
{
  public:
    TimedDecoder(std::unique_ptr<VideoDecoder> inner,
                 std::vector<double> *service_ms)
        : inner_(std::move(inner)), service_ms_(service_ms)
    {
    }
    const char *name() const override { return inner_->name(); }
    CodecStats stats() const override { return inner_->stats(); }
    void use_arena(const FrameArena &arena) override
    {
        inner_->use_arena(arena);
    }
    Status
    decode(const Packet &packet, std::vector<Frame> *out) override
    {
        const Clock::time_point t0 = Clock::now();
        Status status = inner_->decode(packet, out);
        service_ms_->push_back(seconds_between(t0, Clock::now()) * 1e3);
        return status;
    }
    Status flush(std::vector<Frame> *out) override
    {
        return inner_->flush(out);
    }

  private:
    std::unique_ptr<VideoDecoder> inner_;
    std::vector<double> *service_ms_;
};

/** One session of one segment. The session is declared last so it is
 * destroyed before the vectors its codec wrapper writes to. */
struct SessionRun {
    CodecId codec = CodecId::kMpeg2;
    const ClassPlan *plan = nullptr;
    std::vector<double> service_ms;              ///< per ticket
    std::vector<Clock::time_point> due, submitted;  ///< per ticket
    std::shared_ptr<CodecSession> session;
};

struct Event {
    double offset;  ///< seconds after the segment start
    int session;
    int input;      ///< index into the class's inputs
};

class Serve final : public Workload
{
  public:
    explicit Serve(int segments) : fixed_segments_(segments) {}

    void
    setup(u64 seed, std::vector<double> *frame_ms) override
    {
        seed_ = seed;
        live_ = make_clips({{SequenceId::kRushHour, kTicks}}, 96, 64,
                           seed, frame_ms)[0];
        vod_ = make_clips({{SequenceId::kRiverbed, kTicks / 2}}, 176, 144,
                          seed, frame_ms)[0];
        // Thumbnail streams are encoded from the vod clip: at 25 frames
        // a 96x64 clip's quality moved too much from seed to seed.
        Tracer off(false, "");
        for (CodecId c : kAllCodecs) {
            EncodePass pass;
            require(encode_pass(c, config(c, kPlans[2]), vod_.frames, &off,
                                &pass),
                    "serve set-up encode");
            thumb_[static_cast<int>(c)] = std::move(pass.stream);
        }
    }

    void
    execute(double seconds, Tracer *tracer, Result *result, Result *e2e,
            std::vector<PassTime> *passes) override
    {
        int segments =
            fixed_segments_ > 0
                ? fixed_segments_
                : std::max(1, static_cast<int>(seconds / kSegmentPeriod));
        if (fixed_segments_ == 0 && tracer->enabled())
            segments = std::max(segments, kMinTracedRounds);
        SchedulerOptions opt;
        opt.workers = kWorkers;
        SessionScheduler scheduler(opt);
        std::mt19937_64 rng(seed_ ^ 0x5e7e5eedull);

        std::vector<double> live_ms[kCodecCount];
        std::vector<double> service_codec_ms[kCodecCount];
        s64 frames_codec[kCodecCount] = {};
        u64 digests[kCodecCount][kSessionClassCount] = {};
        std::vector<Packet> encoded[kCodecCount][2];  // live, vod
        std::vector<Frame> thumbs[kCodecCount];
        const Clock::time_point t0 = Clock::now();
        for (int seg = 0; seg < segments; ++seg) {
            tracer->set_active(traced_pass(seg, 0));
            Tracer::Scope seg_span = tracer->span("serve.segment");
            std::vector<std::unique_ptr<SessionRun>> runs;
            std::vector<Event> events;
            open_sessions(&scheduler, &runs, result);
            // Each session runs at its own seeded phase within a tick,
            // and every frame arrives with a little seeded jitter.
            std::uniform_real_distribution<double> phase(0.0, kTickSeconds);
            std::uniform_real_distribution<double> jitter(0.0,
                                                          kJitterSeconds);
            for (size_t s = 0; s < runs.size(); ++s) {
                const ClassPlan &p = *runs[s]->plan;
                const double offset = phase(rng);
                for (int i = 0; i < inputs_per_segment(p); ++i)
                    events.push_back(
                        Event{offset + i * p.every * kTickSeconds +
                                  jitter(rng),
                              static_cast<int>(s), i});
            }
            std::stable_sort(events.begin(), events.end(),
                             [](const Event &a, const Event &b) {
                                 return a.offset < b.offset;
                             });
            const Clock::time_point start =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seg *
                                                       kSegmentPeriod));
            for (const Event &ev : events)
                submit(ev, start, *runs[ev.session], &scheduler, tracer,
                       result);
            {
                Tracer::Scope span = tracer->span("serve.close");
                for (auto &run : runs)
                    result->expect(run->session->close().is_ok(),
                                   "serve: session close failed");
            }
            std::vector<double> segment_live_ms;
            for (auto &run : runs) {
                collect(*run, result, &segment_live_ms, live_ms,
                        service_codec_ms, frames_codec);
                const int ci = static_cast<int>(run->codec);
                const int cls = static_cast<int>(run->plan->cls);
                u64 digest = 0;
                if (run->plan->encode) {
                    std::vector<Packet> out;
                    run->session->poll(&out);
                    digest = digest_packets(out);
                    if (seg == 0)
                        encoded[ci][cls] = std::move(out);
                } else {
                    std::vector<Frame> out;
                    run->session->poll(&out);
                    digest = digest_frames(out);
                    if (seg == 0)
                        thumbs[ci] = std::move(out);
                }
                if (seg == 0)
                    digests[ci][cls] = digest;
                result->expect(digest == digests[ci][cls],
                               "serve: " + run->session->name() +
                                   " output of segment " +
                                   std::to_string(seg) +
                                   " differs from segment 0");
            }
            // The segment's median live latency: a mean would follow the
            // one late wake-up a segment may have.
            passes->push_back(PassTime{seg, 0, tracer->active(),
                                       median(segment_live_ms) / 1e3, 1});
            arena_high_water_ =
                std::max(arena_high_water_,
                         scheduler.stats().arena.bytes_high_water);
        }
        tracer->set_active(true);

        // Every session's output must equal the same codec run inline
        // on the same inputs.
        Tracer off(false, "");
        double psnr_y_db[kCodecCount] = {};
        double kbps[kCodecCount] = {};
        for (CodecId c : kAllCodecs) {
            const int ci = static_cast<int>(c);
            // Quality and rate over one segment of the codec's sessions:
            // encode outputs decoded inline, and the thumbnail session's
            // decoded frames, against their sources.
            u64 sse = 0, samples = 0, bits = 0;
            for (const ClassPlan &p : kPlans) {
                if (!serves(p, c))
                    continue;
                const int cls = static_cast<int>(p.cls);
                const std::string label = std::string("serve ") +
                                          session_class_name(p.cls) + " " +
                                          codec_name(c);
                u64 inline_digest = 0;
                std::vector<Frame> decoded;
                const std::vector<Packet> *stream = &thumb_[ci].packets;
                if (p.encode) {
                    EncodePass pass;
                    require(encode_pass(c, config(c, p), inputs(p), &off,
                                        &pass),
                            "serve inline encode");
                    inline_digest = digest_packets(pass.stream.packets);
                    EncodedStream session_out = std::move(pass.stream);
                    session_out.packets = encoded[ci][cls];
                    DecodePass dec;
                    require(decode_pass(c, config(c, p), session_out,
                                        session_out.packets.size(), &off,
                                        &dec),
                            "serve output decode");
                    decoded = std::move(dec.frames);
                    stream = &encoded[ci][cls];
                } else {
                    DecodePass pass;
                    require(decode_pass(c, config(c, p), thumb_[ci],
                                        thumb_[ci].packets.size(), &off,
                                        &pass),
                            "serve inline decode");
                    inline_digest = digest_frames(pass.frames);
                    decoded = std::move(thumbs[ci]);
                }
                result->expect(inline_digest == digests[ci][cls],
                               label + " output differs from the inline "
                                       "run");
                sse += check_decoded(inputs(p), decoded, kPsnrFloorDb,
                                     label, result);
                samples += static_cast<u64>(inputs(p).size()) * p.width *
                           p.height;
                bits += packet_bits(*stream);
            }
            psnr_y_db[ci] = psnr_db(sse, samples);
            kbps[ci] = static_cast<double>(bits) / (kTicks * kTickSeconds) /
                       1e3;
        }

        std::vector<std::vector<double>> live_sets;
        for (CodecId c : kAllCodecs) {
            const int ci = static_cast<int>(c);
            double busy_ms = 0.0;
            for (double ms : service_codec_ms[ci])
                busy_ms += ms;
            e2e->add(std::string("fps.") + codec_name(c),
                     frames_codec[ci] / (busy_ms / 1e3), "1/s");
            if (serves(kPlans[0], c))
                live_sets.push_back(live_ms[ci]);
        }
        e2e->add("frame_ms.p50", geomean_quantile(live_sets, 0.50), "ms");
        live_ms_p99_ = geomean_quantile(live_sets, 0.99);
        for (CodecId c : kAllCodecs)
            e2e->add(std::string("psnr_y_db.") + codec_name(c),
                     psnr_y_db[static_cast<int>(c)], "dB");
        for (CodecId c : kAllCodecs)
            e2e->add(std::string("kbps.") + codec_name(c),
                     kbps[static_cast<int>(c)], "kbit/s");
    }

    const Clip &clip_for_census() const override { return vod_; }

    bool
    serve_layers(Result *layers) const override
    {
        layers->add("serve.live_ms_p99", live_ms_p99_, "ms");
        layers->add("serve.queue_wait_ms_p50", quantile(queue_wait_ms_, 0.5),
                    "ms");
        layers->add("serve.queue_wait_ms_p99",
                    quantile(queue_wait_ms_, 0.99), "ms");
        layers->add("serve.backlog_max", static_cast<double>(backlog_max_),
                    "count");
        layers->add("serve.submit_us_p50", quantile(submit_us_, 0.5), "us");
        for (const ClassPlan &p : kPlans)
            layers->add(std::string("serve.service_ms_p50.") +
                            session_class_name(p.cls),
                        quantile(service_class_ms_[static_cast<int>(p.cls)],
                                 0.5),
                        "ms");
        layers->add("serve.generator_lag_ms_max", lag_ms_max_, "ms");
        layers->add("serve.arena_high_water_mb",
                    static_cast<double>(arena_high_water_) / (1 << 20), "MB");
        return true;
    }

  private:
    static CodecConfig
    config(CodecId c, const ClassPlan &p)
    {
        CodecConfig cfg = table4_config(c, p.width, p.height,
                                        best_simd_level());
        // A live encoder cannot wait for future frames: no B pictures.
        if (p.cls == SessionClass::kLive)
            cfg.bframes = 0;
        return cfg;
    }

    /** Source frames of class @p p (thumbnail: of its set-up streams). */
    const std::vector<Frame> &
    inputs(const ClassPlan &p) const
    {
        return p.cls == SessionClass::kLive ? live_.frames : vod_.frames;
    }

    void
    open_sessions(SessionScheduler *scheduler,
                  std::vector<std::unique_ptr<SessionRun>> *runs,
                  Result *result)
    {
        for (const ClassPlan &p : kPlans) {
            for (CodecId c : kAllCodecs) {
                if (!serves(p, c))
                    continue;
                auto run = std::make_unique<SessionRun>();
                run->codec = c;
                run->plan = &p;
                SessionConfig sc;
                sc.name = std::string(session_class_name(p.cls)) + "-" +
                          codec_name(c);
                sc.priority = p.cls;
                sc.codec_config = config(c, p);
                StatusOr<std::shared_ptr<CodecSession>> session =
                    Status::unavailable("not opened");
                if (p.encode) {
                    auto enc = make_encoder(c, sc.codec_config);
                    require(enc.status(), "serve encoder");
                    session = scheduler->open_encode(
                        std::make_unique<TimedEncoder>(
                            std::move(enc.value()), &run->service_ms),
                        sc);
                } else {
                    auto dec = make_decoder(c, sc.codec_config);
                    require(dec.status(), "serve decoder");
                    session = scheduler->open_decode(
                        std::make_unique<TimedDecoder>(
                            std::move(dec.value()), &run->service_ms),
                        sc);
                }
                result->expect(session.is_ok(), "serve: admission failed");
                require(session.status(), "serve admission");
                run->session = session.value();
                runs->push_back(std::move(run));
            }
        }
    }

    void
    submit(const Event &ev, Clock::time_point start, SessionRun &run,
           SessionScheduler *scheduler, Tracer *tracer, Result *result)
    {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(ev.offset));
        // The input copy is made before the due time, off the clock.
        Frame frame;
        Packet packet;
        if (run.plan->encode)
            frame = inputs(*run.plan)[ev.input];
        else
            packet = thumb_[static_cast<int>(run.codec)].packets[ev.input];
        std::this_thread::sleep_until(due);
        const Clock::time_point t0 = Clock::now();
        lag_ms_max_ = std::max(lag_ms_max_, seconds_between(due, t0) * 1e3);
        result->attempted += 1;
        StatusOr<Ticket> ticket = Status::unavailable("not submitted");
        {
            Tracer::Scope span = tracer->span("serve.submit");
            ticket = run.plan->encode ? run.session->submit(std::move(frame))
                                      : run.session->submit(std::move(packet));
        }
        const Clock::time_point t1 = Clock::now();
        if (!ticket.is_ok()) {
            result->failed += 1;
            return;
        }
        submit_us_.push_back(seconds_between(t0, t1) * 1e6);
        backlog_max_ = std::max(backlog_max_, scheduler->stats().backlog);
        run.due.push_back(due);
        run.submitted.push_back(t0);
    }

    void
    collect(SessionRun &run, Result *result,
            std::vector<double> *segment_live_ms,
            std::vector<double> (&live_ms)[kCodecCount],
            std::vector<double> (&service_codec_ms)[kCodecCount],
            s64 (&frames_codec)[kCodecCount])
    {
        const SessionCounters counters = run.session->counters();
        result->expect(counters.submitted == counters.completed &&
                           counters.submitted ==
                               static_cast<s64>(run.due.size()),
                       "serve: " + run.session->name() +
                           " completed fewer tickets than submitted");
        result->expect(run.service_ms.size() == run.due.size(),
                       "serve: codec calls differ from tickets");
        const int ci = static_cast<int>(run.codec);
        const int cls = static_cast<int>(run.plan->cls);
        for (const TicketResult &tr : run.session->take_results()) {
            const size_t t = static_cast<size_t>(tr.ticket);
            if (!tr.status.is_ok() || t >= run.due.size() ||
                t >= run.service_ms.size()) {
                result->failed += 1;
                continue;
            }
            const double service = run.service_ms[t];
            queue_wait_ms_.push_back(tr.latency_seconds * 1e3 - service);
            service_class_ms_[cls].push_back(service);
            service_codec_ms[ci].push_back(service);
            frames_codec[ci] += 1;
            if (run.plan->cls == SessionClass::kLive) {
                const double from_due_ms =
                    (seconds_between(run.due[t], run.submitted[t]) +
                     tr.latency_seconds) *
                    1e3;
                live_ms[ci].push_back(from_due_ms);
                segment_live_ms->push_back(from_due_ms);
            }
        }
    }

    int fixed_segments_;
    u64 seed_ = 0;
    Clip live_, vod_;
    EncodedStream thumb_[kCodecCount];

    // Per-layer observations.
    std::vector<double> queue_wait_ms_, submit_us_;
    std::vector<double> service_class_ms_[kSessionClassCount];
    s64 backlog_max_ = 0;
    double lag_ms_max_ = 0.0;
    double live_ms_p99_ = 0.0;
    s64 arena_high_water_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
make_serve(int segments)
{
    return std::make_unique<Serve>(segments);
}

}  // namespace perfbench
