#include "common.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/json_writer.h"
#include "common/stats.h"
#include "metrics/psnr.h"

namespace perfbench {

// ---------------------------------------------------------------- tracer

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), active_(enabled), run_id_(std::move(run_id)),
      epoch_(Clock::now())
{
}

s64
Tracer::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Scope
Tracer::span(const char *name)
{
    if (!active_)
        return Scope(nullptr, -1);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), -1, parent});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return Scope(this, index);
}

void
Tracer::close(int index)
{
    spans_[index].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

bool
Tracer::write_json(const std::string &path) const
{
    JsonWriter w;
    w.begin_object().field("run_id", run_id_).key("spans").begin_array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.begin_object()
            .field("id", static_cast<s64>(i))
            .field("name", s.name)
            .field("start_ns", s.start_ns)
            .field("end_ns", s.end_ns)
            .field("parent", s.parent)
            .field("run_id", run_id_)
            .end_object();
    }
    w.end_array().end_object();
    return w.write_file(path).is_ok();
}

void
Tracer::print_self_times(std::FILE *out) const
{
    struct Row {
        s64 calls = 0;
        s64 total_ns = 0;
        s64 self_ns = 0;
    };
    std::vector<s64> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Row &row = rows[spans_[i].name];
        const s64 dur = spans_[i].end_ns - spans_[i].start_ns;
        ++row.calls;
        row.total_ns += dur;
        row.self_ns += dur - child_ns[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(), [](auto &a, auto &b) {
        return a.second.self_ns > b.second.self_ns;
    });
    std::fprintf(out, "trace: run %s, %zu spans\n", run_id_.c_str(),
                 spans_.size());
    std::fprintf(out, "trace: %-34s %10s %12s %12s\n", "span", "calls",
                 "total_ms", "self_ms");
    for (const auto &[name, row] : sorted)
        std::fprintf(out, "trace: %-34s %10" PRId64 " %12.3f %12.3f\n",
                     name.c_str(), row.calls, row.total_ns / 1e6,
                     row.self_ns / 1e6);
}

// ---------------------------------------------------------------- result

void
Result::add(const std::string &name, double value, const char *unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Result::expect(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
}

std::string
Result::to_json() const
{
    JsonWriter w;
    w.begin_object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .key("metrics")
        .begin_object();
    for (const Metric &m : metrics) {
        w.key(m.name).begin_object();
        w.field("value", m.value).field("unit", m.unit).end_object();
    }
    w.end_object().end_object();
    return w.str();
}

// ---------------------------------------------------------------- inputs

int
start_index(u64 seed, int clip)
{
    // Spread seeds over the first ~10k source frames; clips of one
    // seed start at different indices so they are not the same frames.
    return static_cast<int>((seed * 7919u + clip * 613u) % 9973u);
}

std::vector<Clip>
make_clips(const std::vector<ClipSpec> &specs, int width, int height,
           u64 seed, std::vector<double> *frame_ms)
{
    std::vector<Clip> clips(specs.size());
    struct Job {
        size_t clip;
        int index;
    };
    std::vector<Job> jobs;
    for (size_t c = 0; c < specs.size(); ++c) {
        clips[c].seq = specs[c].seq;
        clips[c].start = start_index(seed, static_cast<int>(c));
        for (int i = 0; i < specs[c].frames; ++i) {
            clips[c].frames.emplace_back(width, height);
            jobs.push_back(Job{c, i});
        }
    }
    std::vector<double> ms(jobs.size(), 0.0);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t j = next++; j < jobs.size(); j = next++) {
            Clip &clip = clips[jobs[j].clip];
            Frame &frame = clip.frames[jobs[j].index];
            const Clock::time_point t0 = Clock::now();
            generate_frame(clip.seq, clip.start + jobs[j].index, &frame);
            ms[j] = seconds_between(t0, Clock::now()) * 1e3;
            frame.set_poc(jobs[j].index);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kSetupThreads; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    if (frame_ms)
        frame_ms->insert(frame_ms->end(), ms.begin(), ms.end());
    return clips;
}

CodecConfig
table4_config(CodecId codec, int width, int height, SimdLevel simd)
{
    CodecConfig cfg = benchmark_config(codec, Resolution::k720p25, simd);
    cfg.width = width;
    cfg.height = height;
    return cfg;
}

// ---------------------------------------------------------------- codecs

Status
encode_pass(CodecId codec, const CodecConfig &config,
            const std::vector<Frame> &frames, Tracer *tracer,
            EncodePass *out)
{
    StatusOr<std::unique_ptr<VideoEncoder>> made =
        make_encoder(codec, config);
    if (!made.is_ok())
        return made.status();
    VideoEncoder &encoder = *made.value();
    *out = EncodePass{};
    out->stream.codec = codec_name(codec);
    out->stream.width = config.width;
    out->stream.height = config.height;
    out->stream.fps_num = config.fps_num;
    out->stream.fps_den = config.fps_den;
    std::vector<Packet> &packets = out->stream.packets;
    double pending = 0.0;  // call time not yet charged to a picture
    for (size_t i = 0; i <= frames.size(); ++i) {
        const size_t before = packets.size();
        Status status;
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope scope = tracer->span(
                i < frames.size() ? "codec.encode" : "codec.flush");
            status = i < frames.size() ? encoder.encode(frames[i], &packets)
                                       : encoder.flush(&packets);
        }
        const double dt = seconds_between(t0, Clock::now());
        if (!status.is_ok())
            return status;
        out->codec_seconds += dt;
        pending += dt;
        const size_t emitted = packets.size() - before;
        if (emitted) {
            for (size_t k = 0; k < emitted; ++k)
                out->picture_ms.push_back(pending * 1e3 / emitted);
            pending = 0.0;
        }
    }
    return Status::ok();
}

Status
decode_pass(CodecId codec, const CodecConfig &config,
            const EncodedStream &stream, size_t packet_count,
            Tracer *tracer, DecodePass *out)
{
    StatusOr<std::unique_ptr<VideoDecoder>> made =
        make_decoder(codec, config);
    if (!made.is_ok())
        return made.status();
    VideoDecoder &decoder = *made.value();
    *out = DecodePass{};
    packet_count = std::min(packet_count, stream.packets.size());
    for (size_t i = 0; i <= packet_count; ++i) {
        Status status;
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope scope = tracer->span(
                i < packet_count ? "codec.decode" : "codec.flush");
            status = i < packet_count
                         ? decoder.decode(stream.packets[i], &out->frames)
                         : decoder.flush(&out->frames);
        }
        const double dt = seconds_between(t0, Clock::now());
        if (!status.is_ok())
            return status;
        out->codec_seconds += dt;
        if (i < packet_count)
            out->packet_ms.push_back(dt * 1e3);
    }
    return Status::ok();
}

// ---------------------------------------------------------------- checks

u64
plain_sse_y(const Frame &a, const Frame &b)
{
    u64 sse = 0;
    for (int y = 0; y < a.height(); ++y) {
        const Pixel *pa = a.luma().row(y);
        const Pixel *pb = b.luma().row(y);
        for (int x = 0; x < a.width(); ++x) {
            const int d = static_cast<int>(pa[x]) - pb[x];
            sse += static_cast<u64>(d * d);
        }
    }
    return sse;
}

double
psnr_db(u64 sse, u64 samples)
{
    if (samples == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (sse == 0)
        return 99.0;
    return 10.0 * std::log10(255.0 * 255.0 * static_cast<double>(samples) /
                             static_cast<double>(sse));
}

u64
fnv1a(const void *data, size_t size, u64 h)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

u64
digest_packets(const std::vector<Packet> &packets)
{
    u64 h = fnv1a(nullptr, 0);
    for (const Packet &p : packets) {
        const s64 meta[3] = {static_cast<s64>(p.type), p.poc,
                             p.coding_index};
        h = fnv1a(meta, sizeof meta, h);
        h = fnv1a(p.data.data(), p.data.size(), h);
    }
    return h;
}

u64
digest_frames(const std::vector<Frame> &frames)
{
    u64 h = fnv1a(nullptr, 0);
    for (const Frame &f : frames) {
        for (int i = 0; i < 3; ++i) {
            const Plane &p = f.plane(i);
            for (int y = 0; y < p.height(); ++y)
                h = fnv1a(p.row(y), static_cast<size_t>(p.width()), h);
        }
    }
    return h;
}

u64
packet_bits(const std::vector<Packet> &packets)
{
    u64 bits = 0;
    for (const Packet &p : packets)
        bits += 8ull * p.data.size();
    return bits;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    sort_samples(&v);
    return percentile_sorted(v, q);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    sort_samples(&v);
    return median_sorted(v);
}

double
geomean_quantile(const std::vector<std::vector<double>> &samples, double q)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (const std::vector<double> &v : samples)
        log_sum += std::log(quantile(v, q));
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

u64
check_decoded(const std::vector<Frame> &source,
              const std::vector<Frame> &decoded, double floor_db,
              const std::string &label, Result *result)
{
    result->expect(decoded.size() == source.size(),
                   label + ": decoded " + std::to_string(decoded.size()) +
                       " frames, submitted " +
                       std::to_string(source.size()));
    PsnrAccumulator acc;
    u64 sse = 0;
    const size_t n = std::min(source.size(), decoded.size());
    const u64 samples =
        n ? static_cast<u64>(source[0].width()) * source[0].height() : 0;
    for (size_t i = 0; i < n; ++i) {
        result->expect(decoded[i].poc() == static_cast<s64>(i),
                       label + ": frame " + std::to_string(i) +
                           " out of display order");
        const u64 frame_sse = plain_sse_y(source[i], decoded[i]);
        result->expect(psnr_db(frame_sse, samples) >= floor_db,
                       label + ": frame " + std::to_string(i) +
                           " below the PSNR floor");
        sse += frame_sse;
        acc.add(source[i], decoded[i]);
    }
    const double plain = psnr_db(sse, samples * n);
    result->expect(n > 0 && std::fabs(plain - acc.psnr_y()) < 1e-9,
                   label + ": plain-loop PSNR differs from "
                           "PsnrAccumulator");
    return sse;
}

void
require(const Status &status, const std::string &what)
{
    if (!status.is_ok())
        throw std::runtime_error(what + ": " + status.to_string());
}

}  // namespace perfbench
