/**
 * @file
 * Shared pieces of the benchmark runner: the span tracer, the result
 * record, seeded clip generation, codec helpers that time only the codec
 * calls, and the runner's own quality and digest computations (kept
 * independent of src/metrics so they can check it).
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "container/container.h"
#include "core/benchmark.h"
#include "synth/synth.h"

namespace perfbench {

using namespace hdvb;

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * In-memory span recorder. Spans are opened and closed on the thread
 * that owns the tracer (the runner's main thread), around each call the
 * runner makes into a layer. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    Tracer(bool enabled, std::string run_id);

    /** Recording can be paused so traced and untraced passes of one run
     * can be compared (the tracing overhead). */
    void set_active(bool active) { active_ = enabled_ && active; }
    bool active() const { return active_; }
    bool enabled() const { return enabled_; }

    class Scope
    {
      public:
        Scope(Tracer *tracer, int index) : tracer_(tracer), index_(index)
        {
        }
        Scope(Scope &&other) noexcept
            : tracer_(other.tracer_), index_(other.index_)
        {
            other.tracer_ = nullptr;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }

      private:
        Tracer *tracer_;
        int index_;
    };

    /** Open a span named @p name (a string literal) under the innermost
     * open span; it closes when the returned scope is destroyed. */
    Scope span(const char *name);

    /** Write every span as JSON (name, start, end, parent, run id). */
    bool write_json(const std::string &path) const;

    /** Print per-name call count, total and self time. */
    void print_self_times(std::FILE *out) const;

  private:
    struct Span {
        const char *name;
        s64 start_ns;
        s64 end_ns;
        int parent;
    };

    void close(int index);
    s64 now_ns() const;

    bool enabled_;
    bool active_;
    std::string run_id_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What one run prints as its last line. */
struct Result {
    bool correct = true;
    s64 attempted = 0;
    s64 failed = 0;

    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const char *unit);

    /** Record a correctness property; a violation is reported on
     * stderr and clears `correct`. */
    void expect(bool ok, const std::string &what);

    std::string to_json() const;
};

/** Frames of one synthetic sequence, generated once during set-up. */
struct Clip {
    SequenceId seq = SequenceId::kBlueSky;
    int start = 0;  ///< source frame index of frames[0]
    std::vector<Frame> frames;
};

struct ClipSpec {
    SequenceId seq;
    int frames;
};

/** Threads set-up work (frame synthesis, stream preparation) runs on. */
inline constexpr int kSetupThreads = 3;

/** Source frame index a seed selects (the generators are stationary,
 * so any start index gives statistically similar content). */
int start_index(u64 seed, int clip);

/**
 * Generate @p specs at @p width x @p height, each starting at the
 * seed's start index, on a few threads. Appends each frame's
 * generation time (ms) to @p frame_ms when non-null.
 */
std::vector<Clip> make_clips(const std::vector<ClipSpec> &specs,
                             int width, int height, u64 seed,
                             std::vector<double> *frame_ms);

/** The Table IV configuration at an arbitrary geometry. */
CodecConfig table4_config(CodecId codec, int width, int height,
                          SimdLevel simd);

/** One encode pass: packets plus the codec-call time per emitted
 * picture (time spent in calls that emitted nothing is charged to the
 * pictures the next emitting call returns). */
struct EncodePass {
    EncodedStream stream;
    double codec_seconds = 0.0;
    std::vector<double> picture_ms;
};

/** Encode @p frames (then flush) with a fresh encoder; only the codec
 * calls are timed. */
Status encode_pass(CodecId codec, const CodecConfig &config,
                   const std::vector<Frame> &frames, Tracer *tracer,
                   EncodePass *out);

/** One decode pass: display-order frames plus per-packet call time. */
struct DecodePass {
    std::vector<Frame> frames;
    double codec_seconds = 0.0;
    std::vector<double> packet_ms;  ///< coding order, one per packet
};

Status decode_pass(CodecId codec, const CodecConfig &config,
                   const EncodedStream &stream, size_t packet_count,
                   Tracer *tracer, DecodePass *out);

/** Luma SSE by a plain loop (independent of Dsp::sse_rect). */
u64 plain_sse_y(const Frame &a, const Frame &b);

/** PSNR from SSE over @p samples 8-bit samples (99 dB when equal, NaN
 * over no samples). */
double psnr_db(u64 sse, u64 samples);

/** FNV-1a over bytes, chained through @p h. */
u64 fnv1a(const void *data, size_t size,
          u64 h = 14695981039346656037ull);
u64 digest_packets(const std::vector<Packet> &packets);
u64 digest_frames(const std::vector<Frame> &frames);

/** Bits counted from the packet sizes. */
u64 packet_bits(const std::vector<Packet> &packets);

/** Nearest-rank quantile of @p v (common/stats.h); NaN when empty, so a
 * metric with no samples fails the finiteness check. */
double quantile(std::vector<double> v, double q);

/** Median of @p v (common/stats.h); NaN when empty. */
double median(std::vector<double> v);

/** Geometric mean over sample sets (one per codec) of the @p q quantile
 * of each: every codec weighs the same, and the result stays inside one
 * codec's distribution instead of falling between two. NaN when there is
 * no set or a set is empty. */
double geomean_quantile(const std::vector<std::vector<double>> &samples,
                        double q);

/**
 * The display-order checks every decoded stream must pass: exactly
 * @p source.size() frames with pocs 0..n-1, each clearing
 * @p floor_db against its source frame, and the plain-loop PSNR equal
 * to PsnrAccumulator's. Returns the luma SSE summed over the stream.
 */
u64 check_decoded(const std::vector<Frame> &source,
                  const std::vector<Frame> &decoded, double floor_db,
                  const std::string &label, Result *result);

/** Per-frame luma PSNR floor: well below what the Table IV quantisers
 * reach on every synthetic sequence (38-54 dB), while a wrong or garbled
 * frame lands far under it. */
inline constexpr double kPsnrFloorDb = 32.0;

/** Throw std::runtime_error with @p what when @p status is not OK. */
void require(const Status &status, const std::string &what);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
