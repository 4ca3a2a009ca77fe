/**
 * @file
 * The four workloads. Each generates its inputs in setup(), then
 * execute() runs whole rounds of the same operations until the run's
 * time is spent, checks every output, and reports the end-to-end
 * metrics. The per-layer census (census.h) runs after it in a traced
 * run, on clip_for_census().
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>

#include "common.h"

namespace perfbench {

/**
 * Time of one pass (one codec over one input, or one serve segment),
 * for the traced-versus-untraced comparison: a traced run traces pass
 * `pass` of round `round` when round + pass is odd, so every pass is
 * traced and untraced in turn.
 */
struct PassTime {
    int round = 0;
    int pass = 0;
    bool traced = false;
    double seconds = 0.0;  ///< codec (or service) time in the pass
    s64 frames = 0;
};

/** Whether a traced run traces pass @p pass of round @p round. */
inline bool
traced_pass(int round, int pass)
{
    return (round + pass) % 2 == 1;
}

/** Rounds a traced run makes at least: a first one that warms caches
 * and two in which every pass is traced once and untraced once. */
inline constexpr int kMinTracedRounds = 3;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate every input from @p seed; appends per-frame synthesis
     * times to @p frame_ms. */
    virtual void setup(u64 seed, std::vector<double> *frame_ms) = 0;

    /**
     * Run whole rounds for @p seconds, then check the outputs.
     * End-to-end metrics go to @p e2e; attempted/failed and
     * correctness to @p result. In a traced run every other pass is
     * traced (traced_pass), and @p passes receives each pass's time.
     */
    virtual void execute(double seconds, Tracer *tracer, Result *result,
                         Result *e2e, std::vector<PassTime> *passes) = 0;

    /** Frames the per-layer census cuts its blocks from. */
    virtual const Clip &clip_for_census() const = 0;

    /** Per-layer serve metrics, if this workload measured them. */
    virtual bool serve_layers(Result *layers) const
    {
        (void)layers;
        return false;
    }
};

/** @p segments > 0 fixes the number of one-second segments (the census
 * probe); 0 runs as many as the run's time allows. */
std::unique_ptr<Workload> make_serve(int segments = 0);

/** The workload named @p name ("vod-encode", "playback", "transcode",
 * "serve"), or null. */
std::unique_ptr<Workload> make_workload(const std::string &name);

/**
 * Per-layer census on @p clip: kernels, motion estimation, motion
 * compensation, the three codecs, steady-state allocations and the
 * transcode hint path. Adds the per-layer metrics to @p layers.
 */
void run_census(const Clip &clip, Tracer *tracer, Result *layers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
