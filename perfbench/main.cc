/**
 * @file
 * Benchmark runner: one workload per process.
 *
 *   perfbench_runner --workload <vod-encode|playback|transcode|serve>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--source-digest <text>]
 *
 * Prints a provenance line, in a traced run the per-layer self-time
 * table, and as its last line one JSON object: correct, attempted,
 * failed and the metrics (end-to-end untraced, per-layer traced).
 */
#include <cpuid.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>

#include "build_info.h"
#include "common/json_writer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 3;  // set-up is timed this often; median reported

/** Command line of one run. */
struct Options {
    std::string workload;
    u64 seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string source_digest = "unknown";
};

std::string
cpu_model()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    std::string model(reinterpret_cast<const char *>(regs), sizeof regs);
    model = model.c_str();  // drop trailing NULs
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string
provenance(const Options &opt)
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    JsonWriter w;
    w.begin_object()
        .field("source", opt.source_digest)
        .field("compiler", std::string(PERFBENCH_COMPILER_ID) + " " +
                               PERFBENCH_COMPILER_VERSION)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("cxx_flags", PERFBENCH_CXX_FLAGS)
        .field("ndebug", ndebug)
        .field("simd_detected", simd_level_name(detected_simd_level()))
        .field("simd_used", simd_level_name(best_simd_level()))
        .field("nproc", static_cast<s64>(sysconf(_SC_NPROCESSORS_ONLN)))
        .field("cpu_model", cpu_model())
        .end_object();
    return w.str();
}

bool
parse_args(int argc, char **argv, Options *opt)
{
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt->workload = val;
            have[0] = true;
        } else if (key == "--seed") {
            opt->seed = std::strtoull(val.c_str(), &end, 10);
            have[1] = !val.empty() && *end == '\0';
        } else if (key == "--seconds") {
            opt->seconds = std::strtod(val.c_str(), &end);
            have[2] = !val.empty() && *end == '\0' && opt->seconds > 0.0 &&
                      opt->seconds <= 120.0;
        } else if (key == "--trace") {
            opt->trace = val == "1";
            have[3] = val == "0" || val == "1";
        } else if (key == "--source-digest") {
            opt->source_digest = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

/**
 * Tracing overhead: for each pass, its traced time per frame over its
 * untraced time per frame; the geometric mean of those ratios over the
 * passes, minus one. Round 0 warms caches and is left out, so every pass
 * compared was traced and untraced equally often. NaN without a pass
 * that was both.
 */
double
tracing_overhead_pct(const std::vector<PassTime> &passes)
{
    std::map<int, std::array<double, 4>> sums;  // s[0], n[0], s[1], n[1]
    for (const PassTime &p : passes) {
        if (p.round == 0)
            continue;
        std::array<double, 4> &t = sums[p.pass];
        t[2 * p.traced] += p.seconds;
        t[2 * p.traced + 1] += static_cast<double>(p.frames);
    }
    double log_sum = 0.0;
    int n = 0;
    for (const auto &[pass, t] : sums) {
        if (t[0] > 0.0 && t[1] > 0.0 && t[2] > 0.0 && t[3] > 0.0) {
            log_sum += std::log((t[2] / t[3]) / (t[0] / t[1]));
            ++n;
        }
    }
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return (std::exp(log_sum / n) - 1.0) * 100.0;
}

int
run(const Options &opt)
{
    std::printf("provenance: %s\n", provenance(opt).c_str());
    std::fflush(stdout);

    std::unique_ptr<Workload> workload;
    std::vector<double> setup_s, frame_ms;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        workload = make_workload(opt.workload);
        workload->setup(opt.seed, &frame_ms);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    const std::string run_id = opt.workload + "-" +
                               std::to_string(opt.seed) + "-" +
                               std::to_string(getpid());
    Tracer tracer(opt.trace, run_id);
    Result result, e2e;
    std::vector<PassTime> passes;
    workload->execute(opt.seconds, &tracer, &result, &e2e, &passes);

    Result out;
    if (!opt.trace) {
        out.add("setup_s", median(setup_s), "s");
        out.metrics.insert(out.metrics.end(), e2e.metrics.begin(),
                           e2e.metrics.end());
    } else {
        for (const Result::Metric &m : e2e.metrics)
            std::printf("traced-e2e: %s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        out.add("synth.frame_ms", median(frame_ms), "ms");
        out.add("trace.overhead_pct", tracing_overhead_pct(passes), "%");
        run_census(workload->clip_for_census(), &tracer, &out);
        if (!workload->serve_layers(&out)) {
            // A one-segment serve probe supplies the serve layer.
            Tracer::Scope span = tracer.span("census.serve");
            std::unique_ptr<Workload> probe = make_serve(1);
            probe->setup(opt.seed, nullptr);
            Result probe_result, probe_e2e;
            std::vector<PassTime> probe_passes;
            probe->execute(0.0, &tracer, &probe_result, &probe_e2e,
                           &probe_passes);
            probe->serve_layers(&out);
            result.expect(probe_result.correct && probe_result.failed == 0,
                          "serve probe");
        }
        tracer.print_self_times(stdout);
        const std::string path = ".bench_trace/" + run_id + ".json";
        if (tracer.write_json(path))
            std::printf("trace: written to %s\n", path.c_str());
    }
    // A metric that could not be measured (no samples, no time) is a
    // failed run, never a perfect figure.
    for (const Result::Metric &m : out.metrics)
        result.expect(std::isfinite(m.value), m.name + " is not finite");
    out.correct = result.correct;
    out.attempted = result.attempted;
    out.failed = result.failed;
    std::printf("%s\n", out.to_json().c_str());
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse_args(argc, argv, &opt) || !make_workload(opt.workload)) {
        std::fprintf(stderr,
                     "usage: %s --workload vod-encode|playback|transcode|"
                     "serve --seed N --seconds S --trace 0|1 "
                     "[--source-digest TEXT]\n",
                     argv[0]);
        return 2;
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
