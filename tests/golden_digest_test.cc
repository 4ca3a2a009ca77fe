/**
 * @file
 * Golden digests: every codec's output over a covering grid of the
 * CodecConfig space, pinned by the committed manifest
 * tests/golden_digests.txt. Each row holds FNV-1a digests of the
 * packets, of the decoded frames and of the decode of a fixed-seed
 * corrupted copy of the stream (which pins concealment), plus the
 * stream's bits and its PSNR-Y against the source. The manifest is the
 * equivalence oracle for refactors: a change that must not move the
 * output leaves every row unchanged. On a mismatch the test prints the
 * actual row; there is deliberately no switch that rewrites the file.
 *
 * The same file checks arena invariance: an encode or decode whose
 * frame buffers come from a FrameArena dirtied by another sequence must
 * give the digest of a fresh run, so no stage reads a pixel before
 * writing it.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.h"
#include "container/container.h"
#include "core/benchmark.h"
#include "fault/fault.h"
#include "metrics/psnr.h"
#include "synth/synth.h"

namespace hdvb {
namespace {

constexpr int kFrames = 7;

struct Geometry {
    int w;
    int h;
};

constexpr Geometry kGeometries[] = {{48, 32}, {176, 144}};
constexpr SequenceId kSequences[] = {SequenceId::kBlueSky,
                                     SequenceId::kRiverbed};

/** The five two-valued toggles of a row. */
struct Toggles {
    bool qpel;
    bool four_mv;
    int bframes;  ///< 0 or 2
    int threads;  ///< 1 or 3
    bool scalar;  ///< scalar kernels, else best_simd_level()
};

/**
 * The L8 orthogonal array over the five toggles: every pair of
 * settings of any two toggles appears in two of the eight variants.
 * Each (codec, approx, resilience) cell runs all eight, spread over its
 * sequence x geometry rows, so every toggle pair meets every codec,
 * approximation level and stream layout.
 */
constexpr Toggles kToggles[8] = {
    {true, true, 2, 1, false},   {true, true, 2, 3, true},
    {true, false, 0, 1, false},  {true, false, 0, 3, true},
    {false, true, 0, 1, true},   {false, true, 0, 3, false},
    {false, false, 2, 1, true},  {false, false, 2, 3, false},
};

struct Row {
    CodecId codec;
    SequenceId seq;
    Geometry geo;
    int approx;
    bool resilient;
    Toggles t;

    std::string
    key() const
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s/%s/%dx%d/approx%d/er%d/qpel%d/4mv%d/b%d/t%d/%s",
                      codec_name(codec), sequence_name(seq), geo.w, geo.h,
                      approx, resilient ? 1 : 0, t.qpel ? 1 : 0,
                      t.four_mv ? 1 : 0, t.bframes, t.threads,
                      t.scalar ? "scalar" : "best");
        return buf;
    }

    CodecConfig
    config() const
    {
        CodecConfig cfg;
        cfg.width = geo.w;
        cfg.height = geo.h;
        cfg.refs = 2;
        cfg.approx = approx;
        cfg.error_resilience = resilient;
        cfg.qpel = t.qpel;
        cfg.four_mv = t.four_mv;
        cfg.bframes = t.bframes;
        cfg.threads = t.threads;
        cfg.simd = t.scalar ? SimdLevel::kScalar : best_simd_level();
        return cfg;
    }
};

std::vector<Row>
golden_rows(CodecId codec)
{
    std::vector<Row> rows;
    for (int approx = 0; approx <= 3; ++approx) {
        for (bool resilient : {false, true}) {
            int variant = 0;
            for (SequenceId seq : kSequences) {
                for (const Geometry &geo : kGeometries) {
                    for (int k = 0; k < 2; ++k) {
                        rows.push_back({codec, seq, geo, approx, resilient,
                                        kToggles[variant++]});
                    }
                }
            }
        }
    }
    return rows;
}

void
digest_packets(const std::vector<Packet> &packets, Fnv1a *h)
{
    for (const Packet &p : packets) {
        h->number(static_cast<s64>(p.type));
        h->number(p.poc);
        h->number(static_cast<s64>(p.data.size()));
        h->bytes(p.data.data(), p.data.size());
    }
}

void
digest_frames(const std::vector<Frame> &frames, Fnv1a *h)
{
    for (const Frame &f : frames) {
        h->number(f.poc());
        for (int c = 0; c < 3; ++c) {
            const Plane &pl = f.plane(c);
            for (int y = 0; y < pl.height(); ++y)
                h->bytes(pl.row(y), static_cast<size_t>(pl.width()));
        }
    }
}

EncodedStream
encode(CodecId codec, const CodecConfig &cfg, SequenceId seq, int frames,
       const FrameArena *arena = nullptr)
{
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    if (arena != nullptr)
        enc->use_arena(*arena);
    SyntheticSource source(seq, cfg.width, cfg.height);
    EncodedStream stream;
    stream.codec = codec_name(codec);
    stream.width = cfg.width;
    stream.height = cfg.height;
    for (int i = 0; i < frames; ++i)
        EXPECT_TRUE(enc->encode(source.next(), &stream.packets).is_ok());
    EXPECT_TRUE(enc->flush(&stream.packets).is_ok());
    return stream;
}

/** Decode every packet, carrying on past errors; the digest covers
 * each call's status, the frames and the concealment counters. */
u64
decode_digest(CodecId codec, const CodecConfig &cfg,
              const EncodedStream &stream, std::vector<Frame> *frames,
              const FrameArena *arena = nullptr)
{
    std::unique_ptr<VideoDecoder> dec = make_decoder(codec, cfg).value();
    if (arena != nullptr)
        dec->use_arena(*arena);
    Fnv1a h;
    for (const Packet &packet : stream.packets)
        h.number(static_cast<s64>(dec->decode(packet, frames).code()));
    h.number(static_cast<s64>(dec->flush(frames).code()));
    digest_frames(*frames, &h);
    const DecodeStats stats = dec->stats().decode;
    h.number(stats.mbs_concealed);
    h.number(stats.resyncs);
    h.number(stats.pictures_dropped);
    return h.value();
}

FaultPlan
golden_fault_plan()
{
    FaultPlan plan;
    plan.seed = 20;
    plan.flip_density = 3e-3;
    plan.protect_first_packet = true;
    return plan;
}

/** The manifest line @p row produces on this build. */
std::string
run_row(const Row &row)
{
    const CodecConfig cfg = row.config();
    const EncodedStream stream = encode(row.codec, cfg, row.seq, kFrames);
    Fnv1a packets;
    digest_packets(stream.packets, &packets);

    std::vector<Frame> decoded;
    const u64 decoded_digest =
        decode_digest(row.codec, cfg, stream, &decoded);
    SyntheticSource source(row.seq, cfg.width, cfg.height);
    PsnrAccumulator psnr;
    for (const Frame &f : decoded)
        psnr.add(source.at(static_cast<int>(f.poc())), f);

    std::vector<Frame> concealed;
    const u64 corrupt_digest = decode_digest(
        row.codec, cfg, corrupted_copy(stream, golden_fault_plan()),
        &concealed);

    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %016llx %016llx %016llx %llu %.4f",
                  row.key().c_str(),
                  static_cast<unsigned long long>(packets.value()),
                  static_cast<unsigned long long>(decoded_digest),
                  static_cast<unsigned long long>(corrupt_digest),
                  static_cast<unsigned long long>(stream.total_bits()),
                  psnr.psnr_y());
    return buf;
}

/** Manifest lines keyed by their first field; '#' starts a comment. */
std::map<std::string, std::string>
load_manifest()
{
    std::map<std::string, std::string> rows;
    std::ifstream in(HDVB_GOLDEN_MANIFEST);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        rows[key] = line;
    }
    return rows;
}

class GoldenDigest : public ::testing::TestWithParam<CodecId>
{
};

TEST_P(GoldenDigest, ManifestRowsUnchanged)
{
    const std::map<std::string, std::string> manifest = load_manifest();
    ASSERT_FALSE(manifest.empty()) << "no rows in " HDVB_GOLDEN_MANIFEST;

    const std::string prefix = std::string(codec_name(GetParam())) + "/";
    size_t manifest_rows = 0;
    for (const auto &entry : manifest)
        manifest_rows += entry.first.rfind(prefix, 0) == 0;

    const std::vector<Row> rows = golden_rows(GetParam());
    EXPECT_EQ(manifest_rows, rows.size())
        << "the manifest and the row grid disagree for " << prefix;
    for (const Row &row : rows) {
        const std::string actual = run_row(row);
        const auto it = manifest.find(row.key());
        if (it == manifest.end() || it->second != actual) {
            ADD_FAILURE() << "golden row changed; actual row:\n"
                          << actual << "\nmanifest row:\n"
                          << (it == manifest.end() ? "(none)"
                                                   : it->second);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, GoldenDigest,
                         ::testing::ValuesIn(kAllCodecs),
                         [](const ::testing::TestParamInfo<CodecId> &info) {
                             return std::string(codec_name(info.param));
                         });

// ---- arena invariance ----

constexpr int kArenaFrames = 9;

struct ArenaCase {
    const char *name;
    bool resilient;
    int approx;
};

constexpr ArenaCase kArenaCases[] = {
    {"exact", false, 0}, {"resilient", true, 0}, {"approx2", false, 2}};

CodecConfig
arena_config(const ArenaCase &c)
{
    CodecConfig cfg;
    cfg.width = 176;
    cfg.height = 144;
    cfg.refs = 2;
    cfg.error_resilience = c.resilient;
    cfg.approx = c.approx;
    return cfg;
}

/** An arena whose free lists hold buffers last written by an encode
 * and a decode of a different sequence at the same geometry. */
FrameArena
dirty_arena(CodecId codec, const CodecConfig &cfg)
{
    FrameArena arena;
    const EncodedStream other =
        encode(codec, cfg, SequenceId::kRushHour, kArenaFrames, &arena);
    std::vector<Frame> frames;
    decode_digest(codec, cfg, other, &frames, &arena);
    return arena;
}

u64
packets_digest(const EncodedStream &stream)
{
    Fnv1a h;
    digest_packets(stream.packets, &h);
    return h.value();
}

// The H.264 encoder is left out: its Intra4x4 cost proxy reads
// reconstruction pixels of the current macroblock before they are
// written, so its output still depends on recycled buffer contents.
TEST(EncoderArenaInvariance, MpegEncodersIgnoreStalePixels)
{
    for (CodecId codec : {CodecId::kMpeg2, CodecId::kMpeg4}) {
        for (const ArenaCase &c : kArenaCases) {
            const CodecConfig cfg = arena_config(c);
            const u64 fresh = packets_digest(
                encode(codec, cfg, SequenceId::kBlueSky, kArenaFrames));
            const FrameArena arena = dirty_arena(codec, cfg);
            const u64 dirty = packets_digest(encode(
                codec, cfg, SequenceId::kBlueSky, kArenaFrames, &arena));
            EXPECT_EQ(fresh, dirty) << codec_name(codec) << " " << c.name;
        }
    }
}

class DecoderArenaInvariance : public ::testing::TestWithParam<CodecId>
{
};

TEST_P(DecoderArenaInvariance, OutputIgnoresStalePixels)
{
    const CodecId codec = GetParam();
    for (const ArenaCase &c : kArenaCases) {
        const CodecConfig cfg = arena_config(c);
        const EncodedStream stream =
            encode(codec, cfg, SequenceId::kBlueSky, kArenaFrames);
        const EncodedStream damaged =
            corrupted_copy(stream, golden_fault_plan());
        const FrameArena arena = dirty_arena(codec, cfg);
        for (const EncodedStream *s : {&stream, &damaged}) {
            std::vector<Frame> fresh_frames, dirty_frames;
            const u64 fresh = decode_digest(codec, cfg, *s, &fresh_frames);
            const u64 dirty =
                decode_digest(codec, cfg, *s, &dirty_frames, &arena);
            EXPECT_EQ(fresh, dirty)
                << codec_name(codec) << " " << c.name
                << (s == &damaged ? " corrupted" : " clean");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, DecoderArenaInvariance,
                         ::testing::ValuesIn(kAllCodecs),
                         [](const ::testing::TestParamInfo<CodecId> &info) {
                             return std::string(codec_name(info.param));
                         });

}  // namespace
}  // namespace hdvb
