#include "core/benchmark.h"

#include "common/check.h"
#include "dsp/quant.h"
#include "h264/h264.h"
#include "mpeg/mpeg.h"

namespace hdvb {

const char *
codec_name(CodecId id)
{
    switch (id) {
      case CodecId::kMpeg2: return "mpeg2";
      case CodecId::kMpeg4: return "mpeg4";
      case CodecId::kH264: return "h264";
    }
    return "?";
}

const char *
codec_display_name(CodecId id)
{
    switch (id) {
      case CodecId::kMpeg2: return "MPEG-2";
      case CodecId::kMpeg4: return "MPEG-4";
      case CodecId::kH264: return "H.264";
    }
    return "?";
}

const char *
codec_application(CodecId id, bool encoder)
{
    switch (id) {
      case CodecId::kMpeg2:
        return encoder ? "ffmpeg-mpeg2 (class)" : "libmpeg2 (class)";
      case CodecId::kMpeg4:
        return encoder ? "Xvid (class)" : "Xvid (class)";
      case CodecId::kH264:
        return encoder ? "x264 (class)" : "ffmpeg-h264 (class)";
    }
    return "?";
}

bool
parse_codec(const std::string &name, CodecId *out)
{
    for (CodecId id : kAllCodecs) {
        if (name == codec_name(id)) {
            *out = id;
            return true;
        }
    }
    return false;
}

StatusOr<CodecId>
parse_codec(const std::string &name)
{
    CodecId id;
    if (parse_codec(name, &id))
        return id;
    std::string legal;
    for (CodecId c : kAllCodecs) {
        if (!legal.empty())
            legal += ", ";
        legal += codec_name(c);
    }
    return Status::invalid_argument("unknown codec '" + name +
                                    "' (legal: " + legal + ")");
}

ResolutionInfo
resolution_info(Resolution res)
{
    switch (res) {
      case Resolution::k576p25: return {"576p25", 720, 576, 25};
      case Resolution::k720p25: return {"720p25", 1280, 720, 25};
      case Resolution::k1088p25: return {"1088p25", 1920, 1088, 25};
    }
    return {"?", 0, 0, 0};
}

bool
parse_resolution(const std::string &name, Resolution *out)
{
    for (Resolution res : kAllResolutions) {
        if (name == resolution_info(res).name) {
            *out = res;
            return true;
        }
    }
    return false;
}

StatusOr<Resolution>
parse_resolution(const std::string &name)
{
    Resolution res;
    if (parse_resolution(name, &res))
        return res;
    std::string legal;
    for (Resolution r : kAllResolutions) {
        if (!legal.empty())
            legal += ", ";
        legal += resolution_info(r).name;
    }
    return Status::invalid_argument("unknown resolution '" + name +
                                    "' (legal: " + legal + ")");
}

CodecConfig
benchmark_config(CodecId codec, Resolution res, SimdLevel simd)
{
    const ResolutionInfo info = resolution_info(res);
    CodecConfig cfg;
    cfg.width = info.width;
    cfg.height = info.height;
    cfg.fps_num = info.fps;
    cfg.fps_den = 1;
    cfg.qscale = kBenchmarkMpegQscale;
    // Equation 1 maps the nominal quantisers (5 -> 26). The paper's
    // equivalence was calibrated on ffmpeg/x264; for this codec stack
    // the same *operating point* (H.264 PSNR ~= MPEG-2 PSNR, Table V's
    // pattern) sits three QP finer, so the benchmark applies a fixed
    // implementation-calibration offset (see EXPERIMENTS.md).
    cfg.qp = clamp(h264_qp_from_mpeg(kBenchmarkMpegQscale) - 3, 0, 51);
    cfg.bframes = 2;  // I-P-B-B, adaptive placement disabled
    cfg.simd = simd;
    switch (codec) {
      case CodecId::kMpeg2:
      case CodecId::kMpeg4:
        cfg.me_range = 16;  // EPZS with zonal predictors
        break;
      case CodecId::kH264:
        cfg.me_range = 24;  // --me hex --merange 24
        cfg.refs = 8;       // paper: --ref 16 (see header note)
        break;
    }
    HDVB_CHECK(cfg.validate().is_ok());
    return cfg;
}

StatusOr<std::unique_ptr<VideoEncoder>>
make_encoder(CodecId codec, const CodecConfig &config)
{
    HDVB_RETURN_IF_ERROR(config.validate());
    switch (codec) {
      case CodecId::kMpeg2: return create_mpeg2_encoder(config);
      case CodecId::kMpeg4: return create_mpeg4_encoder(config);
      case CodecId::kH264: return create_h264_encoder(config);
    }
    return Status::invalid_argument("unknown codec id");
}

StatusOr<std::unique_ptr<VideoDecoder>>
make_decoder(CodecId codec, const CodecConfig &config)
{
    HDVB_RETURN_IF_ERROR(config.validate());
    switch (codec) {
      case CodecId::kMpeg2: return create_mpeg2_decoder(config);
      case CodecId::kMpeg4: return create_mpeg4_decoder(config);
      case CodecId::kH264: return create_h264_decoder(config);
    }
    return Status::invalid_argument("unknown codec id");
}

}  // namespace hdvb
