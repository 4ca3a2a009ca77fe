/**
 * @file
 * The MPEG-class codecs: 8x8 DCT, 16x16 macroblocks, I/P/B pictures,
 * run/level VLC. One encoder and one decoder implement both
 * generations; a tool-set trait (mpeg/tools.h) picks what differs:
 *
 *  - MPEG-2 class: half-sample bilinear MC, left-neighbour MV
 *    prediction, MPEG-2 quantiser step and run/level tables — the
 *    fastest, least compression-efficient generation. Stands in for
 *    the libmpeg2 decoder and the FFmpeg MPEG-2 encoder (paper
 *    Table II).
 *  - MPEG-4 ASP class: quarter-sample MC (`qpel`), four-MV macroblocks,
 *    median MV prediction and a tuned quantiser dead zone — the tool set
 *    that buys MPEG-4 its ~35 % bitrate advantage over MPEG-2 in the
 *    paper's Table V. Stands in for the Xvid encoder and decoder.
 */
#ifndef HDVB_MPEG_MPEG_H
#define HDVB_MPEG_MPEG_H

#include <memory>

#include "codec/codec.h"

namespace hdvb {

/** Create an MPEG-2-class encoder; config must validate. */
std::unique_ptr<VideoEncoder> create_mpeg2_encoder(
    const CodecConfig &config);

/** Create an MPEG-2-class decoder. */
std::unique_ptr<VideoDecoder> create_mpeg2_decoder(
    const CodecConfig &config);

/** Create an MPEG-4-class encoder; config must validate. */
std::unique_ptr<VideoEncoder> create_mpeg4_encoder(
    const CodecConfig &config);

/** Create an MPEG-4-class decoder. */
std::unique_ptr<VideoDecoder> create_mpeg4_decoder(
    const CodecConfig &config);

}  // namespace hdvb

#endif  // HDVB_MPEG_MPEG_H
