#include "load/usecase_sources.hpp"

#include <cmath>

#include "load/encoder_pattern_source.hpp"
#include "load/multi_stream_source.hpp"

namespace mcm::load {
namespace {

using video::StageId;
using video::SurfaceId;

std::uint64_t bits_to_bytes(double bits) {
  return static_cast<std::uint64_t>(std::ceil(bits / 8.0));
}

}  // namespace

std::vector<std::unique_ptr<TrafficSource>> build_stage_sources(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt) {
  std::vector<std::unique_ptr<TrafficSource>> out;
  const auto surf = [&](SurfaceId id) -> const video::Surface& {
    return layout.surface(id);
  };

  std::uint16_t stage_index = 0;
  for (const auto& stage : model.stages()) {
    const std::uint16_t sid = stage_index++;
    const std::uint64_t rd = bits_to_bytes(stage.read_bits);
    const std::uint64_t wr = bits_to_bytes(stage.write_bits);
    std::vector<StreamSpec> streams;
    const auto read_from = [&](SurfaceId s, std::uint64_t bytes) {
      streams.push_back({surf(s).base, bytes, surf(s).bytes, false, sid});
    };
    const auto write_to = [&](SurfaceId s, std::uint64_t bytes) {
      streams.push_back({surf(s).base, bytes, surf(s).bytes, true, sid});
    };

    switch (stage.id) {
      case StageId::kCameraIf:
        write_to(SurfaceId::kBayerCapture, wr);
        break;
      case StageId::kPreprocess:
        read_from(SurfaceId::kBayerCapture, rd);
        write_to(SurfaceId::kBayerClean, wr);
        break;
      case StageId::kBayerToYuv:
        read_from(SurfaceId::kBayerClean, rd);
        write_to(SurfaceId::kYuv422Full, wr);
        break;
      case StageId::kStabilization:
        read_from(SurfaceId::kYuv422Full, rd);
        write_to(SurfaceId::kYuv422Stab, wr);
        break;
      case StageId::kPostProcDigizoom:
        read_from(SurfaceId::kYuv422Stab, rd);
        write_to(SurfaceId::kYuv422Post, wr);
        break;
      case StageId::kScalingToDisplay:
        read_from(SurfaceId::kYuv422Post, rd);
        write_to(SurfaceId::kDisplayFb, wr);
        break;
      case StageId::kDisplayCtrl:
        read_from(SurfaceId::kDisplayFb, rd);  // wraps over both buffers
        break;
      case StageId::kVideoEncoder: {
        // Split the stage's read volume into reference traffic and the
        // current-frame input (the same formula UseCaseModel used).
        const auto& p = model.params();
        const double nz = static_cast<double>(model.level().resolution.pixels()) /
                          (p.digizoom * p.digizoom);
        const std::uint64_t input_rd = bits_to_bytes(16.0 * nz);
        const std::uint64_t ref_rd = rd > input_rd ? rd - input_rd : 0;
        const std::uint64_t recon_wr =
            bits_to_bytes(12.0 * static_cast<double>(model.level().resolution.pixels()));
        const std::uint64_t stream_wr = wr > recon_wr ? wr - recon_wr : 0;

        if (opt.motion_window_encoder) {
          video::EncoderAccessParams ep;
          ep.resolution = model.level().resolution;
          ep.ref_frames = model.ref_frames();
          ep.mode = video::EncoderAccessMode::kWindowLoads;
          ep.input_base = surf(SurfaceId::kYuv422Post).base;
          ep.ref_base = surf(SurfaceId::kReferenceArea).base;
          ep.ref_frame_bytes = surf(SurfaceId::kReferenceArea).bytes /
                               std::max<std::uint32_t>(1, model.ref_frames());
          ep.recon_base = surf(SurfaceId::kRecon).base;
          ep.seed = opt.seed;
          out.push_back(std::make_unique<EncoderPatternSource>(
              std::string(stage.name), ep, opt.burst_bytes, sid));
          // Bitstream output still goes through a stream source.
          if (stream_wr > 0) {
            out.push_back(std::make_unique<MultiStreamSource>(
                "Video bitstream",
                std::vector<StreamSpec>{{surf(SurfaceId::kBitstream).base, stream_wr,
                                         surf(SurfaceId::kBitstream).bytes, true, sid}},
                opt.chunk_bytes, opt.burst_bytes));
          }
          continue;
        }
        streams.push_back({surf(SurfaceId::kReferenceArea).base, ref_rd,
                           surf(SurfaceId::kReferenceArea).bytes, false, sid});
        streams.push_back({surf(SurfaceId::kYuv422Post).base, input_rd,
                           surf(SurfaceId::kYuv422Post).bytes, false, sid});
        streams.push_back({surf(SurfaceId::kRecon).base, recon_wr,
                           surf(SurfaceId::kRecon).bytes, true, sid});
        streams.push_back({surf(SurfaceId::kBitstream).base, stream_wr,
                           surf(SurfaceId::kBitstream).bytes, true, sid});
        break;
      }
      case StageId::kAudioCapture:
        write_to(SurfaceId::kAudioRing, wr);
        break;
      case StageId::kMultiplex:
        read_from(SurfaceId::kBitstream, rd);
        write_to(SurfaceId::kMuxBuffer, wr);
        break;
      case StageId::kMemoryCard:
        read_from(SurfaceId::kMuxBuffer, rd);
        break;
    }
    out.push_back(std::make_unique<MultiStreamSource>(
        std::string(stage.name), std::move(streams), opt.chunk_bytes,
        opt.burst_bytes));
  }
  return out;
}

}  // namespace mcm::load
