#include "video/h264_levels.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcm::video {
namespace {

constexpr std::array<LevelSpec, 5> kSpecs = {{
    {H264Level::k31, "3.1", "720p HD", k720p, 30.0, 14.0, 18000},
    {H264Level::k32, "3.2", "720p HD", k720p, 60.0, 20.0, 20480},
    {H264Level::k40, "4", "1080p HD", k1080p, 30.0, 20.0, 32768},
    {H264Level::k42, "4.2", "1080p HD", k1080p, 60.0, 50.0, 34816},
    {H264Level::k52, "5.2", "UHD", k2160p, 30.0, 240.0, 184320},
}};

}  // namespace

const LevelSpec& level_spec(H264Level level) {
  for (const auto& s : kSpecs) {
    if (s.level == level) return s;
  }
  throw std::invalid_argument("unknown H.264 level");
}

std::optional<H264Level> parse_level(std::string_view name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return s.level;
  }
  if (name == "4.0") return H264Level::k40;
  return std::nullopt;
}

std::uint32_t frame_macroblocks(Resolution r) {
  const std::uint32_t mb_w = (r.width + 15) / 16;
  const std::uint32_t mb_h = (r.height + 15) / 16;
  return mb_w * mb_h;
}

std::uint32_t dpb_reference_frames(H264Level level) {
  const LevelSpec& s = level_spec(level);
  const std::uint32_t per_frame = frame_macroblocks(s.resolution);
  return std::min<std::uint32_t>(16, std::max<std::uint32_t>(1, s.max_dpb_mbs / per_frame));
}

std::uint32_t reference_frames(H264Level level, RefFramePolicy policy) {
  switch (policy) {
    case RefFramePolicy::kCalibrated: return 4;
    case RefFramePolicy::kDpbDerived: return dpb_reference_frames(level);
  }
  return 4;
}

const std::vector<LevelLimits>& all_level_limits() {
  // ITU-T H.264 Table A-1 (Baseline/Main bitrates).
  static const std::vector<LevelLimits> kLimits = {
      {"1", 1485, 99, 396, 0.064},
      {"1b", 1485, 99, 396, 0.128},
      {"1.1", 3000, 396, 900, 0.192},
      {"1.2", 6000, 396, 2376, 0.384},
      {"1.3", 11880, 396, 2376, 0.768},
      {"2", 11880, 396, 2376, 2.0},
      {"2.1", 19800, 792, 4752, 4.0},
      {"2.2", 20250, 1620, 8100, 4.0},
      {"3", 40500, 1620, 8100, 10.0},
      {"3.1", 108000, 3600, 18000, 14.0},
      {"3.2", 216000, 5120, 20480, 20.0},
      {"4", 245760, 8192, 32768, 20.0},
      {"4.1", 245760, 8192, 32768, 50.0},
      {"4.2", 522240, 8704, 34816, 50.0},
      {"5", 589824, 22080, 110400, 135.0},
      {"5.1", 983040, 36864, 184320, 240.0},
      {"5.2", 2073600, 36864, 184320, 240.0},
  };
  return kLimits;
}

const LevelLimits* suggest_level(Resolution resolution, double fps) {
  const std::uint32_t fs = frame_macroblocks(resolution);
  const double mbps = static_cast<double>(fs) * fps;
  for (const auto& l : all_level_limits()) {
    if (fs <= l.max_fs && mbps <= static_cast<double>(l.max_mbps)) return &l;
  }
  return nullptr;
}

}  // namespace mcm::video
