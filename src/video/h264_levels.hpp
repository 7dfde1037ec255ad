// The five HD-compatible H.264/AVC levels the paper evaluates (Table I
// columns), with the level limits that feed the bandwidth model: frame size,
// maximum frame rate, and maximum video bitrate (ITU-T H.264 Table A-1,
// Baseline/Main VBV). The reference-frame count can be taken either from the
// level's DPB limit or from the calibration that reproduces the paper's
// stated totals (see DESIGN.md Section 4).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "video/formats.hpp"

namespace mcm::video {

enum class H264Level : std::uint8_t { k31, k32, k40, k42, k52 };

inline constexpr std::array kAllLevels = {H264Level::k31, H264Level::k32,
                                          H264Level::k40, H264Level::k42,
                                          H264Level::k52};

struct LevelSpec {
  H264Level level;
  std::string_view name;        // "3.1"
  std::string_view format;      // "720p HD"
  Resolution resolution;
  double fps;                   // maximum frame rate to support ("Limits")
  double max_bitrate_mbps;      // maximum video output stream
  std::uint32_t max_dpb_mbs;    // DPB limit in macroblocks (H.264 Table A-1)
};

[[nodiscard]] const LevelSpec& level_spec(H264Level level);

/// A level by its Table I name (level_spec(level).name), or "4.0" for "4".
[[nodiscard]] std::optional<H264Level> parse_level(std::string_view name);

/// Macroblocks per frame (16x16).
[[nodiscard]] std::uint32_t frame_macroblocks(Resolution r);

/// Reference frames allowed by the level's DPB limit (capped at 16).
[[nodiscard]] std::uint32_t dpb_reference_frames(H264Level level);

/// How to choose the number of reference frames in the use-case model.
enum class RefFramePolicy : std::uint8_t {
  kCalibrated,  // 4 for every level; reproduces the paper's stated totals
  kDpbDerived,  // from the level's DPB limit
};

[[nodiscard]] std::uint32_t reference_frames(H264Level level, RefFramePolicy policy);

/// Full H.264 Table A-1 level limits (all levels, not only the five HD
/// columns of the paper's Table I) - used to place arbitrary capture modes.
struct LevelLimits {
  std::string_view name;       // "1", "1b", ..., "5.2"
  std::uint32_t max_mbps;      // macroblocks per second
  std::uint32_t max_fs;        // macroblocks per frame
  std::uint32_t max_dpb_mbs;   // decoded picture buffer, macroblocks
  double max_bitrate_mbps;     // Baseline/Main VBV
};

[[nodiscard]] const std::vector<LevelLimits>& all_level_limits();

/// The lowest level whose limits admit `resolution` at `fps` (frame size,
/// macroblock rate), or nullptr when even level 5.2 cannot carry it.
[[nodiscard]] const LevelLimits* suggest_level(Resolution resolution, double fps);

}  // namespace mcm::video
