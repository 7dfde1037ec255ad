// Channel-local address multiplexing: how a linear local byte address maps to
// {row, bank, column}. The paper evaluates Row-Bank-Column (RBC) and
// Bank-Row-Column (BRC) and picks RBC for its results; RCB is included as an
// extra ablation point.
//
// Bit layout (low to high), burst-aligned:
//   RBC:    [burst offset][column][bank][row] - consecutive rows rotate banks
//   BRC:    [burst offset][column][row][bank] - a bank holds a contiguous block
//   RCB:    [burst offset][bank][column][row] - bursts rotate banks
//   RBCXor: RBC with the bank index XOR-hashed by the low row bits
//           (permutation-based interleaving; spreads power-of-two strides
//           that thrash a single bank under plain RBC)
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/config.hpp"
#include "dram/spec.hpp"

namespace mcm::ctrl {

enum class AddressMux : std::uint8_t { kRBC, kBRC, kRCB, kRBCXor };

[[nodiscard]] constexpr std::string_view to_string(AddressMux m) {
  switch (m) {
    case AddressMux::kRBC: return "RBC";
    case AddressMux::kBRC: return "BRC";
    case AddressMux::kRCB: return "RCB";
    case AddressMux::kRBCXor: return "RBC-XOR";
  }
  return "?";
}

inline constexpr std::array kAllAddressMuxes = {
    AddressMux::kRBC, AddressMux::kBRC, AddressMux::kRCB, AddressMux::kRBCXor};

[[nodiscard]] constexpr std::optional<AddressMux> parse_address_mux(
    std::string_view name) {
  return enum_by_name(name, kAllAddressMuxes);
}

struct DecodedAddress {
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t column_burst = 0;  // burst index within the row

  friend bool operator==(const DecodedAddress&, const DecodedAddress&) = default;
};

class AddressMapper {
 public:
  AddressMapper(const dram::OrgSpec& org, AddressMux mux);

  [[nodiscard]] AddressMux mux() const { return mux_; }

  /// Decode a channel-local byte address. Addresses beyond the cluster
  /// capacity wrap (the load layer is expected to stay within capacity; the
  /// wrap keeps the model total even if it does not).
  ///
  /// Every supported organization has power-of-two geometry, so the common
  /// path is pure shifts and masks, inlined here because the controller
  /// decodes once per enqueued request. Odd geometries take the out-of-line
  /// division path (also the reference the property tests compare against).
  [[nodiscard]] DecodedAddress decode(std::uint64_t local_addr) const {
    if (!pow2_) return decode_slow(local_addr);
    const std::uint64_t burst = (local_addr >> burst_shift_) & capacity_mask_;
    DecodedAddress out;
    switch (mux_) {
      case AddressMux::kRBCXor: {
        out.column_burst =
            static_cast<std::uint32_t>(burst & (bursts_per_row_ - 1));
        const std::uint64_t rest = burst >> bpr_shift_;
        const auto bank = static_cast<std::uint32_t>(rest & (banks_ - 1));
        out.row = static_cast<std::uint32_t>(rest >> bank_shift_);
        out.bank = bank ^ (out.row & (banks_ - 1));
        break;
      }
      case AddressMux::kRBC: {
        out.column_burst =
            static_cast<std::uint32_t>(burst & (bursts_per_row_ - 1));
        const std::uint64_t rest = burst >> bpr_shift_;
        out.bank = static_cast<std::uint32_t>(rest & (banks_ - 1));
        out.row = static_cast<std::uint32_t>(rest >> bank_shift_);
        break;
      }
      case AddressMux::kBRC: {
        out.column_burst =
            static_cast<std::uint32_t>(burst & (bursts_per_row_ - 1));
        const std::uint64_t rest = burst >> bpr_shift_;
        out.row = static_cast<std::uint32_t>(rest & (rows_per_bank_ - 1));
        out.bank = static_cast<std::uint32_t>(rest >> rpb_shift_);
        break;
      }
      case AddressMux::kRCB: {
        out.bank = static_cast<std::uint32_t>(burst & (banks_ - 1));
        const std::uint64_t rest = burst >> bank_shift_;
        out.column_burst =
            static_cast<std::uint32_t>(rest & (bursts_per_row_ - 1));
        out.row = static_cast<std::uint32_t>(rest >> bpr_shift_);
        break;
      }
    }
    assert(out.row < rows_per_bank_ && out.bank < banks_);
    return out;
  }

  /// Inverse of decode (to the burst-aligned base address).
  [[nodiscard]] std::uint64_t encode(const DecodedAddress& a) const;

  [[nodiscard]] std::uint32_t bursts_per_row() const { return bursts_per_row_; }
  [[nodiscard]] std::uint64_t rows_per_bank() const { return rows_per_bank_; }
  [[nodiscard]] std::uint32_t banks() const { return banks_; }
  [[nodiscard]] std::uint32_t bytes_per_burst() const { return bytes_per_burst_; }

 private:
  /// Division/modulo decode for non-power-of-two geometries.
  [[nodiscard]] DecodedAddress decode_slow(std::uint64_t local_addr) const;

  AddressMux mux_;
  std::uint32_t banks_;
  std::uint64_t rows_per_bank_;
  std::uint32_t bursts_per_row_;
  std::uint32_t bytes_per_burst_;
  std::uint64_t capacity_bursts_;

  // Every supported organization has power-of-two geometry, so decode runs
  // as shifts and masks; the division path stays as the fallback (and the
  // reference the property tests compare against) for odd geometries.
  bool pow2_ = false;
  unsigned burst_shift_ = 0;      // log2(bytes_per_burst_)
  unsigned bpr_shift_ = 0;        // log2(bursts_per_row_)
  unsigned bank_shift_ = 0;       // log2(banks_)
  unsigned rpb_shift_ = 0;        // log2(rows_per_bank_)
  std::uint64_t capacity_mask_ = 0;  // capacity_bursts_ - 1
};

}  // namespace mcm::ctrl
