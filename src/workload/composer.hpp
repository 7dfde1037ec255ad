// Mixed-tenant composition: N concurrent sessions (each a video level, a
// replayed trace, or a synthetic generator, carved into its own slice of the
// global address space) merged into one request stream by arrival time. The
// merge is deterministic - ties resolve by tenant index - so a composed
// workload is a pure function of its spec and flows through the engine,
// the stream cache, and the verifier byte-identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "load/source.hpp"

namespace mcm::workload {

class MixedTenantSource final : public load::TrafficSource {
 public:
  MixedTenantSource(std::string name,
                    std::vector<std::unique_ptr<load::TrafficSource>> tenants);

  [[nodiscard]] bool done() const override;
  [[nodiscard]] ctrl::Request head() const override;
  void advance() override;
  [[nodiscard]] std::uint64_t total_bytes() const override { return total_; }
  [[nodiscard]] std::string_view name() const override { return name_; }
  void set_start(Time t) override;
  void set_pacing(Time duration) override;

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  [[nodiscard]] const load::TrafficSource& tenant(std::size_t i) const {
    return *tenants_[i];
  }

 private:
  /// Index of the pending tenant with the earliest head arrival (ties by
  /// tenant index); tenants_.size() when every tenant is done.
  [[nodiscard]] std::size_t select() const;

  std::string name_;
  std::vector<std::unique_ptr<load::TrafficSource>> tenants_;
  std::uint64_t total_ = 0;
};

}  // namespace mcm::workload
