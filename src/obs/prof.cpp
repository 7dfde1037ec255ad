#include "obs/prof.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace mcm::obs::prof {
namespace {

// Per-spool span cap: bounds memory when MCM_PROF=1 stays on across a long
// multi-run process; overflow is counted, never silently lost.
constexpr std::size_t kMaxSpansPerSpool = std::size_t{1} << 18;

struct PhaseAcc {
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t max_ns = 0;
  std::array<std::uint64_t, kLogBuckets> hist{};

  [[nodiscard]] bool empty() const {
    return calls == 0 && wall_ns == 0 && self_ns == 0;
  }

  void merge(const PhaseAcc& rhs) {
    calls += rhs.calls;
    wall_ns += rhs.wall_ns;
    self_ns += rhs.self_ns;
    max_ns = std::max(max_ns, rhs.max_ns);
    for (std::size_t i = 0; i < kLogBuckets; ++i) hist[i] += rhs.hist[i];
  }
};

[[nodiscard]] std::size_t log_bucket(std::int64_t v) {
  if (v <= 1) return 0;
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(v - 1)));
  return std::min(b, kLogBuckets - 1);
}

void hist_sample(PhaseAcc& a, std::int64_t v, std::uint64_t weight = 1) {
  a.hist[log_bucket(v)] += weight;
  a.max_ns = std::max(a.max_ns, v);
}

/// Quantile of a log2 histogram, linearly interpolated inside the bucket.
[[nodiscard]] double hist_percentile(
    const std::array<std::uint64_t, kLogBuckets>& hist, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < kLogBuckets; ++b) {
    if (hist[b] == 0) continue;
    const double next = cum + static_cast<double>(hist[b]);
    if (target <= next) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(std::int64_t{1} << (b - 1));
      const double hi = static_cast<double>(std::int64_t{1} << b);
      const double frac = (target - cum) / static_cast<double>(hist[b]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return static_cast<double>(std::int64_t{1} << (kLogBuckets - 1));
}

struct RawSpan {
  PhaseId phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

struct OpenFrame {
  PhaseId phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
};

struct Spool {
  std::uint32_t tid = 0;
  std::vector<PhaseAcc> accs;  // indexed by PhaseId, grown on demand
  std::vector<RawSpan> spans;
  std::vector<OpenFrame> stack;
  std::uint64_t dropped = 0;

  PhaseAcc& acc(PhaseId phase) {
    if (phase >= accs.size()) accs.resize(phase + 1);
    return accs[phase];
  }

  void reset() {
    accs.assign(accs.size(), PhaseAcc{});
    spans.clear();
    stack.clear();
    dropped = 0;
  }
};

struct Registry {
  std::mutex mu;
  std::map<std::string, PhaseId, std::less<>> ids;
  std::vector<std::string> names;                // indexed by PhaseId
  std::vector<std::unique_ptr<Spool>> spools;    // registration order
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: spools outlive any thread
  return *r;
}

thread_local Spool* tls_spool = nullptr;

Spool& local_spool() {
  if (tls_spool == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    auto sp = std::make_unique<Spool>();
    sp->tid = static_cast<std::uint32_t>(r.spools.size());
    tls_spool = sp.get();
    r.spools.push_back(std::move(sp));
  }
  return *tls_spool;
}

}  // namespace

namespace detail {
std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_requests_profiling()};
  return flag;
}
}  // namespace detail

bool env_requests_profiling() {
  const char* env = std::getenv("MCM_PROF");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "1" || v == "on" || v == "ON";
}

void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

PhaseId phase_id(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  const auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const auto id = static_cast<PhaseId>(r.names.size());
  r.names.emplace_back(name);
  r.ids.emplace(std::string(name), id);
  return id;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void tally(PhaseId phase, std::int64_t dur_ns, std::uint64_t calls) {
  if (!enabled() || calls == 0) return;
  PhaseAcc& a = local_spool().acc(phase);
  a.calls += calls;
  a.wall_ns += dur_ns;
  a.self_ns += dur_ns;
  hist_sample(a, calls == 1 ? dur_ns : dur_ns / static_cast<std::int64_t>(calls),
              calls);
}

void count(PhaseId phase, std::uint64_t delta) {
  if (!enabled() || delta == 0) return;
  local_spool().acc(phase).calls += delta;
}

void ScopedTimer::begin(PhaseId phase) {
  local_spool().stack.push_back(OpenFrame{phase, now_ns(), 0});
}

void ScopedTimer::end() {
  Spool& sp = local_spool();
  if (sp.stack.empty()) return;  // a collect(reset) raced this live scope
  const OpenFrame f = sp.stack.back();
  sp.stack.pop_back();
  const std::int64_t dur = now_ns() - f.start_ns;
  PhaseAcc& a = sp.acc(f.phase);
  a.calls += 1;
  a.wall_ns += dur;
  a.self_ns += dur - f.child_ns;
  hist_sample(a, dur);
  if (!sp.stack.empty()) sp.stack.back().child_ns += dur;
  if (sp.spans.size() < kMaxSpansPerSpool) {
    sp.spans.push_back(RawSpan{f.phase, f.start_ns, dur});
  } else {
    ++sp.dropped;
  }
}

const ProfilePhase* ProfileReport::find(std::string_view name) const {
  for (const ProfilePhase& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

ProfileReport collect(bool reset) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);

  std::vector<PhaseAcc> merged(r.names.size());
  struct TaggedSpan {
    std::uint32_t tid;
    RawSpan s;
  };
  std::vector<TaggedSpan> raw_spans;
  ProfileReport rep;
  for (const auto& spp : r.spools) {
    const Spool& sp = *spp;
    for (std::size_t ph = 0; ph < sp.accs.size(); ++ph) {
      merged[ph].merge(sp.accs[ph]);
    }
    for (const RawSpan& s : sp.spans) raw_spans.push_back(TaggedSpan{sp.tid, s});
    rep.dropped_spans += sp.dropped;
    if (!sp.spans.empty()) {
      rep.thread_labels.emplace_back(sp.tid, "t" + std::to_string(sp.tid));
    }
  }

  // Phase rows sorted by name; remember PhaseId -> row for span remapping.
  std::vector<PhaseId> with_data;
  for (PhaseId ph = 0; ph < merged.size(); ++ph) {
    if (!merged[ph].empty()) with_data.push_back(ph);
  }
  std::sort(with_data.begin(), with_data.end(),
            [&](PhaseId a, PhaseId b) { return r.names[a] < r.names[b]; });
  std::vector<std::uint32_t> row_of(merged.size(), 0);
  rep.phases.reserve(with_data.size());
  for (const PhaseId ph : with_data) {
    const PhaseAcc& a = merged[ph];
    ProfilePhase row;
    row.name = r.names[ph];
    row.calls = a.calls;
    row.wall_ns = a.wall_ns;
    row.self_ns = a.self_ns;
    row.max_ns = a.max_ns;
    row.p50 = hist_percentile(a.hist, 0.50);
    row.p95 = hist_percentile(a.hist, 0.95);
    row_of[ph] = static_cast<std::uint32_t>(rep.phases.size());
    rep.phases.push_back(std::move(row));
  }

  std::stable_sort(raw_spans.begin(), raw_spans.end(),
                   [](const TaggedSpan& a, const TaggedSpan& b) {
                     if (a.s.start_ns != b.s.start_ns) {
                       return a.s.start_ns < b.s.start_ns;
                     }
                     return a.tid < b.tid;
                   });
  rep.spans.reserve(raw_spans.size());
  for (const TaggedSpan& t : raw_spans) {
    rep.spans.push_back(
        ProfileSpan{t.tid, row_of[t.s.phase], t.s.start_ns, t.s.dur_ns});
  }

  if (reset) {
    for (const auto& spp : r.spools) spp->reset();
  }
  return rep;
}

JsonValue ProfileReport::to_json(bool with_spans) const {
  JsonValue doc = JsonValue::object();
  doc["schema"] = "mcm.prof/v1";
  doc["version"] = 1;
  JsonValue& ph = doc["phases"];
  ph = JsonValue::array();
  for (const ProfilePhase& p : phases) {
    JsonValue row = JsonValue::object();
    row["name"] = p.name;
    row["calls"] = p.calls;
    row["wall_ns"] = p.wall_ns;
    row["self_ns"] = p.self_ns;
    row["max_ns"] = p.max_ns;
    row["p50"] = p.p50;
    row["p95"] = p.p95;
    ph.push(std::move(row));
  }
  JsonValue& threads = doc["threads"];
  threads = JsonValue::array();
  for (const auto& [tid, label] : thread_labels) {
    JsonValue row = JsonValue::object();
    row["tid"] = tid;
    row["label"] = label;
    threads.push(std::move(row));
  }
  doc["dropped_spans"] = dropped_spans;
  if (with_spans) {
    JsonValue& sp = doc["spans"];
    sp = JsonValue::array();
    for (const ProfileSpan& s : spans) {
      JsonValue row = JsonValue::object();
      row["ph"] = s.phase;  // index into `phases`
      row["tid"] = s.tid;
      row["ts_ns"] = s.start_ns;
      row["dur_ns"] = s.dur_ns;
      sp.push(std::move(row));
    }
  }
  return doc;
}

void ProfileReport::write_chrome_trace(std::ostream& out) const {
  // Normalize timestamps so the trace starts near zero (chrome://tracing
  // renders absolute steady_clock epochs poorly).
  std::int64_t t0 = 0;
  for (const ProfileSpan& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const auto& [tid, label] : thread_labels) {
    sep();
    out << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
        << R"(,"args":{"name":")" << json_escape(label) << "\"}}";
  }
  char buf[64];
  for (const ProfileSpan& s : spans) {
    sep();
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3);
    out << R"({"name":")" << json_escape(phases[s.phase].name)
        << R"(","ph":"X","pid":1,"tid":)" << s.tid << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.dur_ns) / 1e3);
    out << ",\"dur\":" << buf << "}";
  }
  out << "\n]}\n";
  out.flush();
}

bool profile_from_json(const JsonValue& doc, ProfileReport& out) {
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "mcm.prof/v1") return false;
  out = ProfileReport{};
  if (const JsonValue* phases = doc.find("phases"); phases != nullptr) {
    for (std::size_t i = 0; i < phases->size(); ++i) {
      const JsonValue& row = *phases->at(i);
      ProfilePhase p;
      if (const auto* v = row.find("name")) p.name = v->as_string();
      if (const auto* v = row.find("calls")) p.calls = v->as_uint();
      if (const auto* v = row.find("wall_ns")) p.wall_ns = v->as_int();
      if (const auto* v = row.find("self_ns")) p.self_ns = v->as_int();
      if (const auto* v = row.find("max_ns")) p.max_ns = v->as_int();
      if (const auto* v = row.find("p50")) p.p50 = v->as_double();
      if (const auto* v = row.find("p95")) p.p95 = v->as_double();
      out.phases.push_back(std::move(p));
    }
  }
  if (const JsonValue* threads = doc.find("threads"); threads != nullptr) {
    for (std::size_t i = 0; i < threads->size(); ++i) {
      const JsonValue& row = *threads->at(i);
      const auto* tid = row.find("tid");
      const auto* label = row.find("label");
      out.thread_labels.emplace_back(
          tid != nullptr ? static_cast<std::uint32_t>(tid->as_uint()) : 0,
          label != nullptr ? label->as_string() : std::string());
    }
  }
  if (const JsonValue* dropped = doc.find("dropped_spans"); dropped != nullptr) {
    out.dropped_spans = dropped->as_uint();
  }
  if (const JsonValue* spans = doc.find("spans"); spans != nullptr) {
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const JsonValue& row = *spans->at(i);
      ProfileSpan s;
      if (const auto* v = row.find("ph")) {
        s.phase = static_cast<std::uint32_t>(v->as_uint());
      }
      if (const auto* v = row.find("tid")) {
        s.tid = static_cast<std::uint32_t>(v->as_uint());
      }
      if (const auto* v = row.find("ts_ns")) s.start_ns = v->as_int();
      if (const auto* v = row.find("dur_ns")) s.dur_ns = v->as_int();
      if (s.phase >= out.phases.size()) return false;  // malformed reference
      out.spans.push_back(s);
    }
  }
  return true;
}

}  // namespace mcm::obs::prof
