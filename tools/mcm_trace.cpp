// Trace toolbox for the workload subsystem.
//
//   mcm_trace convert IN OUT [--from F] [--to F]
//       Convert between the three trace formats (mcm-text, ramulator,
//       binary). Input format is sniffed unless --from is given; output
//       format defaults to the file extension (.trace = mcm-text,
//       .ramtrace = ramulator, .tracebin/.bin = binary) unless --to is
//       given. Converting to ramulator drops arrivals and source ids.
//
//   mcm_trace record SPEC OUT [--to F]
//       Compile an mcm.workload/v1 scenario and record its composed
//       per-frame request stream (merge-order arrivals) as a trace.
//
//   mcm_trace stat IN [--from F] [--channels N] [--interleave G]
//       Print footprint, R/W mix, per-channel spread (default: 4 channels
//       at 16 B granularity), and an arrival histogram.
//
//   mcm_trace replay SPEC [--report FILE]
//       Compile + simulate the scenario through the state-machine feed and
//       print the result summary; --report writes the deterministic
//       mcm.run_report/v1 JSON (also honors MCM_REPORT_DIR).
//
// Exit status: 0 = success, 1 = runtime failure (I/O, malformed trace),
// 2 = usage error.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "multichannel/interleaver.hpp"
#include "obs/run_report.hpp"
#include "workload/spec.hpp"
#include "workload/trace_format.hpp"
#include "workload/workload.hpp"

namespace {

using mcm::workload::TraceFormat;

[[noreturn]] void usage(int status) {
  std::fprintf(
      status == 0 ? stdout : stderr,
      "usage: mcm_trace <command> [args]\n"
      "  convert IN OUT [--from F] [--to F]   convert between trace formats\n"
      "  record SPEC OUT [--to F]             record a workload scenario\n"
      "  stat IN [--from F] [--channels N] [--interleave G]\n"
      "                                       footprint / R-W mix / spread\n"
      "  replay SPEC [--report FILE]          simulate a workload scenario\n"
      "formats: mcm-text, ramulator, binary (convert/stat sniff the input;\n"
      "output format follows the extension: .trace .ramtrace .tracebin)\n");
  std::exit(status);
}

TraceFormat parse_format_arg(const char* value) {
  const auto f = mcm::workload::parse_trace_format(value);
  if (!f) {
    std::fprintf(stderr, "mcm_trace: unknown format '%s'\n", value);
    std::exit(2);
  }
  return *f;
}

/// A positive 32-bit flag value, or exit 2 naming the flag.
std::uint32_t positive_flag(const char* name, const char* value) {
  const auto v = mcm::parse_int<std::uint32_t>(value);
  if (v && *v > 0) return *v;
  std::fprintf(stderr, "mcm_trace: %s must be a positive integer, got '%s'\n", name, value);
  std::exit(2);
}

/// Output format by explicit flag, else by file extension.
TraceFormat output_format(const std::string& path,
                          std::optional<TraceFormat> explicit_format) {
  if (explicit_format) return *explicit_format;
  const auto dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  if (ext == "ramtrace" || ext == "ram") return TraceFormat::kRamulator;
  if (ext == "tracebin" || ext == "bin") return TraceFormat::kBinary;
  return TraceFormat::kMcmText;
}

mcm::workload::WorkloadSpec load_spec_or_die(const std::string& path) {
  std::string error;
  const auto spec = mcm::workload::load_workload(path, &error);
  if (!spec) {
    std::fprintf(stderr, "mcm_trace: %s\n", error.c_str());
    std::exit(1);
  }
  return *spec;
}

int cmd_convert(const std::vector<std::string>& args,
                std::optional<TraceFormat> from, std::optional<TraceFormat> to) {
  if (args.size() != 2) usage(2);
  const auto requests = mcm::workload::read_trace_file(args[0], from);
  const TraceFormat out_format = output_format(args[1], to);
  mcm::workload::write_trace_file(args[1], out_format, requests);
  std::printf("mcm_trace: %s -> %s (%zu requests, %s)\n", args[0].c_str(),
              args[1].c_str(), requests.size(),
              std::string(to_string(out_format)).c_str());
  return 0;
}

int cmd_record(const std::vector<std::string>& args,
               std::optional<TraceFormat> to) {
  if (args.size() != 2) usage(2);
  const auto spec = load_spec_or_die(args[0]);
  const auto requests = mcm::workload::record_workload(spec);
  const TraceFormat out_format = output_format(args[1], to);
  mcm::workload::write_trace_file(args[1], out_format, requests);
  std::printf("mcm_trace: recorded workload '%s' -> %s (%zu requests, %s)\n",
              spec.name.c_str(), args[1].c_str(), requests.size(),
              std::string(to_string(out_format)).c_str());
  return 0;
}

int cmd_stat(const std::vector<std::string>& args,
             std::optional<TraceFormat> from, std::uint32_t channels,
             std::uint32_t interleave) {
  if (args.size() != 1) usage(2);
  const auto requests = mcm::workload::read_trace_file(args[0], from);
  if (requests.empty()) {
    std::printf("mcm_trace: %s: empty trace\n", args[0].c_str());
    return 0;
  }

  std::uint64_t reads = 0, writes = 0;
  std::uint64_t min_addr = ~std::uint64_t{0}, max_addr = 0;
  std::vector<std::uint64_t> per_channel(channels, 0);
  const mcm::multichannel::Interleaver il(channels, interleave);
  for (const auto& r : requests) {
    (r.is_write ? writes : reads)++;
    min_addr = std::min(min_addr, r.addr);
    max_addr = std::max(max_addr, r.addr);
    per_channel[il.route(r.addr).channel]++;
  }
  const double n = static_cast<double>(requests.size());
  const std::int64_t span_ps = requests.back().arrival.ps();

  std::printf("trace       %s\n", args[0].c_str());
  std::printf("requests    %zu (%" PRIu64 " reads, %" PRIu64
              " writes, %.1f %% writes)\n",
              requests.size(), reads, writes, 100.0 * static_cast<double>(writes) / n);
  std::printf("footprint   [0x%" PRIx64 ", 0x%" PRIx64 "] = %" PRIu64 " bytes\n",
              min_addr, max_addr, max_addr - min_addr);
  std::printf("time span   %" PRId64 " ps\n", span_ps);
  std::printf("channel spread (%u channels, %u B granularity):\n", channels,
              interleave);
  for (std::uint32_t c = 0; c < channels; ++c) {
    std::printf("  ch%-2u %10" PRIu64 "  (%5.1f %%)\n", c, per_channel[c],
                100.0 * static_cast<double>(per_channel[c]) / n);
  }

  // Arrival histogram: 10 equal bins over [0, span]; degenerate spans (all
  // requests at t=0, e.g. unpaced recordings) collapse into one bin.
  std::printf("arrival histogram:\n");
  if (span_ps <= 0) {
    std::printf("  [all requests arrive at 0 ps]\n");
  } else {
    constexpr int kBins = 10;
    std::uint64_t bins[kBins] = {};
    for (const auto& r : requests) {
      int b = static_cast<int>(r.arrival.ps() * kBins / (span_ps + 1));
      bins[std::clamp(b, 0, kBins - 1)]++;
    }
    for (int b = 0; b < kBins; ++b) {
      const std::int64_t lo = span_ps * b / kBins;
      const std::int64_t hi = span_ps * (b + 1) / kBins;
      std::printf("  [%12" PRId64 ", %12" PRId64 ") %10" PRIu64 "\n", lo, hi,
                  bins[b]);
    }
  }
  return 0;
}

int cmd_replay(const std::vector<std::string>& args, const std::string& report_path) {
  if (args.size() != 1) usage(2);
  const auto spec = load_spec_or_die(args[0]);
  const auto run = mcm::workload::run_workload(spec);

  std::printf("workload    %s (%zu tenants, %u channels @ %u MHz)\n",
              spec.name.c_str(), spec.tenants.size(), spec.channels,
              spec.freq_mhz);
  for (const auto& t : run.compiled.tenants) {
    std::printf("  tenant %-16s %-9s base 0x%" PRIx64 "  %10" PRIu64
                " requests  %12" PRIu64 " B\n",
                t.name.c_str(), t.kind.c_str(), t.partition_base, t.requests,
                t.bytes);
  }
  std::printf("requests    %" PRIu64 " per frame x %d frames\n",
              run.compiled.total_requests, spec.frames);
  std::printf("access time %.3f ms per frame (period %.3f ms, %s)\n",
              run.sim.access_time.seconds() * 1e3,
              run.sim.frame_period.seconds() * 1e3,
              run.sim.meets_realtime ? "meets real time" : "MISSES real time");
  std::printf("power       %.2f mW total (%.2f mW DRAM, %.2f mW interface)\n",
              run.sim.total_power_mw, run.sim.dram_power_mw,
              run.sim.interface_power_mw);
  std::printf("row hits    %.1f %%\n", 100.0 * run.sim.stats.row_hit_rate());

  mcm::obs::RunReport report("workload_" + spec.name);
  mcm::workload::export_workload_report(report, spec, run);
  if (!report_path.empty()) {
    if (!report.write_file(report_path)) {
      std::fprintf(stderr, "mcm_trace: cannot write report to %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("report      %s\n", report_path.c_str());
  } else {
    const std::string written = report.write_default();
    if (!written.empty()) std::printf("report      %s\n", written.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") usage(0);

  std::optional<TraceFormat> from;
  std::optional<TraceFormat> to;
  std::uint32_t channels = 4;
  std::uint32_t interleave = 16;
  std::string report_path;
  std::vector<std::string> positional;

  for (int i = 2; i < argc; ++i) {
    const auto value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mcm_trace: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = value("--from")) {
      from = parse_format_arg(v);
    } else if (const char* v = value("--to")) {
      to = parse_format_arg(v);
    } else if (const char* v = value("--channels")) {
      channels = positive_flag("--channels", v);
    } else if (const char* v = value("--interleave")) {
      interleave = positive_flag("--interleave", v);
    } else if (const char* v = value("--report")) {
      report_path = v;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      std::fprintf(stderr, "mcm_trace: unknown option '%s'\n", argv[i]);
      usage(2);
    } else {
      positional.emplace_back(argv[i]);
    }
  }

  try {
    if (command == "convert") return cmd_convert(positional, from, to);
    if (command == "record") return cmd_record(positional, to);
    if (command == "stat") return cmd_stat(positional, from, channels, interleave);
    if (command == "replay") return cmd_replay(positional, report_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcm_trace: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "mcm_trace: unknown command '%s'\n", command.c_str());
  usage(2);
}
