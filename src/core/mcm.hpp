// Umbrella header for the mcmem library: multi-channel mobile DDR memory
// simulation for video recording workloads, reproducing Aho, Nikara,
// Tuominen and Kuusilinna, "A case for multi-channel memories in video
// recording", DATE 2009.
//
// Layering (bottom up):
//   common/sim      - units, stats, clocks
//   dram            - device spec, bank FSM, timing checker, energy model
//   controller      - address mapping, scheduling, refresh, power-down
//   channel         - MC + interconnect + bank cluster, Eq. (1) interface power
//   multichannel    - Table II interleaving, MemorySystem, channel clusters
//   video/load      - H.264 levels, Fig. 1 use case (Table I), traffic sources
//   cache/xdr       - cache filter premise, Cell BE XDR comparison point
//   core            - FrameSimulator and the figure sweeps
#pragma once

#include "cache/cache_model.hpp"
#include "channel/channel.hpp"
#include "channel/interface_power.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "controller/address_mapping.hpp"
#include "controller/memory_controller.hpp"
#include "controller/policies.hpp"
#include "controller/request.hpp"
#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/source_runner.hpp"
#include "dram/bank_cluster.hpp"
#include "dram/command.hpp"
#include "dram/energy.hpp"
#include "dram/spec.hpp"
#include "dram/timing_checker.hpp"
#include "load/encoder_pattern_source.hpp"
#include "load/multi_stream_source.hpp"
#include "load/cached_source.hpp"
#include "load/playback_sources.hpp"
#include "load/trace.hpp"
#include "load/usecase_sources.hpp"
#include "multichannel/channel_clusters.hpp"
#include "pixel/encoder.hpp"
#include "pixel/image.hpp"
#include "pixel/stages.hpp"
#include "pixel/synthetic.hpp"
#include "pixel/transform.hpp"
#include "multichannel/interleaver.hpp"
#include "multichannel/memory_system.hpp"
#include "sim/clock.hpp"
#include "video/encoder_access.hpp"
#include "video/formats.hpp"
#include "video/h264_levels.hpp"
#include "video/playback.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"
#include "xdr/xdr_model.hpp"
