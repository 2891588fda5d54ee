// The PAWS serving daemon: trains a small synthetic fleet, registers it
// in a ParkService and serves the wire protocol until told to stop — the
// process a ranger station (or the CI load test) actually talks to.
//
//   example_paws_serve [--smoke] [--parks N] [--port P] [--port-file PATH]
//                      [--max-seconds S] [--stats]
//
//   --smoke        tiny parks, fast training (CI)
//   --stats        print the SIMD dispatch report — detected/active tier
//                  and each park's scoring backend — then exit without
//                  serving (what PAWS_FORCE_BACKEND would give you here;
//                  remote peers read the same names via the Stats opcode)
//   --parks N      fleet size (default 2), ids park-0..park-(N-1);
//                  0 starts empty — parks arrive over the wire via
//                  SwapSnapshot upserts (fleet bootstrap, see
//                  docs/OPERATIONS.md)
//   --port P       listen port; 0 (default) lets the kernel pick one
//   --port-file    after binding, write the resolved port to this file —
//                  how a launcher scripting an ephemeral port finds us
//   --max-seconds  hard exit after S seconds (0 = run until signalled)
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish and
// their responses flush before the process exits 0.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/park_server.h"
#include "util/archive.h"
#include "util/cpu_features.h"

namespace {

using namespace paws;

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop = true; }

// Same per-slot training recipe as example_serve_fleet: presets cycled,
// seeds varied, so every slot is a genuinely different park.
StatusOr<std::string> TrainParkSnapshot(int slot, bool smoke) {
  const ParkPreset presets[] = {ParkPreset::kMfnp, ParkPreset::kQenp,
                                ParkPreset::kSws};
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 5;
  cfg.bagging.balanced = presets[slot % 3] == ParkPreset::kSws;
  // Some scenario seeds simulate data with a single class, which cannot
  // be trained on; take the next seed, 17 + slot + 1000 * attempt (the
  // rule pawsbench uses), up to 8 attempts.
  Status trained = Status::OK();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const uint64_t seed = 17 + slot + 1000 * static_cast<uint64_t>(attempt);
    Scenario scenario = MakeScenario(presets[slot % 3], seed);
    if (smoke) {
      scenario.park.width = 24;
      scenario.park.height = 20;
      scenario.num_years = 3;
    }
    PawsPipeline pipeline(SimulateScenario(scenario, 100 + slot), cfg);
    Rng rng(7 + slot);
    trained = pipeline.Train(&rng);
    if (!trained.ok()) continue;
    std::printf("park-%d: trained on scenario seed %llu\n", slot,
                static_cast<unsigned long long>(seed));
    ArchiveWriter writer;
    pipeline.SaveModel(&writer);
    return writer.Bytes();
  }
  return trained;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool stats_only = false;
  int num_parks = 2;
  int port = 0;
  int max_seconds = 0;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats_only = true;
    } else if (std::strcmp(argv[i], "--parks") == 0 && i + 1 < argc) {
      num_parks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--max-seconds") == 0 && i + 1 < argc) {
      max_seconds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--parks N] [--port P] "
                   "[--port-file PATH] [--max-seconds S] [--stats]\n",
                   argv[0]);
      return 2;
    }
  }
  CheckOrDie(num_parks >= 0, "paws_serve: --parks must be >= 0");

  if (num_parks > 0) {
    std::printf("training %d parks...\n", num_parks);
    std::fflush(stdout);
  } else {
    std::printf("starting empty (bootstrap via wire SwapSnapshot)\n");
    std::fflush(stdout);
  }
  ParkService service;
  for (int p = 0; p < num_parks; ++p) {
    const StatusOr<std::string> bytes = TrainParkSnapshot(p, smoke);
    if (!bytes.ok()) {
      std::fprintf(stderr, "paws_serve: training park-%d failed: %s\n", p,
                   bytes.status().ToString().c_str());
      return 1;
    }
    auto snapshot = ModelSnapshot::FromBytes(*bytes);
    CheckOrDie(snapshot.ok(), "paws_serve: snapshot load failed");
    const std::string id = "park-" + std::to_string(p);
    CheckOrDie(
        service.Register(id, std::move(snapshot).value()).ok(),
        "paws_serve: register failed");
  }

  if (stats_only) {
    // The dispatch report: what this host can run, what the environment
    // override resolved to, and the backend each registered park's model
    // actually selected — the same names the wire Stats opcode reports.
    std::printf("simd: detected=%s active=%s\n",
                SimdTierName(DetectSimdTier()), SimdTierName(ActiveSimdTier()));
    for (const std::string& id : service.park_ids()) {
      auto backend = service.ScoringBackendName(id);
      std::printf("park %s: scoring_backend=%s\n", id.c_str(),
                  backend.ok() ? backend.value().c_str() : "unknown");
      // Tile-serving view: the tile grid this park partitions into, the
      // served-tile LRU counters, and the feature-tile pool economics —
      // the in-process twin of the wire Stats tile fields.
      auto tiles = service.RiskTileStats(id);
      if (tiles.ok()) {
        std::printf(
            "park %s: tiles=%dx%d (size %d), tile_cache %llu hits / %llu "
            "misses, pool %llu tiles %.1f KiB resident, %llu evictions\n",
            id.c_str(), tiles->tiles_x, tiles->tiles_y, tiles->tile_size,
            static_cast<unsigned long long>(tiles->hits),
            static_cast<unsigned long long>(tiles->misses),
            static_cast<unsigned long long>(tiles->pool.resident_tiles),
            tiles->pool.resident_bytes / 1024.0,
            static_cast<unsigned long long>(tiles->pool.evictions));
      }
    }
    return 0;
  }

  ParkServer server(&service);
  FrameServerOptions options;
  options.port = port;
  const Status started = server.Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "paws_serve: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving %d parks on 127.0.0.1:%d\n", service.num_parks(),
              server.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    CheckOrDie(WriteStringToFile(std::to_string(server.port()), port_file).ok(),
               "paws_serve: writing the port file failed");
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(max_seconds > 0 ? max_seconds
                                                             : 86400 * 365);
  while (!g_stop && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const FrameServer::Stats stats = server.net_stats();
  server.Shutdown();
  std::printf(
      "drained: %llu frames in, %llu out, %llu protocol errors, "
      "%llu connections\n",
      static_cast<unsigned long long>(stats.frames_in),
      static_cast<unsigned long long>(stats.frames_out),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.accepted_connections));
  return 0;
}
