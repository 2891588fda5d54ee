#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "core/pipeline.h"
#include "core/presets.h"
#include "core/risk_map.h"
#include "core/snapshot.h"
#include "fleet/fleet_admin.h"
#include "fleet/fleet_map.h"
#include "fleet/fleet_router.h"
#include "geo/synth.h"
#include "geo/tiled_feature_plane.h"
#include "ml/effort_curve.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "plan/graph.h"
#include "plan/planner.h"
#include "plan/robust.h"
#include "serve/park_server.h"
#include "serve/park_service.h"
#include "util/archive.h"
#include "util/cpu_features.h"
#include "util/thread_pool.h"

namespace pawsbench {
namespace {

using namespace paws;

// Thread budget. Every count the benchmark controls is pinned so that at
// most nproc (4 on the reference host) threads are runnable: two
// closed-loop connections, two FrameServer workers beside the event
// thread, and serial model calls (PAWS_NUM_THREADS=1, set by main, plus an
// explicit ParallelismConfig on every snapshot and service). Training runs
// before anything is timed, on a pinned two threads.
constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
constexpr int kTrainThreads = 2;
// set-up is repeated and its median reported, so one slow set-up (page
// cache, scheduler) does not move setup_s.
constexpr int kSetupRepeats = 5;
// Length of the sub-windows whose read metrics are median-reduced: long
// enough for p99 to have >= 10 samples beyond it on cold_tiles.
constexpr double kWindowSeconds = 2.0;
// Served-result LRU capacities, set explicitly so a library default change
// cannot move the benchmark.
constexpr int kRiskCacheCapacity = 16;
constexpr int kCurveCacheCapacity = 16;
constexpr int kTileCacheCapacity = 64;

std::string ParkId(int index) { return "park-" + std::to_string(index); }

// ------------------------------------------------------------- tracing

// Tracing context of one replayed operation; null when untraced.
struct Trace {
  SpanRecorder* rec = nullptr;
  uint64_t request = 0;
  int root = -1;
  // False: spans around the client call only (the overhead measurement).
  bool probes = true;
};

bool Probing(const Trace* trace) { return trace != nullptr && trace->probes; }

// A span for the life of a scope; no-op without a trace. `as_current`
// makes it the parent of the server-side spans recorded meanwhile.
class SpanScope {
 public:
  SpanScope(const Trace* trace, const char* name, bool as_current = false)
      : trace_(trace) {
    if (trace_ == nullptr) return;
    id_ = trace_->rec->Begin(name, trace_->root, trace_->request);
    if (as_current) trace_->rec->set_current(id_, trace_->request);
    restore_ = as_current;
  }
  ~SpanScope() { End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void End(int64_t work = 0) {
    if (trace_ == nullptr || id_ < 0) return;
    trace_->rec->End(id_, work);
    if (restore_) trace_->rec->set_current(trace_->root, trace_->request);
    id_ = -1;
  }

 private:
  const Trace* trace_;
  int id_ = -1;
  bool restore_ = false;
};

// Times `fn` (a client call) into *ns inside an as-current span.
template <typename Fn>
auto Timed(const Trace* trace, const char* name, int64_t* ns, Fn&& fn) {
  SpanScope span(trace, name, /*as_current=*/true);
  const int64_t t0 = NowNs();
  auto result = fn();
  *ns = NowNs() - t0;
  return result;
}

// ------------------------------------------------------- serving stack

// Service-wide cache and pool counters, summed over parks.
struct CacheTotals {
  uint64_t risk_hits = 0, risk_misses = 0;
  uint64_t curve_hits = 0, curve_misses = 0;
  uint64_t tile_hits = 0, tile_misses = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t pool_resident_bytes = 0;

  CacheTotals& operator+=(const CacheTotals& o) {
    risk_hits += o.risk_hits;
    risk_misses += o.risk_misses;
    curve_hits += o.curve_hits;
    curve_misses += o.curve_misses;
    tile_hits += o.tile_hits;
    tile_misses += o.tile_misses;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    pool_evictions += o.pool_evictions;
    return *this;
  }
  CacheTotals& operator-=(const CacheTotals& o) {
    risk_hits -= o.risk_hits;
    risk_misses -= o.risk_misses;
    curve_hits -= o.curve_hits;
    curve_misses -= o.curve_misses;
    tile_hits -= o.tile_hits;
    tile_misses -= o.tile_misses;
    pool_hits -= o.pool_hits;
    pool_misses -= o.pool_misses;
    pool_evictions -= o.pool_evictions;
    return *this;
  }
  // Counter delta; resident bytes keep the later value.
  CacheTotals Since(const CacheTotals& b) const {
    CacheTotals d;
    d.risk_hits = risk_hits - b.risk_hits;
    d.risk_misses = risk_misses - b.risk_misses;
    d.curve_hits = curve_hits - b.curve_hits;
    d.curve_misses = curve_misses - b.curve_misses;
    d.tile_hits = tile_hits - b.tile_hits;
    d.tile_misses = tile_misses - b.tile_misses;
    d.pool_hits = pool_hits - b.pool_hits;
    d.pool_misses = pool_misses - b.pool_misses;
    d.pool_evictions = pool_evictions - b.pool_evictions;
    d.pool_resident_bytes = pool_resident_bytes;
    return d;
  }
};

CacheTotals Totals(const ParkService& service) {
  CacheTotals t;
  for (const std::string& id : service.park_ids()) {
    const auto risk = service.RiskCacheStats(id);
    const auto curve = service.CurveCacheStats(id);
    const auto tile = service.RiskTileStats(id);
    if (!risk.ok() || !curve.ok() || !tile.ok()) continue;
    t.risk_hits += risk->hits;
    t.risk_misses += risk->misses;
    t.curve_hits += curve->hits;
    t.curve_misses += curve->misses;
    t.tile_hits += tile->hits;
    t.tile_misses += tile->misses;
    t.pool_hits += tile->pool.hits;
    t.pool_misses += tile->pool.misses;
    t.pool_evictions += tile->pool.evictions;
    t.pool_resident_bytes += tile->pool.resident_bytes;
  }
  return t;
}

// ParkService behind a loopback FrameServer. Untraced: ParkServer::Start,
// the production wiring. Traced: a benchmark-owned FrameServer whose
// handler calls ParkServer::Handle inside a `serve.handle` span — the same
// wiring ParkServer::Start uses — and keeps the last response payload for
// the bit-for-bit reconstruction checks.
class ServingStack {
 public:
  explicit ServingStack(const ParkServiceOptions& options)
      : service_(options), server_(&service_) {}
  ~ServingStack() {
    owned_.Shutdown();
    server_.Shutdown();
  }
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  Status Start(SpanRecorder* rec) {
    FrameServerOptions options;
    options.num_workers = kServerWorkers;
    options.idle_timeout_ms = 0;
    if (rec == nullptr) return server_.Start(options);
    rec_ = rec;
    traced_ = true;
    return owned_.Start(options, [this](const Frame& request) {
      if (!recording_.load()) return server_.Handle(request);
      const int id = rec_->Begin("serve.handle", rec_->current_parent(),
                                 rec_->current_request());
      Frame response = server_.Handle(request);
      rec_->End(id, static_cast<int64_t>(kWireHeaderBytes +
                                         response.payload.size()));
      std::lock_guard<std::mutex> lock(last_mu_);
      last_payload_ = response.payload;
      return response;
    });
  }

  int port() const { return traced_ ? owned_.port() : server_.port(); }
  FrameServer::Stats net_stats() const {
    return traced_ ? owned_.stats() : server_.net_stats();
  }
  ParkService& service() { return service_; }
  void set_recording(bool on) { recording_.store(on); }
  std::string last_payload() const {
    std::lock_guard<std::mutex> lock(last_mu_);
    return last_payload_;
  }

 private:
  ParkService service_;
  ParkServer server_;
  FrameServer owned_;
  SpanRecorder* rec_ = nullptr;
  bool traced_ = false;
  std::atomic<bool> recording_{false};
  mutable std::mutex last_mu_;
  std::string last_payload_;
};

ParkServiceOptions PinnedServiceOptions() {
  ParkServiceOptions options;
  options.risk_cache_capacity = kRiskCacheCapacity;
  options.curve_cache_capacity = kCurveCacheCapacity;
  options.tile_cache_capacity = kTileCacheCapacity;
  options.parallelism = ParallelismConfig::Serial();
  return options;
}

// --------------------------------------------------------- model set-up

struct Artifact {
  std::string bytes;
  double train_ms = 0.0;
};

// One preset park (MFNP, QENP, SWS cycled by slot) trained with the
// serving daemon's recipe, saved as a snapshot archive. Some SWS scenario
// seeds leave a threshold subset with one class (the park has ~0.4%
// positives); the next scenario seed is taken then, deterministically.
Artifact TrainPreset(int slot) {
  const ParkPreset presets[] = {ParkPreset::kMfnp, ParkPreset::kQenp,
                                ParkPreset::kSws};
  const ParkPreset preset = presets[slot % 3];
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 5;
  cfg.bagging.balanced = preset == ParkPreset::kSws;
  Status trained = Status::OK();
  for (uint64_t attempt = 0; attempt < 8; ++attempt) {
    const uint64_t seed = 17 + slot + 1000 * attempt;
    PawsPipeline pipeline(SimulateScenario(MakeScenario(preset, seed),
                                           100 + static_cast<uint64_t>(slot)),
                          cfg);
    pipeline.SetNumThreads(kTrainThreads);
    Rng rng(7 + static_cast<uint64_t>(slot));
    const int64_t t0 = NowNs();
    trained = pipeline.Train(&rng);
    if (!trained.ok()) continue;
    Artifact artifact;
    artifact.train_ms = (NowNs() - t0) * 1e-6;
    ArchiveWriter writer;
    pipeline.SaveModel(&writer);
    artifact.bytes = writer.Bytes();
    return artifact;
  }
  CheckOrDie(false, ("pawsbench: training failed: " + trained.ToString()).c_str());
  return {};
}

ModelSnapshot LoadSerial(const std::string& bytes) {
  StatusOr<ModelSnapshot> snapshot = ModelSnapshot::FromBytes(bytes);
  CheckOrDie(snapshot.ok(), "pawsbench: snapshot artifact does not load");
  snapshot->mutable_model().set_parallelism(ParallelismConfig::Serial());
  return std::move(snapshot).value();
}

IWareEnsemble LoadModel(const std::string& bytes) {
  StatusOr<ArchiveReader> reader = ArchiveReader::FromBytes(bytes);
  CheckOrDie(reader.ok(), "pawsbench: model archive does not open");
  StatusOr<IWareEnsemble> model = IWareEnsemble::Load(&*reader);
  CheckOrDie(model.ok(), "pawsbench: model archive does not load");
  model->set_parallelism(ParallelismConfig::Serial());
  return std::move(model).value();
}

// -------------------------------------------------------------- answers

bool SameMaps(const RiskMaps& a, const RiskMaps& b) {
  return SameBits(a.risk, b.risk) && SameBits(a.variance, b.variance) &&
         SameBits(a.assumed_effort, b.assumed_effort);
}

bool SameTile(const RiskTile& a, const RiskTile& b) {
  return a.tile_id == b.tile_id && a.cell_ids == b.cell_ids &&
         SameBits(a.risk, b.risk) && SameBits(a.variance, b.variance) &&
         SameBits(a.assumed_effort, b.assumed_effort);
}

bool SameCurves(const EffortCurveTable& a, const EffortCurveTable& b) {
  return a.num_cells == b.num_cells && a.qualified_count == b.qualified_count &&
         SameBits(a.effort_grid, b.effort_grid) && SameBits(a.prob, b.prob) &&
         SameBits(a.variance, b.variance);
}

bool SamePlan(const PatrolPlan& a, const PatrolPlan& b) {
  return SameBits(a.coverage, b.coverage) && SameBits(a.objective, b.objective) &&
         a.proven_optimal == b.proven_optimal && SameBits(a.mip_gap, b.mip_gap) &&
         a.simplex_iterations == b.simplex_iterations &&
         a.nodes_explored == b.nodes_explored;
}

uint64_t HashTile(const RiskTile& t) {
  uint64_t h = HashVector(t.cell_ids, static_cast<uint64_t>(t.tile_id));
  h = HashVector(t.risk, h);
  h = HashVector(t.variance, h);
  return HashBytes(&t.assumed_effort, sizeof(double), h);
}

struct SolverTotals {
  uint64_t plans = 0, optimal = 0, nodes = 0, simplex_iters = 0;
  void Add(const PatrolPlan& plan) {
    ++plans;
    optimal += plan.proven_optimal ? 1 : 0;
    nodes += static_cast<uint64_t>(plan.nodes_explored);
    simplex_iters += static_cast<uint64_t>(plan.simplex_iterations);
  }
};

// Short patrols (4 km, 10 PWL segments) keep one plan in the 1-100 ms
// range on the preset parks; the library default (8 km) takes seconds.
PlannerConfig ProbePlannerConfig() {
  PlannerConfig config;
  config.horizon = 4;
  config.num_patrols = 2;
  config.pwl_segments = 10;
  return config;
}

// The planning path of ModelSnapshot::PlanForPost rebuilt from public
// calls, one span per stage: graph -> curves -> tables -> solve.
StatusOr<PatrolPlan> PlanStages(const ModelSnapshot& snapshot, int post,
                                const PlannerConfig& config,
                                const RobustParams& robust,
                                const Trace* trace) {
  const auto& posts = snapshot.park().patrol_posts();
  if (post < 0 || post >= static_cast<int>(posts.size())) {
    return Status::InvalidArgument("pawsbench: bad post");
  }
  PlanningGraph graph;
  {
    SpanScope span(trace, "plan.graph");
    graph = BuildPlanningGraph(snapshot.park(), posts[post],
                               std::max(2, config.horizon / 2));
    span.End(graph.num_cells());
  }
  EffortCurveTable curves;
  {
    SpanScope span(trace, "core.curves");
    curves = snapshot.PredictCellCurves(
        graph.park_cell_ids,
        UniformEffortGrid(0.0, PlannerEffortCap(config), config.pwl_segments));
    span.End(curves.num_cells);
  }
  std::vector<PiecewiseLinear> tables;
  {
    SpanScope span(trace, "plan.tables");
    tables = MakeRobustUtilityTables(curves, robust);
    span.End(static_cast<int64_t>(tables.size()));
  }
  SpanScope span(trace, "plan.solve");
  return PlanPatrols(graph, tables, config);
}

// Encodes a served result the way ParkServer does (payload + frame) inside
// a `net.encode` span and returns the payload.
template <typename EncodeFn>
std::string TimedEncode(const Trace* trace, EncodeFn&& encode) {
  SpanScope span(trace, "net.encode");
  Frame frame;
  frame.opcode = static_cast<uint32_t>(Opcode::kOkResponse);
  frame.payload = encode();
  const std::string wire = EncodeFrame(frame);
  span.End(static_cast<int64_t>(wire.size()));
  return frame.payload;
}

// Decodes `payload` as the client does inside a `net.decode` span.
template <typename DecodeFn>
bool TimedDecode(const Trace* trace, const std::string& payload,
                 DecodeFn&& decode) {
  SpanScope span(trace, "net.decode");
  const bool ok = decode(payload).ok();
  span.End(static_cast<int64_t>(payload.size()));
  return ok;
}

// Tile-level layer probes on an in-process snapshot: the whole tile path
// (core), a pool-miss materialization (geo) and scoring of those rows (ml).
// `plane` must not hold `tile`, so GetTile materializes it.
bool TileLayerProbes(const ModelSnapshot& snapshot, TiledFeaturePlane* plane,
                     int tile, double effort, const Trace* trace) {
  RiskTile whole;
  {
    SpanScope span(trace, "core.tile");
    whole = snapshot.PredictRiskTile(tile, effort);
    span.End(static_cast<int64_t>(whole.cell_ids.size()));
  }
  std::shared_ptr<const TiledFeaturePlane::Tile> rows;
  {
    SpanScope span(trace, "geo.materialize");
    rows = plane->GetTile(snapshot.park(), tile);
    span.End(static_cast<int64_t>(rows->cell_ids.size()));
  }
  SpanScope span(trace, "ml.score");
  const RiskTile scored =
      ScoreRiskTile(snapshot.model(), *rows, plane->row_width(), effort);
  span.End(static_cast<int64_t>(scored.cell_ids.size()));
  return SameTile(whole, scored);
}

// ---------------------------------------------------------- workloads

// `connections` plain clients to the loopback server.
std::vector<std::unique_ptr<ParkClient>> ConnectClients(int connections,
                                                        int port) {
  ClientOptions options;
  options.backoff_jitter_seed = 1;
  std::vector<std::unique_ptr<ParkClient>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<ParkClient>(options));
    CheckOrDie(clients.back()->Connect("127.0.0.1", port).ok(),
               "pawsbench: connect failed");
  }
  return clients;
}


struct Outcome {
  bool ok = false;
  int64_t ns = 0;
};

class Bench {
 public:
  virtual ~Bench() = default;

  virtual StreamShape shape() const = 0;
  /// Tail percentile reported as tail_ms.
  virtual double tail_q() const { return 0.99; }
  /// Operations in one traced replay.
  virtual int replay_ops() const = 0;
  /// Reads per complete pass over a fixed menu (plan_patrol), else 0.
  virtual int pass_reads() const { return 0; }
  /// Trains / builds every park and registers it with `stack`.
  virtual void BuildParks(ServingStack* stack) = 0;
  /// Opens `connections` clients to the started stack.
  virtual void Connect(int connections, int port) = 0;
  /// Warm-up traffic of connection `c` (status-checked only).
  virtual bool Warmup(int c) = 0;
  /// In-process ground truth for every answer the workload can get.
  virtual void BuildTruth() = 0;
  /// Runs one operation on connection `c`. `ns` times the call alone;
  /// the answer check and any traced layer probes run after it.
  virtual Outcome Execute(int c, const Op& op, const Trace* trace,
                          bool check) = 0;
  /// Layer probes on sides of the stack this workload does not serve, so
  /// metrics that should stay flat here are measured here too.
  virtual bool Probe(const Trace* trace) = 0;
  /// Config record lines.
  virtual void Describe() const = 0;

  const std::vector<double>& train_ms() const { return train_ms_; }
  const SolverTotals& solver() const { return solver_; }
  /// Counters moved by the benchmark's own reconstruction calls, which
  /// the served-traffic ratios must not include.
  const CacheTotals& excluded() const { return excluded_; }
  /// Router counters (hot_maps only).
  virtual FleetRouter::Stats router_stats() const { return {}; }

 protected:
  // Runs `fn` and books the cache counters it moved as excluded.
  template <typename Fn>
  auto Excluding(Fn&& fn) {
    const CacheTotals before = Totals(stack_->service());
    auto result = fn();
    excluded_ += Totals(stack_->service()).Since(before);
    return result;
  }

  // decode -> ParkService -> encode (`fn`), checked byte for byte against
  // the payload ParkServer::Handle served for the same request.
  template <typename Fn>
  bool Reconstruct(const Trace* trace, const std::string& served, Fn&& fn) {
    const StatusOr<std::string> rebuilt = Excluding([&] {
      SpanScope span(trace, "serve.reconstruct");
      return fn();
    });
    return rebuilt.ok() && *rebuilt == served;
  }

  // Writer: installs whichever of two coverage layers is not live. The
  // layer copy is the caller's input, made before the clock starts.
  Outcome FlipCoverage(const std::string& park_id,
                       const std::vector<double>& l0,
                       const std::vector<double>& l1, bool* live_l1,
                       const Trace* trace) {
    std::vector<double> layer = *live_l1 ? l0 : l1;
    SpanScope span(trace, "serve.update_coverage");
    Outcome out;
    const int64_t t0 = NowNs();
    out.ok = stack_->service().UpdateCoverage(park_id, std::move(layer)).ok();
    out.ns = NowNs() - t0;
    if (out.ok) *live_l1 = !*live_l1;
    return out;
  }

  // Planner layers on two posts of `snapshot`, for workloads whose
  // traffic does not plan: plan.* should stay flat there.
  bool PlanProbe(const ModelSnapshot& snapshot, const Trace* trace) {
    bool ok = true;
    for (int post = 0; post < 2; ++post) {
      const StatusOr<PatrolPlan> plan = PlanStages(
          snapshot, post, ProbePlannerConfig(), RobustParams{}, trace);
      ok &= plan.ok();
      if (plan.ok()) solver_.Add(*plan);
    }
    return ok;
  }

  ServingStack* stack_ = nullptr;
  std::vector<double> train_ms_;
  SolverTotals solver_;
  CacheTotals excluded_;
};

// ----------------------------------------------------------- hot_maps

class HotMaps : public Bench {
 public:
  static constexpr int kParks = 8;
  static constexpr int kRolloutPark = kParks - 1;
  static constexpr int kEfforts = 3;
  static constexpr int kCurveSets = 3;
  static constexpr int kCurveCells = 16;

  StreamShape shape() const override { return {kParks, kCurveSets, kEfforts}; }
  int replay_ops() const override { return 3000; }

  void BuildParks(ServingStack* stack) override {
    stack_ = stack;
    for (int slot = 0; slot < kParks; ++slot) {
      Artifact artifact = TrainPreset(slot);
      train_ms_.push_back(artifact.train_ms);
      artifacts_[slot][0] = std::move(artifact.bytes);
      CheckOrDie(stack->service()
                     .Register(ParkId(slot), LoadSerial(artifacts_[slot][0]))
                     .ok(),
                 "pawsbench: register failed");
    }
    // Rollout artifact B: the same model over another coverage layer.
    const ModelSnapshot a = LoadSerial(artifacts_[kRolloutPark][0]);
    std::vector<double> lag = a.lagged_effort();
    for (size_t i = 0; i < lag.size(); i += 2) lag[i] += 1.0;
    ArchiveWriter writer;
    SaveModelSnapshotParts(a.model(), a.park(), lag, &writer);
    artifacts_[kRolloutPark][1] = writer.Bytes();
  }

  void Connect(int connections, int port) override {
    StatusOr<FleetMap> map =
        FleetMap::Create({FleetEndpoint{"127.0.0.1", port}}, 1);
    CheckOrDie(map.ok(), "pawsbench: fleet map");
    map_ = std::make_unique<FleetMap>(std::move(map).value());
    FleetRouterOptions router_options;
    router_options.enable_probe_thread = false;
    router_options.probe_jitter_seed = 1;
    router_options.client.backoff_jitter_seed = 1;
    for (int c = 0; c < connections; ++c) {
      routers_.push_back(std::make_unique<FleetRouter>(*map_, router_options));
    }
    FleetAdminOptions admin_options;
    admin_options.client.backoff_jitter_seed = 1;
    admin_ = std::make_unique<FleetAdmin>(map_.get(), admin_options);
    ClientOptions client_options;
    client_options.backoff_jitter_seed = 1;
    paired_ = std::make_unique<ParkClient>(client_options);
    CheckOrDie(paired_->Connect("127.0.0.1", port).ok(),
               "pawsbench: paired client connect");
    for (int slot = 0; slot < kParks; ++slot) {
      backends_.push_back(
          stack_->service().ScoringBackendName(ParkId(slot)).value());
    }
  }

  bool Warmup(int c) override {
    bool ok = true;
    for (int p = 0; p < kParks; ++p) {
      for (int e = 0; e < kEfforts; ++e) {
        ok &= Execute(c, {OpKind::kRiskMap, p, 0, e}, nullptr, false).ok;
        ok &= Execute(c, {OpKind::kRiskTile, p, 0, e}, nullptr, false).ok;
      }
      for (int s = 0; s < kCurveSets; ++s) {
        ok &= Execute(c, {OpKind::kCellCurves, p, s, 0}, nullptr, false).ok;
      }
    }
    ok &= Execute(c, {OpKind::kStats, 0, 0, 0}, nullptr, false).ok;
    return ok;
  }

  void BuildTruth() override {
    for (int slot = 0; slot < kParks; ++slot) {
      for (int v = 0; v < 2; ++v) {
        if (artifacts_[slot][v].empty()) continue;
        auto ref = std::make_unique<ModelSnapshot>(
            LoadSerial(artifacts_[slot][v]));
        Truth& t = truth_[slot][v];
        for (int e = 0; e < kEfforts; ++e) {
          t.maps[e] = ref->PredictRisk(Effort(e));
          t.tiles[e] = ref->PredictRiskTile(0, Effort(e));
        }
        for (int s = 0; s < kCurveSets; ++s) {
          t.curves[s] = ref->PredictCellCurves(CurveCells(s), CurveGrid());
        }
        t.valid = true;
        if (v == 0) refs_[slot] = std::move(ref);
      }
    }
  }

  Outcome Execute(int c, const Op& op, const Trace* trace,
                  bool check) override {
    FleetRouter& router = *routers_[c];
    const std::string id = ParkId(op.park);
    const double effort = Effort(op.effort);
    Outcome out;
    switch (op.kind) {
      case OpKind::kRiskMap: {
        const StatusOr<RiskMaps> maps = Timed(
            trace, "client.read", &out.ns,
            [&] { return router.RiskMap(id, effort); });
        out.ok = maps.ok() &&
                 (!check || AnyVersion(op.park, [&](const Truth& t) {
                   return SameMaps(*maps, t.maps[op.effort]);
                 }));
        if (maps.ok() && Probing(trace)) {
          const std::string served = stack_->last_payload();
          out.ok &= TimedDecode(trace, served, DecodeRiskMapsPayload);
          out.ok &= Reconstruct(trace, served, [&]() -> StatusOr<std::string> {
            PAWS_ASSIGN_OR_RETURN(
                RiskMapRequest request,
                DecodeRiskMapRequest(EncodeRiskMapRequest({id, effort})));
            PAWS_ASSIGN_OR_RETURN(
                std::shared_ptr<const RiskMaps> result,
                stack_->service().RiskMap(request.park_id,
                                          request.assumed_effort));
            return TimedEncode(trace,
                               [&] { return EncodeRiskMapsPayload(*result); });
          });
          // The router's own cost: the same request once more through the
          // router and through a bare client, in alternating order.
          const bool router_first = trace->request % 2 == 0;
          for (int i = 0; i < 2; ++i) {
            const bool via_router = (i == 0) == router_first;
            int64_t ns = 0;
            const StatusOr<RiskMaps> again = Excluding([&] {
              return Timed(trace,
                           via_router ? "fleet.router_call"
                                      : "fleet.paired_client",
                           &ns, [&] {
                             return via_router ? router.RiskMap(id, effort)
                                               : paired_->RiskMap(id, effort);
                           });
            });
            out.ok &= again.ok() && SameMaps(*again, *maps);
          }
        }
        return out;
      }
      case OpKind::kRiskTile: {
        const StatusOr<RiskTile> tile = Timed(
            trace, "client.read", &out.ns,
            [&] { return router.RiskTile(id, 0, effort); });
        out.ok = tile.ok() &&
                 (!check || AnyVersion(op.park, [&](const Truth& t) {
                   return SameTile(*tile, t.tiles[op.effort]);
                 }));
        if (tile.ok() && Probing(trace)) {
          const std::string served = stack_->last_payload();
          out.ok &= TimedDecode(trace, served, DecodeRiskTilePayload);
          out.ok &= Reconstruct(trace, served, [&]() -> StatusOr<std::string> {
            PAWS_ASSIGN_OR_RETURN(RiskTileRequest request,
                                  DecodeRiskTileRequest(
                                      EncodeRiskTileRequest({id, 0, effort})));
            PAWS_ASSIGN_OR_RETURN(
                std::shared_ptr<const RiskTile> result,
                stack_->service().RiskTile(request.park_id, request.tile_id,
                                           request.assumed_effort));
            return TimedEncode(trace,
                               [&] { return EncodeRiskTilePayload(*result); });
          });
          // One tile per preset park: a fresh plane is the pool miss.
          const ModelSnapshot& ref = *refs_[op.park];
          TiledFeaturePlane plane(ref.park(), ref.lagged_effort(),
                                  TiledPlaneOptions{64, 1});
          out.ok &= TileLayerProbes(ref, &plane, 0, effort, trace);
        }
        return out;
      }
      case OpKind::kCellCurves: {
        const std::vector<int> cells = CurveCells(op.item);
        const StatusOr<EffortCurveTable> curves = Timed(
            trace, "client.read", &out.ns,
            [&] { return router.CellCurves(id, cells, CurveGrid()); });
        out.ok = curves.ok() &&
                 (!check || AnyVersion(op.park, [&](const Truth& t) {
                   return SameCurves(*curves, t.curves[op.item]);
                 }));
        if (curves.ok() && Probing(trace)) {
          const std::string served = stack_->last_payload();
          out.ok &= TimedDecode(trace, served, DecodeEffortCurveTablePayload);
          out.ok &= Reconstruct(trace, served, [&]() -> StatusOr<std::string> {
            PAWS_ASSIGN_OR_RETURN(
                CellCurvesRequest request,
                DecodeCellCurvesRequest(
                    EncodeCellCurvesRequest({id, cells, CurveGrid()})));
            PAWS_ASSIGN_OR_RETURN(
                std::shared_ptr<const EffortCurveTable> result,
                stack_->service().CellCurves(request.park_id, request.cell_ids,
                                             request.effort_grid));
            return TimedEncode(trace, [&] {
              return EncodeEffortCurveTablePayload(*result);
            });
          });
        }
        return out;
      }
      case OpKind::kStats: {
        const StatusOr<ServerStatsReport> stats =
            Timed(trace, "client.read", &out.ns,
                  [&] { return router.EndpointStats(0); });
        out.ok = stats.ok() && (!check || StatsMatch(*stats));
        if (stats.ok() && Probing(trace)) {
          const std::string served = stack_->last_payload();
          out.ok &= TimedDecode(trace, served, DecodeStatsReportPayload);
          TimedEncode(trace, [&] { return EncodeStatsReportPayload(*stats); });
        }
        return out;
      }
      case OpKind::kRollout: {
        const std::string park = ParkId(kRolloutPark);
        const int next = 1 - live_;
        const RolloutReport report =
            Timed(trace, "fleet.rollout", &out.ns, [&] {
              return admin_->RolloutSnapshot(park,
                                             artifacts_[kRolloutPark][next],
                                             artifacts_[kRolloutPark][live_]);
            });
        out.ok = report.ok;
        if (report.ok) live_ = next;
        if (report.ok && Probing(trace)) {
          const std::string& bytes = artifacts_[kRolloutPark][live_];
          int64_t ns = 0;
          const Status verified = Excluding([&] {
            return Timed(trace, "fleet.verify", &ns, [&] {
              return admin_->VerifyReplica(0, park, bytes);
            });
          });
          out.ok &= verified.ok();
          SpanScope span(trace, "core.snapshot_load");
          out.ok &= ModelSnapshot::FromBytes(bytes).ok();
          span.End(static_cast<int64_t>(bytes.size()));
        }
        return out;
      }
      default:
        return out;
    }
  }

  bool Probe(const Trace* trace) override {
    return PlanProbe(*refs_[0], trace);
  }

  FleetRouter::Stats router_stats() const override {
    FleetRouter::Stats total;
    for (const auto& router : routers_) {
      const FleetRouter::Stats s = router->stats();
      total.requests += s.requests;
      total.failovers += s.failovers;
      total.transport_errors += s.transport_errors;
    }
    return total;
  }

  void Describe() const override {
    std::printf(
        "pawsbench: hot_maps: %d preset parks (MFNP/QENP/SWS cycled), "
        "zipf(1.1) over parks, efforts {1,2,3}, %d curve sets x %d cells; "
        "rollout park %s alternates artifacts of %zu / %zu bytes; tile pool "
        "= eager-mode snapshot default (rollouts load snapshots through the "
        "wire, which cannot set a budget)\n",
        kParks, kCurveSets, kCurveCells, ParkId(kRolloutPark).c_str(),
        artifacts_[kRolloutPark][0].size(), artifacts_[kRolloutPark][1].size());
    for (int slot = 0; slot < kParks; ++slot) {
      std::printf("pawsbench: park %s backend=%s cells=%d\n",
                  ParkId(slot).c_str(), backends_[slot].c_str(),
                  refs_[slot] ? refs_[slot]->park().num_cells() : 0);
    }
  }

 private:
  struct Truth {
    bool valid = false;
    RiskMaps maps[kEfforts];
    RiskTile tiles[kEfforts];
    EffortCurveTable curves[kCurveSets];
  };

  static double Effort(int index) { return 1.0 + index; }
  static std::vector<int> CurveCells(int set) {
    std::vector<int> cells(kCurveCells);
    for (int i = 0; i < kCurveCells; ++i) cells[i] = set * kCurveCells + i;
    return cells;
  }
  static std::vector<double> CurveGrid() { return {0.0, 1.0, 2.0, 3.0, 4.0}; }

  // Either live artifact of the park (only the rollout park has two).
  template <typename Pred>
  bool AnyVersion(int park, Pred&& pred) const {
    for (const Truth& t : truth_[park]) {
      if (t.valid && pred(t)) return true;
    }
    return false;
  }

  bool StatsMatch(const ServerStatsReport& report) const {
    if (report.parks.size() != static_cast<size_t>(kParks)) return false;
    for (const auto& park : report.parks) {
      bool known = false;
      for (int slot = 0; slot < kParks; ++slot) {
        known |= park.park_id == ParkId(slot) &&
                 park.scoring_backend == backends_[slot];
      }
      if (!known) return false;
    }
    return true;
  }

  std::string artifacts_[kParks][2];
  Truth truth_[kParks][2];
  std::unique_ptr<ModelSnapshot> refs_[kParks];
  std::vector<std::string> backends_;
  std::unique_ptr<FleetMap> map_;
  std::vector<std::unique_ptr<FleetRouter>> routers_;
  std::unique_ptr<FleetAdmin> admin_;
  std::unique_ptr<ParkClient> paired_;
  int live_ = 0;  // live artifact of the rollout park; stream 0 writes it
};

// --------------------------------------------------------- cold_tiles

class ColdTiles : public Bench {
 public:
  static constexpr std::int64_t kMegaCells = 1000000;
  // Pool budget: ~20 tiles of feature rows, far below the tile working set.
  static constexpr size_t kPoolBudgetBytes = 8u << 20;
  static constexpr int kEfforts = 6;
  static constexpr double kCoverageKm = 2.5;

  StreamShape shape() const override {
    return {1, static_cast<int>(interior_.size()), kEfforts};
  }
  int replay_ops() const override { return 400; }

  void BuildParks(ServingStack* stack) override {
    stack_ = stack;
    // A small model over a park with the same 11-feature stack serves the
    // mega park directly (row widths match by construction).
    Scenario scenario;
    scenario.num_years = 3;
    IWareConfig cfg;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.num_thresholds = 10;
    cfg.cv_folds = 2;
    cfg.bagging.num_estimators = 8;
    cfg.tree.max_depth = 5;
    cfg.tree.min_samples_leaf = 16;
    PawsPipeline pipeline(SimulateScenario(scenario, 7), cfg);
    pipeline.SetNumThreads(kTrainThreads);
    Rng rng(31);
    const int64_t t0 = NowNs();
    CheckOrDie(pipeline.Train(&rng).ok(), "pawsbench: training failed");
    train_ms_.push_back((NowNs() - t0) * 1e-6);
    ArchiveWriter writer;
    pipeline.model().Save(&writer);
    model_bytes_ = writer.Bytes();

    MegaParkConfig mega;
    mega.target_cells = kMegaCells;
    park_ = std::make_unique<Park>(GenerateMegaPark(mega));
    CheckOrDie(park_->num_features() == pipeline.data().park.num_features(),
               "pawsbench: mega park must match the training feature stack");
    l0_.assign(park_->num_cells(), 0.0);

    ModelSnapshot snapshot(LoadModel(model_bytes_), *park_, l0_,
                           TiledPlaneOptions{64, kPoolBudgetBytes});
    // Full interior tiles only: one request shape (4096 cells).
    const TiledFeaturePlane& plane = snapshot.tiled_plane();
    const int full = plane.geometry().tile_size * plane.geometry().tile_size;
    std::vector<int> ids;
    for (int t = 0; t < plane.num_tiles(); ++t) {
      plane.TileCellIds(*park_, t, &ids);
      if (static_cast<int>(ids.size()) == full) interior_.push_back(t);
    }
    CheckOrDie(interior_.size() >= 16, "pawsbench: too few interior tiles");
    // The written rectangle straddles the corner of four interior tiles.
    const TileGeometry& geo = plane.geometry();
    int x0, y0, x1, y1;
    geo.TileRect(interior_[interior_.size() / 2], park_->width(),
                 park_->height(), &x0, &y0, &x1, &y1);
    l1_ = l0_;
    for (int y = y0 + 40; y < std::min(y0 + 88, park_->height()); ++y) {
      for (int x = x0 + 40; x < std::min(x0 + 88, park_->width()); ++x) {
        if (!park_->mask().At(x, y)) continue;
        l1_[park_->DenseIdOf(Cell{x, y})] = kCoverageKm;
        rect_tiles_.insert(geo.TileOf(x, y));
      }
    }
    CheckOrDie(stack->service().Register("mega", std::move(snapshot)).ok(),
               "pawsbench: register failed");
  }

  void Connect(int connections, int port) override {
    clients_ = ConnectClients(connections, port);
  }

  bool Warmup(int c) override {
    OpStream warm(Workload::kColdTiles, shape(), 0xC0FFEE, 100 + c);
    bool ok = true;
    for (int i = 0; i < 64; ++i) ok &= Execute(c, warm.Next(), nullptr, false).ok;
    return ok;
  }

  void BuildTruth() override {
    // The reference takes over the park; later calls read it from ref_.
    ModelSnapshot ref(LoadModel(model_bytes_), std::move(*park_), l0_,
                      TiledPlaneOptions{64, 1});
    park_.reset();
    truth_l0_.assign(interior_.size() * kEfforts, 0);
    for (size_t i = 0; i < interior_.size(); ++i) {
      for (int e = 0; e < kEfforts; ++e) {
        truth_l0_[i * kEfforts + e] =
            HashTile(ref.PredictRiskTile(interior_[i], Effort(e)));
      }
    }
    ref.UpdateLaggedEffort(l1_);
    for (int tile : rect_tiles_) {
      for (int e = 0; e < kEfforts; ++e) {
        truth_l1_[{tile, e}] = HashTile(ref.PredictRiskTile(tile, Effort(e)));
      }
    }
    ref.UpdateLaggedEffort(l0_);
    ref_ = std::make_unique<ModelSnapshot>(std::move(ref));
    probe_plane_ = std::make_unique<TiledFeaturePlane>(
        ref_->park(), l0_, TiledPlaneOptions{64, 1});
  }

  Outcome Execute(int c, const Op& op, const Trace* trace,
                  bool check) override {
    Outcome out;
    if (op.kind == OpKind::kUpdateCoverage) {
      return FlipCoverage("mega", l0_, l1_, &live_l1_, trace);
    }
    const int tile_id = interior_[op.item];
    const double effort = Effort(op.effort);
    const StatusOr<RiskTile> tile =
        Timed(trace, "client.read", &out.ns, [&] {
          return clients_[c]->RiskTile("mega", tile_id, effort);
        });
    out.ok = tile.ok() && (!check || Matches(op, *tile));
    if (tile.ok() && Probing(trace)) {
      const std::string served = stack_->last_payload();
      out.ok &= TimedDecode(trace, served, DecodeRiskTilePayload);
      out.ok &= Reconstruct(trace, served, [&]() -> StatusOr<std::string> {
        PAWS_ASSIGN_OR_RETURN(
            RiskTileRequest request,
            DecodeRiskTileRequest(
                EncodeRiskTileRequest({"mega", tile_id, effort})));
        PAWS_ASSIGN_OR_RETURN(
            std::shared_ptr<const RiskTile> result,
            stack_->service().RiskTile(request.park_id, request.tile_id,
                                       request.assumed_effort));
        return TimedEncode(trace, [&] { return EncodeRiskTilePayload(*result); });
      });
      // The probe plane keeps only its last tile; step off a repeat so
      // GetTile below is a pool miss.
      if (tile_id == last_probe_tile_) {
        probe_plane_->GetTile(ref_->park(),
                              interior_[(op.item + 1) % interior_.size()]);
      }
      last_probe_tile_ = tile_id;
      out.ok &= TileLayerProbes(*ref_, probe_plane_.get(), tile_id, effort, trace);
    }
    return out;
  }

  bool Probe(const Trace* trace) override {
    return PlanProbe(*ref_, trace);
  }

  void Describe() const override {
    const auto backend = stack_->service().ScoringBackendName("mega");
    const Park& park = ref_->park();
    std::printf(
        "pawsbench: cold_tiles: mega park %d cells (%dx%d), %zu interior "
        "tiles x %d efforts, tile pool budget %zu bytes, coverage writes "
        "flip %zu tiles; backend=%s\n",
        park.num_cells(), park.width(), park.height(), interior_.size(),
        kEfforts, kPoolBudgetBytes, rect_tiles_.size(),
        backend.ok() ? backend->c_str() : "?");
  }

 private:
  static double Effort(int index) { return 0.5 * (index + 1); }

  // L0 everywhere; tiles of the written rectangle may also be L1.
  bool Matches(const Op& op, const RiskTile& tile) const {
    const uint64_t h = HashTile(tile);
    if (h == truth_l0_[op.item * kEfforts + op.effort]) return true;
    const auto it = truth_l1_.find({interior_[op.item], op.effort});
    return it != truth_l1_.end() && it->second == h;
  }

  std::string model_bytes_;
  std::unique_ptr<Park> park_;  // until BuildTruth hands it to ref_
  std::vector<double> l0_, l1_;
  std::vector<int> interior_;
  std::set<int> rect_tiles_;
  std::vector<uint64_t> truth_l0_;
  std::map<std::pair<int, int>, uint64_t> truth_l1_;
  std::unique_ptr<ModelSnapshot> ref_;
  std::unique_ptr<TiledFeaturePlane> probe_plane_;
  int last_probe_tile_ = -1;
  std::vector<std::unique_ptr<ParkClient>> clients_;
  bool live_l1_ = false;  // stream 0 is the only writer
};

// -------------------------------------------------------- plan_patrol

class PlanPatrol : public Bench {
 public:
  static constexpr int kParks = 3;

  StreamShape shape() const override {
    return {kParks, static_cast<int>(menu_.size()), 1};
  }
  double tail_q() const override { return 0.90; }
  // One pass over the menu, each plan followed by its intake write.
  int replay_ops() const override { return 2 * static_cast<int>(menu_.size()); }
  int pass_reads() const override { return static_cast<int>(menu_.size()); }

  void BuildParks(ServingStack* stack) override {
    stack_ = stack;
    for (int slot = 0; slot < kParks; ++slot) {
      Artifact artifact = TrainPreset(slot);
      train_ms_.push_back(artifact.train_ms);
      artifacts_[slot] = std::move(artifact.bytes);
      ModelSnapshot snapshot = LoadSerial(artifacts_[slot]);
      const int posts = static_cast<int>(snapshot.park().patrol_posts().size());
      for (int post = 0; post < posts; ++post) {
        for (int config = 0; config < 2; ++config) {
          for (double beta : {0.0, 1.0}) {
            menu_.push_back({slot, post, config, beta});
          }
        }
      }
      CheckOrDie(stack->service().Register(ParkId(slot), std::move(snapshot)).ok(),
                 "pawsbench: register failed");
    }
    // The intake park takes coverage writes and is never planned, so a
    // write never waits behind a plan's reader lock. It is MFNP's layout
    // at 4x4 the size (~20k cells, the model of park-0): a write of
    // ~0.1 ms is less at the mercy of cache state than one of a few us.
    SynthParkConfig layout = MakeScenario(ParkPreset::kMfnp, 17).park;
    layout.width *= 4;
    layout.height *= 4;
    Park park = GenerateSyntheticPark(layout);
    ArchiveWriter model;
    LoadSerial(artifacts_[0]).model().Save(&model);
    intake_l0_.assign(park.num_cells(), 0.0);
    ModelSnapshot intake(LoadModel(model.Bytes()), std::move(park), intake_l0_);
    intake_l1_ = intake_l0_;
    for (size_t i = 0; i < intake_l1_.size(); i += 3) intake_l1_[i] += 1.0;
    CheckOrDie(stack->service().Register("intake", std::move(intake)).ok(),
               "pawsbench: register failed");
  }

  void Connect(int connections, int port) override {
    clients_ = ConnectClients(connections, port);
  }

  bool Warmup(int c) override {
    return Execute(c, {OpKind::kPlan, 0, c % static_cast<int>(menu_.size()), 0},
                   nullptr, false)
        .ok;
  }

  void BuildTruth() override {
    for (int slot = 0; slot < kParks; ++slot) {
      refs_[slot] = std::make_unique<ModelSnapshot>(LoadSerial(artifacts_[slot]));
    }
    for (const Item& item : menu_) {
      StatusOr<PatrolPlan> plan = refs_[item.park]->PlanForPost(
          item.post, Config(item.config), Robust(item.beta));
      CheckOrDie(plan.ok(), "pawsbench: reference plan failed");
      truth_.push_back(std::move(plan).value());
    }
  }

  Outcome Execute(int c, const Op& op, const Trace* trace,
                  bool check) override {
    Outcome out;
    if (op.kind == OpKind::kUpdateCoverage) {
      return FlipCoverage("intake", intake_l0_, intake_l1_, &live_l1_, trace);
    }
    const Item& item = menu_[op.item];
    const StatusOr<PatrolPlan> plan =
        Timed(trace, "client.read", &out.ns, [&] {
          return clients_[c]->PlanForPost(ParkId(item.park), item.post,
                                          Config(item.config),
                                          Robust(item.beta));
        });
    out.ok = plan.ok() && (!check || SamePlan(*plan, truth_[op.item]));
    // Solver counts come from traced replays, which run one connection.
    if (plan.ok() && trace != nullptr) solver_.Add(*plan);
    if (plan.ok() && Probing(trace)) {
      const std::string served = stack_->last_payload();
      out.ok &= TimedDecode(trace, served, DecodePatrolPlanPayload);
      out.ok &= TimedEncode(trace, [&] {
                  return EncodePatrolPlanPayload(*plan);
                }) == served;
      // graph -> curves -> tables -> solve from outside, against the
      // served plan.
      SpanScope span(trace, "plan.reconstruct");
      const StatusOr<PatrolPlan> rebuilt =
          PlanStages(*refs_[item.park], item.post, Config(item.config),
                     Robust(item.beta), trace);
      out.ok &= rebuilt.ok() && SamePlan(*rebuilt, *plan);
    }
    return out;
  }

  bool Probe(const Trace* trace) override {
    // Tile layers on the preset parks: flat here by design.
    bool ok = true;
    for (int slot = 0; slot < kParks; ++slot) {
      const ModelSnapshot& ref = *refs_[slot];
      TiledFeaturePlane plane(ref.park(), ref.lagged_effort(),
                              TiledPlaneOptions{64, 1});
      ok &= TileLayerProbes(ref, &plane, 0, 1.0, trace);
    }
    return ok;
  }

  void Describe() const override {
    std::printf(
        "pawsbench: plan_patrol: %d preset parks, %zu plan menu items "
        "(posts x {2,4} patrols of 4 km x beta {0,1}), intake park coverage "
        "writes\n",
        kParks, menu_.size());
    for (int slot = 0; slot < kParks; ++slot) {
      const auto backend = stack_->service().ScoringBackendName(ParkId(slot));
      std::printf("pawsbench: park %s backend=%s\n", ParkId(slot).c_str(),
                  backend.ok() ? backend->c_str() : "?");
    }
  }

 private:
  struct Item {
    int park = 0;
    int post = 0;
    int config = 0;
    double beta = 0.0;
  };

  static PlannerConfig Config(int index) {
    PlannerConfig config = ProbePlannerConfig();
    config.num_patrols = index == 0 ? 2 : 4;
    return config;
  }
  static RobustParams Robust(double beta) {
    RobustParams robust;
    robust.beta = beta;
    return robust;
  }

  std::string artifacts_[kParks];
  std::unique_ptr<ModelSnapshot> refs_[kParks];
  std::vector<Item> menu_;
  std::vector<PatrolPlan> truth_;
  std::vector<double> intake_l0_, intake_l1_;
  bool live_l1_ = false;  // stream 0 is the only writer
  std::vector<std::unique_ptr<ParkClient>> clients_;
};

std::unique_ptr<Bench> MakeBench(Workload workload) {
  switch (workload) {
    case Workload::kHotMaps:
      return std::make_unique<HotMaps>();
    case Workload::kColdTiles:
      return std::make_unique<ColdTiles>();
    case Workload::kPlanPatrol:
      return std::make_unique<PlanPatrol>();
  }
  return nullptr;
}

// ------------------------------------------------------------ run modes

// One complete serving set-up: parks, server, clients, warm-up. The
// bench (clients) is declared last, so it is destroyed before the server.
struct Setup {
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<Bench> bench;
  bool warm_ok = true;
};

// Closes the clients, then the server, before the next set-up is timed.
void TearDown(Setup* s) {
  s->bench.reset();
  s->stack.reset();
}

Setup DoSetup(Workload workload, int connections, SpanRecorder* rec) {
  Setup s;
  std::unique_ptr<Bench> bench = MakeBench(workload);
  s.stack = std::make_unique<ServingStack>(PinnedServiceOptions());
  bench->BuildParks(s.stack.get());
  CheckOrDie(s.stack->Start(rec).ok(), "pawsbench: server start failed");
  bench->Connect(connections, s.stack->port());
  for (int c = 0; c < connections; ++c) s.warm_ok &= bench->Warmup(c);
  s.bench = std::move(bench);
  return s;
}

void PrintHostRecord(const RunOptions& o, int connections) {
  std::printf(
      "pawsbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "simd=%s\n",
      WorkloadName(o.workload), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      SimdTierName(ActiveSimdTier()));
  std::printf(
      "pawsbench: threads: connections=%d server_workers=%d "
      "model=serial(PAWS_NUM_THREADS=%s) train=%d; setups per run=%d; "
      "LRU capacities risk=%d curve=%d tile=%d\n",
      connections, kServerWorkers,
      std::getenv("PAWS_NUM_THREADS") ? std::getenv("PAWS_NUM_THREADS") : "?",
      kTrainThreads, o.trace ? 2 : kSetupRepeats, kRiskCacheCapacity,
      kCurveCacheCapacity, kTileCacheCapacity);
}

void Add(RunReport* report, const std::string& name, double value,
         const std::string& unit) {
  if (!std::isfinite(value)) {
    std::printf("pawsbench: metric %s is not finite\n", name.c_str());
    report->correct = false;
    value = 0.0;
  }
  report->metrics.push_back({name, value, unit});
}

RunReport TimedRun(const RunOptions& o) {
  RunReport report;
  PrintHostRecord(o, kConnections);
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    TearDown(&s);
    const int64_t t0 = i == 0 ? o.process_start_ns : NowNs();
    s = DoSetup(o.workload, kConnections, nullptr);
    setup_s.push_back((NowNs() - t0) * 1e-9);
    if (!s.warm_ok) {
      std::printf("pawsbench: warm-up operation failed\n");
      report.correct = false;
    }
  }
  Bench& bench = *s.bench;
  bench.BuildTruth();
  bench.Describe();

  struct Read {
    int64_t end_ns = 0;
    double ms = 0.0;
  };
  struct ConnResult {
    std::vector<Read> reads;
    std::vector<double> write_ms;
    uint64_t attempted = 0, failed = 0;
  };
  std::vector<ConnResult> results(kConnections);
  std::atomic<bool> stop{false};
  const StreamShape shape = bench.shape();
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      OpStream stream(o.workload, shape, o.seed, c);
      ConnResult& r = results[c];
      while (!stop.load(std::memory_order_relaxed)) {
        const Op op = stream.Next();
        const Outcome out = bench.Execute(c, op, nullptr, /*check=*/true);
        ++r.attempted;
        if (!out.ok) {
          ++r.failed;
        } else if (IsWrite(op.kind)) {
          r.write_ms.push_back(out.ns * 1e-6);
        } else {
          r.reads.push_back({NowNs(), out.ns * 1e-6});
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
  const int64_t stop_ns = NowNs();
  stop = true;
  for (std::thread& t : threads) t.join();

  std::vector<double> write_ms;
  size_t reads = 0;
  for (const ConnResult& r : results) {
    write_ms.insert(write_ms.end(), r.write_ms.begin(), r.write_ms.end());
    reads += r.reads.size();
    report.attempted += r.attempted;
    report.failed += r.failed;
  }
  if (report.failed > 0) report.correct = false;
  if (write_ms.empty()) {
    std::printf("pawsbench: no write completed\n");
    report.correct = false;
  }

  // Read metrics are medians over sub-windows, so a burst of outside load
  // moves one window, not the result. A menu workload (plan_patrol)
  // instead keeps only each connection's complete passes: every run then
  // holds the same multiset of plans, whose costs differ per post.
  const double q = bench.tail_q();
  std::vector<double> window_rps, window_p50, window_tail;
  size_t tail_samples = 0;
  bool tail_ok = true;
  auto add_window = [&](const std::vector<double>& ms, double rps) {
    const std::optional<double> tail = TailPercentile(ms, q);
    tail_ok &= tail.has_value();
    tail_samples = tail_samples == 0 ? ms.size() : std::min(tail_samples, ms.size());
    window_rps.push_back(rps);
    window_p50.push_back(Median(ms));
    window_tail.push_back(tail.value_or(0.0));
  };
  if (const int pass = bench.pass_reads(); pass > 0) {
    std::vector<double> ms;
    double rps = 0.0;
    for (const ConnResult& r : results) {
      const size_t kept = r.reads.size() / pass * pass;
      if (kept == 0) continue;
      for (size_t i = 0; i < kept; ++i) ms.push_back(r.reads[i].ms);
      rps += kept / ((r.reads[kept - 1].end_ns - start) * 1e-9);
    }
    add_window(ms, rps);
  } else {
    const int windows =
        std::max(1, static_cast<int>(std::lround(o.seconds / kWindowSeconds)));
    const double window_s = (stop_ns - start) * 1e-9 / windows;
    for (int w = 0; w < windows; ++w) {
      const int64_t lo = start + static_cast<int64_t>(w * window_s * 1e9);
      const int64_t hi = start + static_cast<int64_t>((w + 1) * window_s * 1e9);
      std::vector<double> ms;
      for (const ConnResult& r : results) {
        for (const Read& read : r.reads) {
          if (read.end_ns >= lo && read.end_ns < hi) ms.push_back(read.ms);
        }
      }
      add_window(ms, ms.size() / window_s);
    }
  }
  if (!tail_ok) {
    std::printf("pawsbench: p%.0f has fewer than %d samples beyond it\n",
                q * 100, kMinTailSamples);
    report.correct = false;
  }
  std::printf(
      "pawsbench: %llu attempted, %llu failed; %zu reads, %zu writes "
      "(%.3f%%); read metrics = median of %zu windows, tail_ms = p%.0f "
      "over >= %zu samples per window\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), reads, write_ms.size(),
      100.0 * write_ms.size() / std::max<size_t>(1, reads + write_ms.size()),
      window_rps.size(), q * 100, tail_samples);
  std::printf("pawsbench: setup_s samples:");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\npawsbench: window rps/p50_ms/tail_ms:");
  for (size_t w = 0; w < window_rps.size(); ++w) {
    std::printf(" %.0f/%.4f/%.4f", window_rps[w], window_p50[w], window_tail[w]);
  }
  std::printf("\n");

  Add(&report, "rps", Median(window_rps), "1/s");
  Add(&report, "p50_ms", Median(window_p50), "ms");
  Add(&report, "tail_ms", Median(window_tail), "ms");
  Add(&report, "write_p50_ms", Median(write_ms), "ms");
  Add(&report, "setup_s", Median(setup_s), "s");
  Add(&report, "peak_rss_mb", PeakRssMb(), "MiB");
  return report;
}

// --------------------------------------------------------- traced run

// Span list with self times, queried by span name.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans)
      : spans_(std::move(spans)), self_(SelfTimesNs(spans_)) {}

  enum class Field { kDuration, kSelf, kWork };

  // Values of spans named `name` (whose parent is named `parent`, if
  // given), in `field`, scaled by `scale`.
  std::vector<double> Values(const char* name, Field field, double scale,
                             const char* parent = nullptr) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::strcmp(s.name, name) != 0) continue;
      if (parent != nullptr &&
          (s.parent < 0 || std::strcmp(spans_[s.parent].name, parent) != 0)) {
        continue;
      }
      const double v = field == Field::kDuration ? s.end_ns - s.start_ns
                       : field == Field::kSelf   ? self_[i]
                                                 : s.work;
      out.push_back(v * scale);
    }
    return out;
  }

  double Sum(const char* name, Field field, const char* parent = nullptr) const {
    double total = 0.0;
    for (double v : Values(name, field, 1.0, parent)) total += v;
    return total;
  }

  // Duration of span `a` minus span `b` within the same request, paired.
  std::vector<double> PairedDiffs(const char* a, const char* b,
                                  double scale) const {
    std::map<uint64_t, double> first;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, a) == 0) first[s.request_id] = s.end_ns - s.start_ns;
    }
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, b) != 0) continue;
      const auto it = first.find(s.request_id);
      if (it != first.end()) {
        out.push_back((it->second - (s.end_ns - s.start_ns)) * scale);
      }
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> self_;
};

// Highest of p99/p90/p75 with enough samples beyond it.
double SupportedTail(const std::vector<double>& v) {
  for (double q : {0.99, 0.90, 0.75}) {
    if (const auto t = TailPercentile(v, q)) return *t;
  }
  return 0.0;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

using Counts = std::vector<std::pair<std::string, uint64_t>>;

struct Replay {
  uint64_t attempted = 0, failed = 0;
  int64_t call_ns = 0;  // summed client-call time
  int max_threads = 0;
  // Cache counters moved by served reads (traced replays only). Taken per
  // operation: a rollout's SwapSnapshot zeroes its park's counters, so
  // whole-run deltas would wrap. The bench's own reconstruction calls are
  // subtracted.
  CacheTotals served;
};

Replay RunReplay(Bench* bench, ServingStack* stack, SpanRecorder* rec,
                 Workload workload, uint64_t seed, int stream_id, int ops,
                 bool traced, bool probes) {
  Replay r;
  OpStream stream(workload, bench->shape(), seed, stream_id);
  stack->set_recording(traced);
  for (int k = 0; k < ops; ++k) {
    const Op op = stream.Next();
    Trace trace{rec, static_cast<uint64_t>(k + 1), -1, probes};
    if (traced) {
      trace.root = rec->Begin("op", -1, trace.request);
      rec->set_current(trace.root, trace.request);
    }
    const CacheTotals before = probes ? Totals(stack->service()) : CacheTotals{};
    const CacheTotals excluded_before = bench->excluded();
    const Outcome out = bench->Execute(0, op, traced ? &trace : nullptr, true);
    if (traced) rec->End(trace.root);
    if (probes && !IsWrite(op.kind)) {
      CacheTotals delta = Totals(stack->service()).Since(before);
      delta -= bench->excluded().Since(excluded_before);
      r.served += delta;
    }
    ++r.attempted;
    if (!out.ok) ++r.failed;
    r.call_ns += out.ns;
    if (k % 64 == 0) r.max_threads = std::max(r.max_threads, ThreadCount());
  }
  stack->set_recording(false);
  return r;
}

RunReport TracedRun(const RunOptions& o) {
  RunReport report;
  PrintHostRecord(o, 1);
  // Two identical traced replays on fresh set-ups: the program's counts
  // must repeat exactly. The second one's spans give the layer metrics.
  SpanRecorder recorders[2];
  Counts counts[2];
  std::vector<double> train_ms;
  Setup s;
  CacheTotals served;
  FrameServer::Stats net;
  FleetRouter::Stats router;
  int max_threads = 0;
  for (int rep = 0; rep < 2; ++rep) {
    TearDown(&s);
    s = DoSetup(o.workload, 1, &recorders[rep]);
    Bench& bench = *s.bench;
    train_ms.insert(train_ms.end(), bench.train_ms().begin(),
                    bench.train_ms().end());
    bench.BuildTruth();
    if (rep == 0) bench.Describe();
    const Replay replay =
        RunReplay(&bench, s.stack.get(), &recorders[rep], o.workload, o.seed, 0,
                  bench.replay_ops(), /*traced=*/true, /*probes=*/true);
    s.stack->set_recording(true);
    Trace probe{&recorders[rep], 0, recorders[rep].Begin("probe", -1, 0), true};
    const bool probe_ok = bench.Probe(&probe);
    recorders[rep].End(probe.root);
    s.stack->set_recording(false);
    served = replay.served;
    served.pool_resident_bytes = Totals(s.stack->service()).pool_resident_bytes;
    net = s.stack->net_stats();
    router = bench.router_stats();
    const SolverTotals& solver = bench.solver();
    counts[rep] = {
        {"attempted", replay.attempted},
        {"failed", replay.failed},
        {"risk_hits", served.risk_hits},
        {"risk_misses", served.risk_misses},
        {"curve_hits", served.curve_hits},
        {"curve_misses", served.curve_misses},
        {"tile_hits", served.tile_hits},
        {"tile_misses", served.tile_misses},
        {"pool_hits", served.pool_hits},
        {"pool_misses", served.pool_misses},
        {"pool_evictions", served.pool_evictions},
        {"frames_in", net.frames_in},
        {"frames_out", net.frames_out},
        {"accepted_connections", net.accepted_connections},
        {"protocol_errors", net.protocol_errors},
        {"deadline_expired", net.deadline_expired},
        {"router_requests", router.requests},
        {"router_failovers", router.failovers},
        {"router_transport_errors", router.transport_errors},
        {"solver_plans", solver.plans},
        {"solver_optimal", solver.optimal},
        {"solver_nodes", solver.nodes},
        {"solver_simplex_iters", solver.simplex_iters},
    };
    report.attempted += replay.attempted;
    report.failed += replay.failed;
    max_threads = std::max(max_threads, replay.max_threads);
    if (!s.warm_ok || !probe_ok) {
      std::printf("pawsbench: warm-up or layer probe failed\n");
      report.correct = false;
    }
  }
  if (report.failed > 0) report.correct = false;
  for (size_t i = 0; i < counts[0].size(); ++i) {
    if (counts[0][i].second != counts[1][i].second) {
      std::printf("pawsbench: count %s differs between replays: %llu vs %llu\n",
                  counts[0][i].first.c_str(),
                  static_cast<unsigned long long>(counts[0][i].second),
                  static_cast<unsigned long long>(counts[1][i].second));
      report.correct = false;
    }
  }
  std::printf("pawsbench: exact counts (identical across both replays):");
  for (const auto& [name, value] : counts[1]) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::printf("\n");

  const SpanIndex index(recorders[1].spans());
  if (!o.trace_path.empty() && !WriteSpans(index.spans(), o.trace_path)) {
    std::printf("pawsbench: could not write %s\n", o.trace_path.c_str());
  }

  // Tracing overhead on the warm second set-up: one seeded list with spans
  // off, then on (client-call spans only, no layer probes).
  Bench& bench = *s.bench;
  const double cpu0 = CpuMs();
  const Replay plain =
      RunReplay(&bench, s.stack.get(), &recorders[1], o.workload, o.seed + 1, 1,
                bench.replay_ops(), /*traced=*/false, /*probes=*/false);
  const double cpu_ms_per_op = (CpuMs() - cpu0) / std::max<uint64_t>(1, plain.attempted);
  const Replay spanned =
      RunReplay(&bench, s.stack.get(), &recorders[1], o.workload, o.seed + 1, 1,
                bench.replay_ops(), /*traced=*/true, /*probes=*/false);
  report.attempted += plain.attempted + spanned.attempted;
  report.failed += plain.failed + spanned.failed;
  if (plain.failed + spanned.failed > 0) report.correct = false;
  max_threads = std::max({max_threads, plain.max_threads, spanned.max_threads});

  using F = SpanIndex::Field;
  const double us = 1e-3, ms = 1e-6;
  const double read_ns = index.Sum("client.read", F::kDuration);
  const double handled_ns = index.Sum("serve.handle", F::kDuration, "client.read");
  const std::vector<double> resp = index.Values("serve.handle", F::kWork, 1.0, "client.read");
  double resp_mean = 0.0;
  for (double v : resp) resp_mean += v / resp.size();
  auto per_cell = [&](const char* name) {
    const double cells = index.Sum(name, F::kWork);
    return cells > 0 ? index.Sum(name, F::kDuration) / cells : 0.0;
  };
  const SolverTotals& solver = bench.solver();
  const FleetRouter::Stats& rs = router;

  Add(&report, "net.outside_handler_us",
      Median(index.Values("client.read", F::kSelf, us)), "us");
  Add(&report, "net.encode_us", Median(index.Values("net.encode", F::kDuration, us)), "us");
  Add(&report, "net.decode_us", Median(index.Values("net.decode", F::kDuration, us)), "us");
  Add(&report, "net.resp_bytes", resp_mean, "bytes");
  Add(&report, "net.protocol_errors", net.protocol_errors, "count");
  Add(&report, "net.deadline_expired", net.deadline_expired, "count");
  Add(&report, "serve.handle_us",
      Median(index.Values("serve.handle", F::kSelf, us, "client.read")), "us");
  Add(&report, "serve.risk_hit_ratio", Ratio(served.risk_hits, served.risk_hits + served.risk_misses), "ratio");
  Add(&report, "serve.risk_lookups", served.risk_hits + served.risk_misses, "count");
  Add(&report, "serve.tile_hit_ratio", Ratio(served.tile_hits, served.tile_hits + served.tile_misses), "ratio");
  Add(&report, "serve.tile_lookups", served.tile_hits + served.tile_misses, "count");
  Add(&report, "serve.curve_hit_ratio", Ratio(served.curve_hits, served.curve_hits + served.curve_misses), "ratio");
  Add(&report, "serve.curve_lookups", served.curve_hits + served.curve_misses, "count");
  Add(&report, "serve.update_coverage_us",
      Median(index.Values("serve.update_coverage", F::kDuration, us)), "us");
  Add(&report, "fleet.router_overhead_us",
      Median(index.PairedDiffs("fleet.router_call", "fleet.paired_client", us)), "us");
  Add(&report, "fleet.rollout_ms", Median(index.Values("fleet.rollout", F::kDuration, ms)), "ms");
  Add(&report, "fleet.verify_ms", Median(index.Values("fleet.verify", F::kDuration, ms)), "ms");
  Add(&report, "fleet.failovers", rs.failovers, "count");
  Add(&report, "fleet.transport_errors", rs.transport_errors, "count");
  Add(&report, "core.snapshot_load_ms",
      Median(index.Values("core.snapshot_load", F::kDuration, ms)), "ms");
  Add(&report, "core.tile_ns_per_cell", per_cell("core.tile"), "ns/cell");
  Add(&report, "core.curves_us", Median(index.Values("core.curves", F::kDuration, us)), "us");
  Add(&report, "geo.materialize_us",
      Median(index.Values("geo.materialize", F::kDuration, us)), "us");
  Add(&report, "geo.pool_hit_ratio", Ratio(served.pool_hits, served.pool_hits + served.pool_misses), "ratio");
  Add(&report, "geo.pool_lookups", served.pool_hits + served.pool_misses, "count");
  Add(&report, "geo.pool_evictions", served.pool_evictions, "count");
  Add(&report, "geo.pool_resident_mb", served.pool_resident_bytes / 1048576.0, "MiB");
  Add(&report, "ml.score_ns_per_cell", per_cell("ml.score"), "ns/cell");
  Add(&report, "plan.graph_us", Median(index.Values("plan.graph", F::kDuration, us)), "us");
  Add(&report, "plan.tables_us", Median(index.Values("plan.tables", F::kDuration, us)), "us");
  Add(&report, "plan.solve_ms", Median(index.Values("plan.solve", F::kDuration, ms)), "ms");
  Add(&report, "plan.solve_tail_ms",
      SupportedTail(index.Values("plan.solve", F::kDuration, ms)), "ms");
  Add(&report, "solver.nodes", solver.nodes, "count");
  Add(&report, "solver.simplex_iters", solver.simplex_iters, "count");
  Add(&report, "solver.optimal_ratio", Ratio(solver.optimal, solver.plans), "ratio");
  Add(&report, "sim.train_ms", Median(train_ms), "ms");
  Add(&report, "proc.cpu_ms_per_op", cpu_ms_per_op, "ms");
  Add(&report, "proc.max_threads", max_threads, "count");
  Add(&report, "trace.coverage", read_ns > 0 ? handled_ns / read_ns : 0.0, "ratio");
  Add(&report, "trace.overhead",
      plain.call_ns > 0 ? static_cast<double>(spanned.call_ns) / plain.call_ns - 1.0 : 0.0,
      "ratio");
  return report;
}

}  // namespace

RunReport RunBenchmark(const RunOptions& options) {
  return options.trace ? TracedRun(options) : TimedRun(options);
}

}  // namespace pawsbench
