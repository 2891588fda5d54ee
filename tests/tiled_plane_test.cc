// TiledFeaturePlane: the pooled, tile-at-a-time counterpart of
// FeaturePlane. The load-bearing contracts under test: tiles partition
// the dense cells exactly once; every materialized row is byte-identical
// to the eager plane's row for the same cell and coverage layer
// (including ragged edge tiles and masked-out cells); coverage updates
// invalidate ONLY the tiles whose cells changed (version + residency);
// and the LRU pool respects its byte budget while never going empty.
#include "geo/tiled_feature_plane.h"

#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "core/risk_map.h"
#include "geo/feature_plane.h"

namespace paws {
namespace {

// A park whose 26x22 grid splits into 4x3 tiles of size 8 — interior
// tiles, ragged right/bottom edges (26 = 3*8 + 2, 22 = 2*8 + 6), and
// boundary tiles that are mostly masked out.
class TiledPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    data_ = new ScenarioData(SimulateScenario(scenario, 5));
  }
  static void TearDownTestSuite() { delete data_; }
  static ScenarioData* data_;

  static TiledPlaneOptions SmallTiles() {
    TiledPlaneOptions options;
    options.tile_size = 8;
    return options;
  }
  int LastStep() const { return data_->num_steps() - 1; }
  std::vector<double> LaggedAt(int t) const {
    return data_->history.steps[t - 1].effort;
  }
};

ScenarioData* TiledPlaneTest::data_ = nullptr;

TEST_F(TiledPlaneTest, GeometryCoversTheGridWithRaggedEdges) {
  const TileGeometry g = TileGeometry::For(26, 22, 8);
  EXPECT_EQ(g.tiles_x, 4);
  EXPECT_EQ(g.tiles_y, 3);
  EXPECT_EQ(g.num_tiles(), 12);
  // Every grid cell maps into exactly the tile whose rectangle holds it.
  for (int y = 0; y < 22; ++y) {
    for (int x = 0; x < 26; ++x) {
      const int t = g.TileOf(x, y);
      int x0, y0, x1, y1;
      g.TileRect(t, 26, 22, &x0, &y0, &x1, &y1);
      EXPECT_TRUE(x >= x0 && x < x1 && y >= y0 && y < y1);
    }
  }
  // The last column/row of tiles is clipped to the grid.
  int x0, y0, x1, y1;
  g.TileRect(g.num_tiles() - 1, 26, 22, &x0, &y0, &x1, &y1);
  EXPECT_EQ(x1, 26);
  EXPECT_EQ(y1, 22);
  EXPECT_EQ(x1 - x0, 2);
  EXPECT_EQ(y1 - y0, 6);
}

TEST_F(TiledPlaneTest, TilesPartitionTheDenseCellsExactlyOnce) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  std::set<int> seen;
  std::vector<int> ids;
  for (int t = 0; t < plane.num_tiles(); ++t) {
    plane.TileCellIds(data_->park, t, &ids);
    for (int id : ids) {
      EXPECT_TRUE(seen.insert(id).second) << "cell " << id << " in two tiles";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), data_->park.num_cells());
}

TEST_F(TiledPlaneTest, TileRowsBitIdenticalToEagerPlaneIncludingRaggedTiles) {
  const int t = LastStep();
  const FeaturePlane eager(data_->park, LaggedAt(t));
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  ASSERT_EQ(plane.row_width(), eager.row_width());
  const int w = plane.row_width();
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    const auto tile = plane.GetTile(data_->park, tile_id);
    ASSERT_NE(tile, nullptr);
    for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
      const int id = tile->cell_ids[i];
      for (int f = 0; f < w; ++f) {
        // Bit-for-bit, not approximately: tiling must not change rows.
        EXPECT_EQ(tile->rows[i * w + f], eager.rows()[id * w + f])
            << "tile " << tile_id << " cell " << id << " col " << f;
      }
    }
  }
}

TEST_F(TiledPlaneTest, BuildAllRowsMatchesEagerPlaneAndHistoryAssembly) {
  const int t = LastStep();
  const FeaturePlane eager(data_->park, LaggedAt(t));
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  EXPECT_EQ(plane.BuildAllRows(data_->park), eager.rows());
  EXPECT_EQ(plane.BuildAllRows(data_->park),
            BuildCellFeatureRows(data_->park, data_->history, t));
}

TEST_F(TiledPlaneTest, GatherCellsMatchesEagerGather) {
  const int t = LastStep();
  const FeaturePlane eager(data_->park, LaggedAt(t));
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  const std::vector<int> cells = {0, 7, 3, data_->park.num_cells() - 1};
  std::vector<double> buf_eager, buf_tiled;
  eager.GatherCells(cells, &buf_eager);
  plane.GatherCells(data_->park, cells, &buf_tiled);
  EXPECT_EQ(buf_tiled, buf_eager);
}

TEST_F(TiledPlaneTest, EmptyLaggedVectorMeansZeroCoverage) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  const int w = plane.row_width();
  const auto tile = plane.GetTile(data_->park, 0);
  for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
    EXPECT_EQ(tile->rows[i * w + w - 1], 0.0);
  }
}

TEST_F(TiledPlaneTest, UpdateInvalidatesOnlyTheTouchedTile) {
  const int t = LastStep();
  TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  // Materialize everything so residency changes are observable.
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.GetTile(data_->park, tile_id);
  }
  EXPECT_EQ(plane.pool_stats().resident_tiles,
            static_cast<uint64_t>(plane.num_tiles()));
  EXPECT_EQ(plane.coverage_version(), 0u);

  // Change one cell's coverage; find its tile.
  std::vector<double> lag = LaggedAt(t);
  const int changed_cell = data_->park.num_cells() / 2;
  lag[changed_cell] += 1.0;
  const int grid_index = data_->park.cell_indices()[changed_cell];
  const int dirty_tile = plane.geometry().TileOf(
      grid_index % data_->park.width(), grid_index / data_->park.width());

  plane.UpdateLaggedEffort(data_->park, lag);
  EXPECT_EQ(plane.coverage_version(), 1u);
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    EXPECT_EQ(plane.tile_coverage_version(tile_id),
              tile_id == dirty_tile ? 1u : 0u);
  }
  // Only the dirty tile lost residency...
  EXPECT_EQ(plane.pool_stats().resident_tiles,
            static_cast<uint64_t>(plane.num_tiles() - 1));
  // ...and re-materializing it picks up the new coverage, bit-identical
  // to an eager plane built from the new layer.
  const FeaturePlane eager(data_->park, lag);
  const auto tile = plane.GetTile(data_->park, dirty_tile);
  const int w = plane.row_width();
  for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
    const int id = tile->cell_ids[i];
    for (int f = 0; f < w; ++f) {
      EXPECT_EQ(tile->rows[i * w + f], eager.rows()[id * w + f]);
    }
  }
}

TEST_F(TiledPlaneTest, UpdateSpanningManyTilesInvalidatesAllOfThem) {
  TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.GetTile(data_->park, tile_id);
  }
  // Every cell changes -> every tile with at least one in-park cell is
  // dirty; fully masked-out tiles have nothing to change and stay clean.
  std::vector<double> lag(data_->park.num_cells(), 0.25);
  plane.UpdateLaggedEffort(data_->park, lag);
  std::vector<int> ids;
  uint64_t empty_tiles = 0;
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.TileCellIds(data_->park, tile_id, &ids);
    if (ids.empty()) {
      ++empty_tiles;
      EXPECT_EQ(plane.tile_coverage_version(tile_id), 0u);
    } else {
      EXPECT_EQ(plane.tile_coverage_version(tile_id), 1u);
    }
  }
  // Only (cheap, zero-row) empty tiles may remain resident.
  EXPECT_EQ(plane.pool_stats().resident_tiles, empty_tiles);
}

TEST_F(TiledPlaneTest, IdenticalUpdateIsANoOpForTileVersions) {
  const int t = LastStep();
  TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  plane.GetTile(data_->park, 0);
  plane.UpdateLaggedEffort(data_->park, LaggedAt(t));
  // The global version moves (an update happened) but no tile changed, so
  // per-tile keys — and residency — survive.
  EXPECT_EQ(plane.coverage_version(), 1u);
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    EXPECT_EQ(plane.tile_coverage_version(tile_id), 0u);
  }
  EXPECT_EQ(plane.pool_stats().resident_tiles, 1u);
}

TEST_F(TiledPlaneTest, UpdateFindsChangesAtEveryPositionAndSignOfZero) {
  // Changes at the first and last cell and around multiples of 512 (the
  // diff compares blocks before cells), plus a 0.0 -> -0.0 flip, which is
  // a row change by bit pattern: exactly their tiles turn dirty.
  const int n = data_->park.num_cells();
  std::vector<double> lag(n, 0.0);
  TiledFeaturePlane plane(data_->park, lag, SmallTiles());
  std::set<int> changed = {0, n - 1, n / 3};
  for (int edge = 512; edge <= n; edge += 512) {
    changed.insert(edge - 1);
    if (edge < n) changed.insert(edge);
  }
  std::set<int> want;
  for (int id : changed) {
    lag[id] = id == n / 3 ? -0.0 : 1.5;
    const int grid_index = data_->park.cell_indices()[id];
    want.insert(plane.geometry().TileOf(grid_index % data_->park.width(),
                                        grid_index / data_->park.width()));
  }
  plane.UpdateLaggedEffort(data_->park, lag);
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    EXPECT_EQ(plane.tile_coverage_version(tile_id),
              want.count(tile_id) ? 1u : 0u)
        << "tile " << tile_id;
  }
}

TEST_F(TiledPlaneTest, PoolRespectsByteBudgetAndCountsTraffic) {
  TiledPlaneOptions options = SmallTiles();
  const TiledFeaturePlane unbounded(data_->park, {}, options);
  const size_t one_tile_bytes = unbounded.GetTile(data_->park, 0)->bytes();
  // Budget for about two tiles.
  options.pool_budget_bytes = 2 * one_tile_bytes + one_tile_bytes / 2;
  const TiledFeaturePlane plane(data_->park, {}, options);
  for (int round = 0; round < 2; ++round) {
    for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
      plane.GetTile(data_->park, tile_id);
    }
  }
  const TilePoolStats stats = plane.pool_stats();
  EXPECT_GE(stats.resident_tiles, 1u);
  EXPECT_LE(stats.resident_bytes, options.pool_budget_bytes);
  EXPECT_GT(stats.evictions, 0u);
  // Both sweeps missed everywhere: the working set exceeds the budget and
  // the sweep order is exactly the LRU eviction order.
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(2 * plane.num_tiles()));
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(TiledPlaneTest, BudgetSmallerThanOneTileStillServes) {
  TiledPlaneOptions options = SmallTiles();
  options.pool_budget_bytes = 1;  // degrade to materialize-per-request
  const TiledFeaturePlane plane(data_->park, {}, options);
  const FeaturePlane eager(data_->park, {});
  EXPECT_EQ(plane.BuildAllRows(data_->park), eager.rows());
  EXPECT_EQ(plane.pool_stats().resident_tiles, 1u);
}

TEST_F(TiledPlaneTest, RepeatedGetsHitThePool) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  const auto first = plane.GetTile(data_->park, 3);
  const auto second = plane.GetTile(data_->park, 3);
  EXPECT_EQ(first.get(), second.get());  // same resident object
  const TilePoolStats stats = plane.pool_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

}  // namespace
}  // namespace paws
