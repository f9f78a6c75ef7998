// Vectorized hot path: selection-vector semantics on RecordBatch, the
// FilterExec zero-copy contract, the per-epoch Arena, pipeline fusion
// structure + per-stage accounting, and the prefix-consistency battery
// asserting that the fused, selection-aware streaming pipelines leave the
// sink holding the batch result over every input prefix (paper §4.2,
// docs/VECTORIZED_EXEC.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "connectors/memory.h"
#include "exec/batch_executor.h"
#include "exec/streaming_query.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"
#include "runtime/scheduler.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr EventSchema() {
  return Schema::Make({{"k", TypeId::kInt64, false},
                       {"s", TypeId::kString, true},
                       {"v", TypeId::kFloat64, true}});
}

RecordBatchPtr RandomBatch(int64_t n, uint64_t seed) {
  Random rng(seed);
  ColumnPtr k = Column::Make(TypeId::kInt64);
  ColumnPtr s = Column::Make(TypeId::kString);
  ColumnPtr v = Column::Make(TypeId::kFloat64);
  for (int64_t i = 0; i < n; ++i) {
    k->AppendInt64(static_cast<int64_t>(rng.Uniform(50)));
    if (rng.OneIn(0.1)) {
      s->AppendNull();
    } else {
      // std::string("s") rather than "s": gcc 12's -Wrestrict false-fires
      // on operator+(const char*, string&&) under -O2 (PR 105329).
      s->AppendString(std::string("s") + std::to_string(rng.Uniform(10)));
    }
    if (rng.OneIn(0.1)) {
      v->AppendNull();
    } else {
      v->AppendFloat64(rng.NextDouble());
    }
  }
  return RecordBatch::Make(EventSchema(), {k, s, v});
}

// ---------------------------------------------------------------------------
// Selection-vector semantics on RecordBatch.
// ---------------------------------------------------------------------------

TEST(SelectionVectorTest, ViewSelectsLogicalRowsWithoutCopying) {
  RecordBatchPtr base = RandomBatch(10, 1);
  RecordBatchPtr view =
      RecordBatch::MakeView(base, SelectionVector::FromVector({5, 0, 9, 3}));
  ASSERT_TRUE(view->has_selection());
  EXPECT_EQ(view->num_rows(), 4);
  EXPECT_EQ(view->physical_rows(), 10);
  // Columns are shared, not copied.
  for (int c = 0; c < base->num_columns(); ++c) {
    EXPECT_EQ(view->column(c).get(), base->column(c).get());
  }
  // Row-level accessors see the logical view, in selection order.
  const int32_t idx[] = {5, 0, 9, 3};
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(CompareRows(view->RowAt(i), base->RowAt(idx[i])), 0);
    EXPECT_EQ(view->PhysIndex(i), idx[i]);
  }
  EXPECT_EQ(view->ToRows().size(), 4u);
}

TEST(SelectionVectorTest, ViewOverViewComposesToPhysicalIndices) {
  RecordBatchPtr base = RandomBatch(10, 2);
  RecordBatchPtr v1 =
      RecordBatch::MakeView(base, SelectionVector::FromVector({5, 0, 9, 3}));
  // Logical rows {2, 0} of v1 are physical rows {9, 5} of base.
  RecordBatchPtr v2 =
      RecordBatch::MakeView(v1, SelectionVector::FromVector({2, 0}));
  ASSERT_EQ(v2->num_rows(), 2);
  EXPECT_EQ(v2->PhysIndex(0), 9);
  EXPECT_EQ(v2->PhysIndex(1), 5);
  EXPECT_EQ(CompareRows(v2->RowAt(0), base->RowAt(9)), 0);
  EXPECT_EQ(CompareRows(v2->RowAt(1), base->RowAt(5)), 0);
}

TEST(SelectionVectorTest, EmptySelectionIsLogicallyEmpty) {
  RecordBatchPtr base = RandomBatch(10, 3);
  RecordBatchPtr view = RecordBatch::MakeView(base, SelectionVector());
  ASSERT_TRUE(view->has_selection());
  EXPECT_EQ(view->num_rows(), 0);
  EXPECT_EQ(view->physical_rows(), 10);
  EXPECT_TRUE(view->ToRows().empty());
  RecordBatchPtr compact = RecordBatch::Materialize(view);
  EXPECT_FALSE(compact->has_selection());
  EXPECT_EQ(compact->num_rows(), 0);
}

TEST(SelectionVectorTest, MaterializeWithoutSelectionIsTheSameBatch) {
  RecordBatchPtr base = RandomBatch(10, 4);
  // The no-selection fast path must not copy: pointer identity.
  EXPECT_EQ(RecordBatch::Materialize(base).get(), base.get());
}

TEST(SelectionVectorTest, MaterializeCompactsAndPreservesIngest) {
  RecordBatchPtr base = RandomBatch(10, 5);
  base->set_ingest_micros(12345);
  RecordBatchPtr view =
      RecordBatch::MakeView(base, SelectionVector::FromVector({7, 1, 4}));
  EXPECT_EQ(view->ingest_micros(), 12345);
  RecordBatchPtr compact = RecordBatch::Materialize(view);
  ASSERT_FALSE(compact->has_selection());
  ASSERT_EQ(compact->num_rows(), 3);
  EXPECT_EQ(compact->physical_rows(), 3);
  EXPECT_EQ(compact->ingest_micros(), 12345);
  EXPECT_EQ(compact->ToRows(), view->ToRows());
}

TEST(SelectionVectorTest, RowShapeOperationsSeeTheLogicalView) {
  RecordBatchPtr base = RandomBatch(12, 6);
  RecordBatchPtr view = RecordBatch::MakeView(
      base, SelectionVector::FromVector({11, 2, 7, 0, 5}));

  // Filter over the logical rows.
  std::vector<uint8_t> mask = {1, 0, 1, 0, 1};
  RecordBatchPtr filtered = view->Filter(mask);
  ASSERT_EQ(filtered->num_rows(), 3);
  EXPECT_EQ(CompareRows(filtered->RowAt(0), base->RowAt(11)), 0);
  EXPECT_EQ(CompareRows(filtered->RowAt(1), base->RowAt(7)), 0);
  EXPECT_EQ(CompareRows(filtered->RowAt(2), base->RowAt(5)), 0);

  // Gather over the logical rows.
  RecordBatchPtr gathered = view->Gather({4, 4, 1});
  ASSERT_EQ(gathered->num_rows(), 3);
  EXPECT_EQ(CompareRows(gathered->RowAt(0), base->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(gathered->RowAt(1), base->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(gathered->RowAt(2), base->RowAt(2)), 0);

  // Slice over the logical rows.
  RecordBatchPtr sliced = view->Slice(1, 2);
  ASSERT_EQ(sliced->num_rows(), 2);
  EXPECT_EQ(CompareRows(sliced->RowAt(0), base->RowAt(2)), 0);
  EXPECT_EQ(CompareRows(sliced->RowAt(1), base->RowAt(7)), 0);

  // SelectColumns keeps the logical view.
  RecordBatchPtr cols = view->SelectColumns({0});
  ASSERT_EQ(cols->num_rows(), 5);
  EXPECT_EQ(cols->RowAt(0).size(), 1u);
  EXPECT_EQ(cols->RowAt(0)[0], base->RowAt(11)[0]);
}

TEST(SelectionVectorTest, ConcatOverViewsKeepsRowsAndOldestIngest) {
  RecordBatchPtr a = RandomBatch(6, 7);
  a->set_ingest_micros(200);
  RecordBatchPtr b = RandomBatch(6, 8);
  b->set_ingest_micros(50);
  RecordBatchPtr va =
      RecordBatch::MakeView(a, SelectionVector::FromVector({3, 1}));
  RecordBatchPtr vb =
      RecordBatch::MakeView(b, SelectionVector::FromVector({0, 5, 2}));
  RecordBatchPtr merged = RecordBatch::Concat(EventSchema(), {va, vb});
  ASSERT_EQ(merged->num_rows(), 5);
  EXPECT_EQ(CompareRows(merged->RowAt(0), a->RowAt(3)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(1), a->RowAt(1)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(2), b->RowAt(0)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(3), b->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(4), b->RowAt(2)), 0);
  // The sink-side latency stamp is the oldest contributor's.
  EXPECT_EQ(merged->ingest_micros(), 50);
}

// ---------------------------------------------------------------------------
// FilterExec's zero-copy contract.
// ---------------------------------------------------------------------------

/// Emits exactly the given batches, one per partition — gives the tests
/// pointer-level control over what an operator's child produces.
class FixedOp : public PhysOp {
 public:
  FixedOp(int op_id, SchemaPtr schema, std::vector<RecordBatchPtr> batches)
      : PhysOp(op_id, std::move(schema), {}), batches_(std::move(batches)) {}
  std::string name() const override { return "Fixed"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext*) override {
    return batches_;
  }

 private:
  std::vector<RecordBatchPtr> batches_;
};

struct ExecHarness {
  InlineScheduler scheduler;
  StateManager state{"", 0, ShardedStateStore::Options()};
  Arena arena;
  ExecContext ctx;

  ExecHarness() {
    ctx.epoch = 1;
    ctx.scheduler = &scheduler;
    ctx.state = &state;
    ctx.arena = &arena;
  }
};

ExprPtr ResolvedPred(ExprPtr raw) {
  return raw->Resolve(*EventSchema()).TakeValue();
}

TEST(FilterExecSelectionTest, FullSurvivalPassesTheInputBatchThrough) {
  RecordBatchPtr batch = RandomBatch(100, 10);
  auto source = std::make_shared<FixedOp>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch});
  auto filter = std::make_shared<FilterExec>(
      1, source, ResolvedPred(Ge(Col("k"), Lit(int64_t{0}))));
  ExecHarness h;
  auto out = filter->Execute(&h.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  // Every row survives: the fast path must hand back the very same batch,
  // no selection vector and no copy.
  EXPECT_EQ((*out)[0].get(), batch.get());
  EXPECT_FALSE((*out)[0]->has_selection());
}

TEST(FilterExecSelectionTest, PartialSurvivalEmitsAViewNotACopy) {
  RecordBatchPtr batch = RandomBatch(200, 11);
  auto source = std::make_shared<FixedOp>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch});
  ExprPtr pred = ResolvedPred(Lt(Col("k"), Lit(int64_t{25})));

  ExecHarness h;
  auto filter = std::make_shared<FilterExec>(1, source, pred);
  auto sel_out = filter->Execute(&h.ctx);
  ASSERT_TRUE(sel_out.ok()) << sel_out.status().ToString();

  ASSERT_EQ(sel_out->size(), 1u);
  const RecordBatchPtr& view = (*sel_out)[0];
  ASSERT_TRUE(view->has_selection());
  // Zero-copy: the view shares the input's column storage.
  EXPECT_EQ(view->column(0).get(), batch->column(0).get());
  EXPECT_LT(view->num_rows(), batch->num_rows());
  EXPECT_GT(view->num_rows(), 0);
  // Logical content: exactly the input rows the predicate keeps when
  // evaluated row at a time.
  std::vector<Row> expect;
  for (const Row& row : batch->ToRows()) {
    auto keep = pred->EvalRow(row);
    ASSERT_TRUE(keep.ok()) << keep.status().ToString();
    if (!keep->is_null() && keep->bool_value()) expect.push_back(row);
  }
  EXPECT_EQ(view->ToRows(), expect);
}

TEST(FilterExecSelectionTest, NoSurvivorsYieldsAnEmptyLogicalBatch) {
  RecordBatchPtr batch = RandomBatch(50, 12);
  auto source = std::make_shared<FixedOp>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch});
  auto filter = std::make_shared<FilterExec>(
      1, source, ResolvedPred(Lt(Col("k"), Lit(int64_t{-1}))));
  ExecHarness h;
  auto out = filter->Execute(&h.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0]->num_rows(), 0);
  EXPECT_TRUE(RecordBatch::Materialize((*out)[0])->ToRows().empty());
}

// ---------------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------------

TEST(ArenaTest, BumpAllocationsAreDistinctAlignedAndWritable) {
  Arena arena(1024);
  auto [a, ka] = arena.AllocSpan<int32_t>(10);
  auto [b, kb] = arena.AllocSpan<int64_t>(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(int32_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(int64_t), 0u);
  for (int i = 0; i < 10; ++i) a[i] = i;
  for (int i = 0; i < 10; ++i) b[i] = 100 + i;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], 100 + i);
  }
  EXPECT_GE(arena.bytes_allocated(),
            static_cast<int64_t>(10 * sizeof(int32_t) + 10 * sizeof(int64_t)));
}

TEST(ArenaTest, ResetRecyclesTheChunkWhenNoKeepaliveIsLive) {
  Arena arena(1 << 16);
  {
    auto [p, keep] = arena.AllocSpan<int32_t>(100);
    p[0] = 1;  // touch
  }  // keepalive dropped -> arena holds the only reference
  int64_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0);
  arena.Reset();
  // The newest chunk is kept for reuse; reservation does not grow across
  // epochs of identical demand.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  auto [q, keep2] = arena.AllocSpan<int32_t>(100);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, LiveKeepaliveSurvivesResetUncorrupted) {
  Arena arena(1 << 12);
  auto [old_ptr, old_keep] = arena.AllocSpan<int32_t>(64);
  for (int i = 0; i < 64; ++i) old_ptr[i] = 7000 + i;
  // A buffer (incorrectly) held across the epoch boundary: Reset() must not
  // hand its chunk to the next epoch while the keepalive is live.
  arena.Reset();
  auto [new_ptr, new_keep] = arena.AllocSpan<int32_t>(64);
  for (int i = 0; i < 64; ++i) new_ptr[i] = -1;
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(old_ptr[i], 7000 + i) << "stale buffer was recycled while live";
  }
}

// ---------------------------------------------------------------------------
// Pipeline fusion: rewrite structure, execution equivalence, accounting.
// ---------------------------------------------------------------------------

/// source(0) -> Filter(1) -> Project(2): the canonical fusable chain.
struct ChainPlan {
  std::shared_ptr<StaticSourceExec> source;
  std::shared_ptr<FilterExec> filter;
  std::shared_ptr<ProjectExec> project;
  PhysOpPtr root;
};

ChainPlan MakeChain(const RecordBatchPtr& batch) {
  ChainPlan p;
  p.source = std::make_shared<StaticSourceExec>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch}, 1);
  p.filter = std::make_shared<FilterExec>(
      1, p.source, ResolvedPred(Lt(Col("k"), Lit(int64_t{30}))));
  SchemaPtr out_schema = Schema::Make(
      {{"k2", TypeId::kInt64, false}, {"s", TypeId::kString, true}});
  std::vector<NamedExpr> exprs = {
      {ResolvedPred(Mul(Col("k"), Lit(int64_t{2}))), "k2"},
      {ResolvedPred(Col("s")), "s"}};
  p.project =
      std::make_shared<ProjectExec>(2, p.filter, out_schema, exprs);
  p.root = p.project;
  return p;
}

TEST(PipelineFusionTest, ChainsOfTwoOrMoreStatelessOpsFuse) {
  ChainPlan plan = MakeChain(RandomBatch(100, 20));
  int next_id = 3;
  PhysOpPtr fused_root = FusePipelines(plan.root, &next_id);
  auto* fused = dynamic_cast<FusedPipelineExec*>(fused_root.get());
  ASSERT_NE(fused, nullptr) << fused_root->TreeString();
  // Fresh op_id above the existing range; stages keep the originals
  // (bottom -> top), and the chain's child is spliced directly underneath.
  EXPECT_EQ(fused->op_id(), 3);
  EXPECT_EQ(next_id, 4);
  ASSERT_EQ(fused->stages().size(), 2u);
  EXPECT_EQ(fused->stages()[0].op_id, 1);
  EXPECT_EQ(fused->stages()[0].kind, FusedPipelineExec::Stage::Kind::kFilter);
  EXPECT_EQ(fused->stages()[1].op_id, 2);
  EXPECT_EQ(fused->stages()[1].kind, FusedPipelineExec::Stage::Kind::kProject);
  ASSERT_EQ(fused->children().size(), 1u);
  EXPECT_EQ(fused->children()[0].get(), plan.source.get());
  EXPECT_EQ(fused->schema()->ToString(), plan.project->schema()->ToString());
}

TEST(PipelineFusionTest, StandaloneStatelessOpsAreLeftAlone) {
  RecordBatchPtr batch = RandomBatch(10, 21);
  auto source = std::make_shared<StaticSourceExec>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch}, 1);
  auto filter = std::make_shared<FilterExec>(
      1, source, ResolvedPred(Lt(Col("k"), Lit(int64_t{30}))));
  int next_id = 2;
  PhysOpPtr rewritten = FusePipelines(filter, &next_id);
  // A chain of one is not worth a fused node.
  EXPECT_EQ(rewritten.get(), filter.get());
  EXPECT_EQ(next_id, 2);
}

TEST(PipelineFusionTest, FusedExecutionMatchesUnfusedByteForByte) {
  RecordBatchPtr batch = RandomBatch(500, 22);
  ChainPlan unfused = MakeChain(batch);
  ExecHarness h1;
  auto expect = unfused.root->Execute(&h1.ctx);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();

  ChainPlan plan = MakeChain(batch);
  int next_id = 3;
  PhysOpPtr fused = FusePipelines(plan.root, &next_id);
  ExecHarness h2;
  auto got = fused->Execute(&h2.ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_EQ(got->size(), expect->size());
  for (size_t p = 0; p < got->size(); ++p) {
    EXPECT_EQ(RecordBatch::Materialize((*got)[p])->ToRows(),
              RecordBatch::Materialize((*expect)[p])->ToRows());
  }

  // Per-stage accounting ties out: the original op_ids are credited with
  // the same row counts the standalone operators produced.
  for (int op_id : {1, 2}) {
    std::lock_guard<std::mutex> l1(h1.ctx.metrics_mu);
    std::lock_guard<std::mutex> l2(h2.ctx.metrics_mu);
    ASSERT_TRUE(h2.ctx.op_stats.count(op_id)) << "op " << op_id;
    EXPECT_EQ(h2.ctx.op_stats[op_id].rows_out, h1.ctx.op_stats[op_id].rows_out)
        << "op " << op_id;
  }
}

TEST(PipelineFusionTest, ProfileNodesChainStagesUnderOriginalIds) {
  ChainPlan plan = MakeChain(RandomBatch(10, 23));
  int next_id = 3;
  PhysOpPtr root = FusePipelines(plan.root, &next_id);
  std::vector<OpProfileNode> nodes;
  root->CollectProfileNodes(&nodes);
  // Fused node + one node per stage, wired fused <- Project <- Filter <-
  // source, reproducing the unfused profile topology.
  ASSERT_EQ(nodes.size(), 3u);
  std::map<int, const OpProfileNode*> by_id;
  for (const auto& n : nodes) by_id[n.op_id] = &n;
  ASSERT_TRUE(by_id.count(3) && by_id.count(2) && by_id.count(1));
  EXPECT_EQ(by_id[3]->child_ids, std::vector<int>{2});
  EXPECT_EQ(by_id[2]->child_ids, std::vector<int>{1});
  EXPECT_EQ(by_id[1]->child_ids, std::vector<int>{0});
  EXPECT_NE(by_id[3]->name.find("FusedPipeline"), std::string::npos);
  EXPECT_NE(by_id[1]->name.find("Filter"), std::string::npos);
  EXPECT_EQ(by_id[2]->name, "Project");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE tie-out through a live query.
// ---------------------------------------------------------------------------

SchemaPtr StreamSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

TEST(PipelineFusionTest, QueryProgressRowAccountingTiesOutUnderFusion) {
  auto stream = std::make_shared<MemoryStream>("s", StreamSchema(), 2);
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Lt(Col("v"), Lit(int64_t{40})))
                     .Select({NamedExpr{Col("k"), "k"},
                              NamedExpr{Add(Col("v"), Lit(int64_t{1})), "v1"}});
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    // std::string("k"): gcc 12 -Wrestrict false positive (PR 105329).
    rows.push_back({Value::Str(std::string("k") + std::to_string(i % 8)),
                    Value::Int64(i % 80), Value::Timestamp(i * kSec)});
  }
  ASSERT_TRUE(stream->AddData(rows).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  QueryProgress last;
  ASSERT_TRUE((*query)->GetLastProgress(&last));
  const OperatorProgress* fused = nullptr;
  const OperatorProgress* filter = nullptr;
  const OperatorProgress* project = nullptr;
  for (const OperatorProgress& op : last.operators) {
    if (op.name.rfind("FusedPipeline", 0) == 0) fused = &op;
    if (op.name.rfind("Filter", 0) == 0) filter = &op;
    if (op.name == "Project") project = &op;
  }
  // Fusion keeps the original operators visible in the profile, with row
  // totals identical to what the unfused plan would report.
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(filter->rows_in, 100);
  // The fused node's input is the scan below the chain, not its top stage.
  EXPECT_EQ(fused->rows_in, 100);
  // v = i % 80 over 100 rows: i in [0,40) and i in [80,100) pass v < 40.
  EXPECT_EQ(filter->rows_out, 60);
  EXPECT_EQ(project->rows_in, filter->rows_out);
  EXPECT_EQ(project->rows_out, project->rows_in);
  EXPECT_EQ(fused->rows_out, project->rows_out);
  EXPECT_EQ(sink->SortedSnapshot().size(), 60u);
  (*query)->Stop();
}

// ---------------------------------------------------------------------------
// Prefix-consistency battery (paper §4.2): over the three stateful
// pipelines, each behind a fusable stateless prefix, the sink table after
// every round must equal the batch result of the same query over the rows
// added so far.
// ---------------------------------------------------------------------------

/// MemorySink that also counts epochs re-committed with different rows
/// (recovery replay must re-deliver byte-identical epochs).
class EpochRecordingSink : public Sink {
 public:
  bool SupportsMode(OutputMode mode) const override {
    return inner_.SupportsMode(mode);
  }
  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override {
    SS_RETURN_IF_ERROR(
        inner_.CommitEpoch(epoch, mode, num_key_columns, batches));
    std::vector<Row> rows;
    for (const auto& b : batches) {
      auto brows = b->ToRows();
      rows.insert(rows.end(), brows.begin(), brows.end());
    }
    std::sort(rows.begin(), rows.end(), RowLess());
    auto it = epochs_.find(epoch);
    if (it != epochs_.end() && it->second != rows) ++redelivery_mismatches_;
    epochs_[epoch] = std::move(rows);
    return Status::OK();
  }
  std::vector<Row> SortedSnapshot() const { return inner_.SortedSnapshot(); }
  int64_t redelivery_mismatches() const { return redelivery_mismatches_; }

 private:
  MemorySink inner_;
  std::map<int64_t, std::vector<Row>> epochs_;
  int64_t redelivery_mismatches_ = 0;
};

enum class Pipeline { kWindowedAgg, kDedup, kJoin };

SchemaPtr LeftSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

SchemaPtr RightSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"rv", TypeId::kInt64, false},
                       {"rtime", TypeId::kTimestamp, false}});
}

/// Deterministic per-round workload. A row of round r has an event time in
/// [6r, 6r + 8) s.
std::vector<Row> MakeRound(Random* rng, int round, int rows) {
  static const char* kKeys[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                                "zeta", "eta", "theta"};
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    int64_t sec = round * 6 + static_cast<int64_t>(rng->Uniform(8));
    out.push_back({Value::Str(kKeys[rng->Uniform(8)]),
                   Value::Int64(static_cast<int64_t>(rng->Uniform(50))),
                   Value::Timestamp(sec * kSec)});
  }
  return out;
}

/// The query under test over `left` (and `right`, for the join), streaming
/// or static alike. Every pipeline carries a fusable stateless prefix
/// (Where + Watermark or Where + Select) so the fused selection path
/// engages before the stateful operator's materialization boundary.
///
/// The windowed aggregate drops no row as late: a round-r row's time is at
/// least 6r s while the watermark stays at or below 6r - 4 s, and windows
/// are 10 s. The join has no watermarks, so it evicts no state and its
/// output is exactly the batch join (eviction is covered by
/// ShardedDifferentialTest).
DataFrame BuildQuery(Pipeline pipeline, const DataFrame& left,
                     const DataFrame& right) {
  DataFrame df = left.Where(Lt(Col("v"), Lit(int64_t{40})));
  switch (pipeline) {
    case Pipeline::kWindowedAgg:
      // String group key -> exercises the dictionary key encoding too.
      return df.WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w"),
                    NamedExpr{Col("k"), "k"}})
          .Agg({SumOf(Col("v"), "total")});
    case Pipeline::kDedup:
      return df.SelectColumns({"k", "v"}).Distinct();
    case Pipeline::kJoin:
      return df.SelectColumns({"k", "v", "time"}).Join(right, {"k"});
  }
  return df;
}

OutputMode ModeOf(Pipeline pipeline) {
  return pipeline == Pipeline::kWindowedAgg ? OutputMode::kUpdate
                                            : OutputMode::kAppend;
}

/// Runs six rounds of `pipeline` (optionally crash-recovering after the
/// third) and, after every round, checks the sink table against
/// RunBatchSorted over the same input prefix.
void ExpectPrefixConsistent(Pipeline pipeline, uint64_t seed,
                            bool restart_midway) {
  auto dir = MakeTempDir("vectorized_prefix");
  ASSERT_TRUE(dir.ok());

  auto left = std::make_shared<MemoryStream>("left", LeftSchema(), 2);
  auto right = std::make_shared<MemoryStream>("right", RightSchema(), 2);
  const bool joins = pipeline == Pipeline::kJoin;
  DataFrame df = BuildQuery(pipeline, DataFrame::ReadStream(left),
                            DataFrame::ReadStream(right));

  auto sink = std::make_shared<EpochRecordingSink>();
  QueryOptions opts;
  opts.mode = ModeOf(pipeline);
  opts.num_partitions = 2;
  opts.checkpoint_dir = *dir;
  opts.state_checkpoint_interval = 2;
  opts.enable_tracing = false;

  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  Random left_rng(seed);
  Random right_rng(seed + 1);
  std::vector<Row> left_rows;
  std::vector<Row> right_rows;
  const int kRounds = 6;
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    std::vector<Row> lr = MakeRound(&left_rng, r, 10);
    left_rows.insert(left_rows.end(), lr.begin(), lr.end());
    ASSERT_TRUE(left->AddData(lr).ok());
    if (joins) {
      std::vector<Row> rr = MakeRound(&right_rng, r, 10);
      right_rows.insert(right_rows.end(), rr.begin(), rr.end());
      ASSERT_TRUE(right->AddData(rr).ok());
    }
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

    DataFrame batch_df =
        BuildQuery(pipeline,
                   DataFrame::FromRows(LeftSchema(), left_rows).TakeValue(),
                   DataFrame::FromRows(RightSchema(), right_rows).TakeValue());
    auto expected = RunBatchSorted(batch_df);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->empty());
    EXPECT_EQ(sink->SortedSnapshot(), *expected);

    if (r == 0) {
      // The stateless prefix really ran fused.
      QueryProgress last;
      ASSERT_TRUE((*query)->GetLastProgress(&last));
      bool fused = false;
      for (const OperatorProgress& op : last.operators) {
        fused |= op.name.rfind("FusedPipeline", 0) == 0;
      }
      EXPECT_TRUE(fused) << "no FusedPipeline node in the plan";
    }
    if (restart_midway && r == 2) {
      // Crash-recover: fused plans must keep checkpoint state dirs and
      // watermark keys stable (the fused node's fresh op_id sits above the
      // original range).
      query->reset();
      query = StreamingQuery::Start(df, sink, opts);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
    }
  }
  EXPECT_EQ(sink->redelivery_mismatches(), 0)
      << "recovery replay re-committed an epoch with different rows";
  query->reset();
  RemoveDirRecursive(*dir).ok();
}

class VectorizedPrefixConsistencyTest
    : public ::testing::TestWithParam<Pipeline> {};

TEST_P(VectorizedPrefixConsistencyTest, SinkMatchesBatchAfterEveryRound) {
  ExpectPrefixConsistent(GetParam(), 20260811, /*restart_midway=*/false);
}

TEST_P(VectorizedPrefixConsistencyTest,
       SinkMatchesBatchAfterEveryRoundAcrossRestartRecovery) {
  ExpectPrefixConsistent(GetParam(), 20260812, /*restart_midway=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, VectorizedPrefixConsistencyTest,
                         ::testing::Values(Pipeline::kWindowedAgg,
                                           Pipeline::kDedup, Pipeline::kJoin),
                         [](const auto& info) {
                           switch (info.param) {
                             case Pipeline::kWindowedAgg: return "WindowedAgg";
                             case Pipeline::kDedup: return "Dedup";
                             case Pipeline::kJoin: return "Join";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace sstreaming
