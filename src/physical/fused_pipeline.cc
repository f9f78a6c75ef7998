#include "physical/fused_pipeline.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "physical/operators.h"

namespace sstreaming {

namespace {

// Output schema of the chain: the topmost projection wins; a chain of pure
// filters/watermarks keeps the child's schema.
SchemaPtr ChainSchema(const PhysOpPtr& child,
                      const std::vector<FusedPipelineExec::Stage>& stages) {
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if (it->kind == FusedPipelineExec::Stage::Kind::kProject) {
      return it->schema;
    }
  }
  return child->schema();
}

}  // namespace

RecordBatchPtr GatherReferenced(const RecordBatchPtr& batch,
                                const std::vector<int>& referenced) {
  if (!batch->has_selection()) return batch;
  const int64_t k = batch->num_rows();
  std::vector<uint8_t> want(static_cast<size_t>(batch->num_columns()), 0);
  for (int c : referenced) want[static_cast<size_t>(c)] = 1;
  std::vector<ColumnPtr> cols;
  cols.reserve(static_cast<size_t>(batch->num_columns()));
  for (int c = 0; c < batch->num_columns(); ++c) {
    const ColumnPtr& in = batch->column(c);
    ColumnPtr out = Column::Make(in->type());
    if (want[static_cast<size_t>(c)]) {
      out->Reserve(k);
      for (int64_t i = 0; i < k; ++i) {
        out->AppendFrom(*in, batch->PhysIndex(i));
      }
    } else {
      // Unreferenced columns only pad the batch to length k so ordinals
      // keep their meaning; their values are never read.
      for (int64_t i = 0; i < k; ++i) out->AppendNull();
    }
    cols.push_back(std::move(out));
  }
  auto out = RecordBatch::Make(batch->schema(), std::move(cols));
  out->set_ingest_micros(batch->ingest_micros());
  return out;
}

FusedPipelineExec::FusedPipelineExec(int op_id, PhysOpPtr child,
                                     std::vector<Stage> stages)
    : PhysOp(op_id, ChainSchema(child, stages), {child}),
      stages_(std::move(stages)) {
  SS_CHECK(stages_.size() >= 2) << "fusing a chain of fewer than 2 stages";
}

std::string FusedPipelineExec::name() const {
  std::string out = "FusedPipeline[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += stages_[i].name;
  }
  out += "]";
  return out;
}

void FusedPipelineExec::CollectProfileNodes(
    std::vector<OpProfileNode>* out) const {
  // The fused node renders its top stage as its child (so its self time is
  // the fusion overhead alone), but its rows_in is what the operator below
  // the chain produced.
  OpProfileNode fused;
  fused.op_id = op_id_;
  fused.name = name();
  fused.child_ids.push_back(stages_.back().op_id);
  fused.input_ids.push_back(children_[0]->op_id());
  out->push_back(std::move(fused));
  // Stages top to bottom, each fed by the stage below; the bottom stage is
  // fed by the fused node's actual child. This reproduces the unfused
  // chain's profile topology, so rows_in/rows_out still tie out per stage.
  for (size_t i = stages_.size(); i-- > 0;) {
    OpProfileNode node;
    node.op_id = stages_[i].op_id;
    node.name = stages_[i].name;
    node.child_ids.push_back(i > 0 ? stages_[i - 1].op_id
                                   : children_[0]->op_id());
    node.input_ids = node.child_ids;
    out->push_back(std::move(node));
  }
}

Result<std::vector<RecordBatchPtr>> FusedPipelineExec::ExecuteImpl(
    ExecContext* ctx) {
  const int64_t t_child0 = MonotonicNanos();
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  const int64_t child_nanos = MonotonicNanos() - t_child0;

  const size_t parts = in.size();
  const size_t n_stages = stages_.size();
  // Per-partition, per-stage accounting filled lock-free inside the tasks
  // and folded into ctx->op_stats afterwards (wall_nanos holds the stage's
  // own time here).
  std::vector<std::vector<OpStats>> cells(parts,
                                          std::vector<OpStats>(n_stages));

  std::vector<RecordBatchPtr> out(parts);
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    tasks.push_back([this, ctx, &in, &out, &cells, p]() -> Status {
      RecordBatchPtr cur = in[p];
      for (size_t s = 0; s < stages_.size(); ++s) {
        const Stage& stage = stages_[s];
        const int64_t t0 = MonotonicNanos();
        switch (stage.kind) {
          case Stage::Kind::kFilter: {
            // Evaluate over the current logical rows only: a view's
            // referenced columns are gathered compactly first (EvalBatch
            // needs selection-free storage). The survivor indices are
            // logical rows of `cur`, so the view composes with any
            // selection already in force.
            RecordBatchPtr eval_in =
                GatherReferenced(cur, stage.referenced);
            SS_ASSIGN_OR_RETURN(ColumnPtr mask,
                                stage.predicate->EvalBatch(*eval_in));
            cur = SelectSurvivors(cur, *mask, ctx->arena);
            break;
          }
          case Stage::Kind::kProject: {
            RecordBatchPtr eval_in = GatherReferenced(cur, stage.referenced);
            std::vector<ColumnPtr> columns;
            columns.reserve(stage.exprs.size());
            for (const NamedExpr& e : stage.exprs) {
              SS_ASSIGN_OR_RETURN(ColumnPtr col, e.expr->EvalBatch(*eval_in));
              columns.push_back(std::move(col));
            }
            auto projected =
                RecordBatch::Make(stage.schema, std::move(columns));
            projected->set_ingest_micros(cur->ingest_micros());
            cur = std::move(projected);
            break;
          }
          case Stage::Kind::kWatermark: {
            const Column& col = *cur->column(stage.column_index);
            int64_t max_ts = INT64_MIN;
            for (int64_t li = 0; li < cur->num_rows(); ++li) {
              const int64_t i = cur->PhysIndex(li);
              if (!col.IsNull(i) && col.Int64At(i) > max_ts) {
                max_ts = col.Int64At(i);
              }
            }
            if (max_ts != INT64_MIN) {
              ctx->ObserveEventTime(stage.op_id, max_ts - stage.delay_micros);
            }
            break;
          }
        }
        OpStats& cell = cells[p][s];
        cell.rows_out = cur->num_rows();
        cell.output_bytes = cur->ApproxBytes();
        cell.batches = 1;
        cell.wall_nanos = MonotonicNanos() - t0;
      }
      out[p] = std::move(cur);
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));

  // Fold per-stage stats under the stages' ORIGINAL op_ids, mirroring what
  // each operator's own Execute would have recorded unfused. Walls are
  // inclusive: child time plus the cumulative stage time up to and
  // including this stage.
  {
    std::lock_guard<std::mutex> lock(ctx->metrics_mu);
    int64_t cumulative = 0;
    for (size_t s = 0; s < n_stages; ++s) {
      OpStats& stats = ctx->op_stats[stages_[s].op_id];
      for (size_t p = 0; p < parts; ++p) {
        stats.Add(cells[p][s]);
        cumulative += cells[p][s].wall_nanos;
      }
      stats.wall_nanos += child_nanos + cumulative;
    }
  }
  return out;
}

namespace {

bool IsFusable(const PhysOp* op) {
  return dynamic_cast<const FilterExec*>(op) != nullptr ||
         dynamic_cast<const ProjectExec*>(op) != nullptr ||
         dynamic_cast<const WatermarkExec*>(op) != nullptr;
}

FusedPipelineExec::Stage MakeStage(const PhysOpPtr& op) {
  FusedPipelineExec::Stage stage;
  stage.op_id = op->op_id();
  stage.name = op->name();
  if (auto* filter = dynamic_cast<const FilterExec*>(op.get())) {
    stage.kind = FusedPipelineExec::Stage::Kind::kFilter;
    stage.predicate = filter->predicate();
    stage.predicate->CollectColumnIndices(&stage.referenced);
  } else if (auto* project = dynamic_cast<const ProjectExec*>(op.get())) {
    stage.kind = FusedPipelineExec::Stage::Kind::kProject;
    stage.exprs = project->exprs();
    stage.schema = op->schema();
    for (const NamedExpr& e : stage.exprs) {
      e.expr->CollectColumnIndices(&stage.referenced);
    }
  } else {
    auto* wm = dynamic_cast<const WatermarkExec*>(op.get());
    SS_CHECK(wm != nullptr) << "unfusable op in chain: " << op->name();
    stage.kind = FusedPipelineExec::Stage::Kind::kWatermark;
    stage.column_index = wm->column_index();
    stage.delay_micros = wm->delay_micros();
    stage.referenced.push_back(wm->column_index());
  }
  return stage;
}

PhysOpPtr Rewrite(const PhysOpPtr& op, int* next_id,
                  std::map<const PhysOp*, PhysOpPtr>* memo) {
  auto it = memo->find(op.get());
  if (it != memo->end()) return it->second;

  // A fusable op whose only child is also fusable starts a maximal chain.
  if (IsFusable(op.get()) && op->children().size() == 1 &&
      IsFusable(op->children()[0].get())) {
    std::vector<PhysOpPtr> chain;  // top to bottom
    PhysOpPtr cursor = op;
    while (IsFusable(cursor.get())) {
      chain.push_back(cursor);
      cursor = cursor->children()[0];
    }
    PhysOpPtr below = Rewrite(cursor, next_id, memo);
    std::vector<FusedPipelineExec::Stage> stages;
    stages.reserve(chain.size());
    for (size_t i = chain.size(); i-- > 0;) {  // bottom to top
      stages.push_back(MakeStage(chain[i]));
    }
    auto fused = std::make_shared<FusedPipelineExec>(
        (*next_id)++, std::move(below), std::move(stages));
    (*memo)[op.get()] = fused;
    return fused;
  }

  for (size_t i = 0; i < op->children().size(); ++i) {
    PhysOpPtr rewritten = Rewrite(op->children()[i], next_id, memo);
    if (rewritten != op->children()[i]) {
      op->ReplaceChild(i, std::move(rewritten));
    }
  }
  (*memo)[op.get()] = op;
  return op;
}

}  // namespace

PhysOpPtr FusePipelines(const PhysOpPtr& root, int* next_id) {
  std::map<const PhysOp*, PhysOpPtr> memo;
  return Rewrite(root, next_id, &memo);
}

}  // namespace sstreaming
