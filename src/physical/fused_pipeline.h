#ifndef SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_
#define SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_

#include <string>
#include <vector>

#include "expr/expression.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// A maximal chain of stateless row-shape operators (Filter / Project /
/// Watermark) collapsed into one pass per batch (docs/VECTORIZED_EXEC.md).
/// Instead of each operator materializing an intermediate batch, the fused
/// pipeline carries a selection vector through the filter stages and, at a
/// projection, gathers only the columns the projection actually references.
///
/// Observability contract: the fused node has its own (fresh) op_id, but
/// every stage keeps the op_id of the operator it replaced — per-stage
/// OpStats are recorded under those original ids and CollectProfileNodes
/// exposes the stages as chained profile nodes, so EXPLAIN ANALYZE row
/// accounting and the sstreaming_operator_rows_* counters tie out exactly
/// as they did unfused. Watermark stages likewise observe event times under
/// their original op_id, keeping the engine's watermark map stable.
class FusedPipelineExec : public PhysOp {
 public:
  struct Stage {
    enum class Kind { kFilter, kProject, kWatermark };
    Kind kind;
    /// op_id of the operator this stage replaced (stats + watermark key).
    int op_id = 0;
    /// Original operator name (profile rendering).
    std::string name;
    // kFilter
    ExprPtr predicate;
    // kProject
    std::vector<NamedExpr> exprs;
    SchemaPtr schema;  // output schema of the projection
    // kWatermark
    int column_index = 0;
    int64_t delay_micros = 0;
    /// Column ordinals of the stage's input that its expressions read.
    std::vector<int> referenced;
  };

  /// `stages` are ordered bottom (nearest `child`) to top.
  FusedPipelineExec(int op_id, PhysOpPtr child, std::vector<Stage> stages);

  std::string name() const override;
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;
  void CollectProfileNodes(std::vector<OpProfileNode>* out) const override;

  const std::vector<Stage>& stages() const { return stages_; }

 private:
  std::vector<Stage> stages_;
};

/// Gathers the logical rows of `batch` (through its selection, if any) for
/// just the column ordinals in `referenced`; the remaining columns are
/// null-filled to the same length so ordinals keep their meaning. Returns
/// `batch` unchanged when it has no selection. Preserves ingest_micros.
RecordBatchPtr GatherReferenced(const RecordBatchPtr& batch,
                                const std::vector<int>& referenced);

/// Rewrites `root`, collapsing every maximal chain of >= 2 fusable
/// stateless operators (FilterExec / ProjectExec / WatermarkExec) into a
/// FusedPipelineExec. Fused nodes get fresh op_ids from `next_id`; shared
/// subtrees (DAG-shaped plans) are rewritten once.
PhysOpPtr FusePipelines(const PhysOpPtr& root, int* next_id);

}  // namespace sstreaming

#endif  // SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_
