#include "physical/stateful_ops.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace sstreaming {

namespace {

// Appends value i of src to dst with matching physical type (no boxing).
void AppendFromColumn(const Column& src, int64_t i, Column* dst) {
  if (src.IsNull(i)) {
    dst->AppendNull();
    return;
  }
  switch (PhysicalKindOf(src.type())) {
    case PhysicalKind::kBool:
      dst->AppendBool(src.BoolAt(i));
      break;
    case PhysicalKind::kInt64:
      dst->AppendInt64(src.Int64At(i));
      break;
    case PhysicalKind::kFloat64:
      dst->AppendFloat64(src.Float64At(i));
      break;
    case PhysicalKind::kString:
      dst->AppendString(src.StringAt(i));
      break;
    case PhysicalKind::kNone:
      dst->AppendNull();
      break;
  }
}

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(const std::string& data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

// ---------------------------------------------------------------------------
// Shard routing (docs/STATE_SHARDING.md)
//
// A row's state key lives in shard StableHashKey(key) % num_shards. Every
// keyed operator runs one task per partition that makes a single pass over
// each input, routing each row's key to its shard's StateStore, then works
// through the shards in index order (flush, evict, emit). The aggregate
// evaluates its key and argument columns in an [eval] stage first. Each
// shard sees its rows in input order, so everything an operator emits is a
// deterministic function of the input regardless of shard count; per-shard
// outputs are merged in shard-index order.
// ---------------------------------------------------------------------------

/// Concatenates one partition's per-shard output rows in shard-index order
/// — the deterministic merge sharded operators emit through.
Result<RecordBatchPtr> MergeShardRows(
    const SchemaPtr& schema, std::vector<std::vector<Row>>* shard_rows) {
  std::vector<Row> merged;
  size_t total = 0;
  for (const auto& sr : *shard_rows) total += sr.size();
  merged.reserve(total);
  for (auto& sr : *shard_rows) {
    merged.insert(merged.end(), std::make_move_iterator(sr.begin()),
                  std::make_move_iterator(sr.end()));
  }
  return RecordBatch::FromRows(schema, merged);
}

/// Heterogeneous-lookup hash so fold loops can probe string-keyed maps with
/// a string_view of the row's encoded key (no per-probe allocation).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// StatefulAggExec
// ---------------------------------------------------------------------------

StatefulAggExec::StatefulAggExec(int op_id, PhysOpPtr child,
                                 SchemaPtr out_schema,
                                 std::vector<NamedExpr> group_exprs,
                                 std::vector<AggSpec> aggregates)
    : PhysOp(op_id, std::move(out_schema), {std::move(child)}),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)) {
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (group_exprs_[i].expr->kind() == Expr::Kind::kWindow) {
      window_key_index_ = static_cast<int>(i);
      window_expr_ = static_cast<const WindowExpr*>(group_exprs_[i].expr.get());
    }
  }
}

int StatefulAggExec::num_output_key_columns() const {
  int n = 0;
  for (const NamedExpr& g : group_exprs_) {
    n += g.expr->kind() == Expr::Kind::kWindow ? 2 : 1;
  }
  return n;
}

Result<std::vector<RecordBatchPtr>> StatefulAggExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: stateful operators evaluate
  // expressions and encode state keys over whole batches, so selection
  // views compact here (docs/VECTORIZED_EXEC.md).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  const size_t P = in.size();
  const bool windowed = window_expr_ != nullptr;
  const int64_t watermark = ctx->watermark_micros;
  const int64_t window_size = windowed ? window_expr_->size_micros() : 0;
  const bool needs_args = [&] {
    for (const AggSpec& a : aggregates_) {
      if (a.func != AggFunc::kCountAll) return true;
    }
    return false;
  }();

  // Stores open serially (lazy open does recovery I/O under the manager
  // lock); the partition tasks below then touch disjoint stores lock-free.
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }

  // Dictionary-encoded string key column (docs/VECTORIZED_EXEC.md): the
  // state-key encoding of each distinct value is precooked once, and the
  // per-row hot loops append the precooked bytes — byte-identical to
  // EncodeValueTo by construction, but one hash per row instead of one
  // length-prefixed byte append per row per occurrence.
  struct KeyDict {
    std::vector<std::string> encoded;  // per distinct value (incl. null)
    std::vector<int32_t> codes;        // per row -> index into `encoded`
  };

  struct PartitionWork {
    std::vector<ColumnPtr> key_cols;
    std::vector<ColumnPtr> arg_cols;
    /// One dict per string-typed scalar group key column, else null.
    std::vector<std::unique_ptr<KeyDict>> key_dicts;
    std::vector<std::vector<Row>> shard_rows;  // per-shard output rows
  };
  std::vector<PartitionWork> work(P);

  // Stage 1 [eval]: vectorized evaluation of group keys and agg arguments.
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      tasks.push_back([this, &in, &work, p]() -> Status {
        const RecordBatch& input = *in[p];
        PartitionWork& w = work[p];
        w.key_cols.resize(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          if (static_cast<int>(g) == window_key_index_) {
            SS_ASSIGN_OR_RETURN(w.key_cols[g],
                                window_expr_->time()->EvalBatch(input));
          } else {
            SS_ASSIGN_OR_RETURN(w.key_cols[g],
                                group_exprs_[g].expr->EvalBatch(input));
          }
        }
        w.arg_cols.resize(aggregates_.size());
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          if (aggregates_[a].func == AggFunc::kCountAll) continue;
          SS_ASSIGN_OR_RETURN(w.arg_cols[a],
                              aggregates_[a].arg->EvalBatch(input));
        }
        // Dictionary-encode string key columns for the encode loops below.
        w.key_dicts.resize(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          if (static_cast<int>(g) == window_key_index_) continue;
          const Column& col = *w.key_cols[g];
          if (PhysicalKindOf(col.type()) != PhysicalKind::kString) continue;
          auto dict = std::make_unique<KeyDict>();
          const int64_t rows = col.size();
          dict->codes.resize(static_cast<size_t>(rows));
          std::unordered_map<std::string_view, int32_t> index;
          int32_t null_code = -1;
          for (int64_t i = 0; i < rows; ++i) {
            if (col.IsNull(i)) {
              if (null_code < 0) {
                null_code = static_cast<int32_t>(dict->encoded.size());
                dict->encoded.emplace_back();
                col.EncodeValueTo(i, &dict->encoded.back());
              }
              dict->codes[static_cast<size_t>(i)] = null_code;
              continue;
            }
            const std::string& v = col.StringAt(i);
            auto [it, inserted] = index.emplace(
                std::string_view(v),
                static_cast<int32_t>(dict->encoded.size()));
            if (inserted) {
              dict->encoded.emplace_back();
              col.EncodeValueTo(i, &dict->encoded.back());
            }
            dict->codes[static_cast<size_t>(i)] = it->second;
          }
          w.key_dicts[g] = std::move(dict);
        }
        return Status::OK();
      });
    }
    SS_RETURN_IF_ERROR(
        ctx->RunStage(op_id_, name() + "[eval]", std::move(tasks)));
  }

  // Finalizer (pure: decode key, append window end, finalize aggregates).
  auto finalize = [&](const std::string& enc_key,
                      const Row& state) -> Result<Row> {
    SS_ASSIGN_OR_RETURN(Row key, DecodeRow(enc_key));
    Row out_row;
    for (size_t g = 0; g < key.size(); ++g) {
      if (static_cast<int>(g) == window_key_index_) {
        out_row.push_back(key[g]);  // window_start
        out_row.push_back(Value::Timestamp(key[g].int64_value() +
                                           window_size));  // window_end
      } else {
        out_row.push_back(key[g]);
      }
    }
    Row finals = FinalizeAggState(aggregates_, state);
    out_row.insert(out_row.end(), finals.begin(), finals.end());
    return out_row;
  };

  // Keys touched this batch -> their store entry and updated state, one map
  // per shard.
  struct Touched {
    StateRef ref;
    Row state;
  };
  using ChangedMap = std::unordered_map<std::string, Touched,
                                        TransparentStringHash,
                                        std::equal_to<>>;

  // The window starts row i updates: its event time's windows the
  // watermark has not closed (late data for a closed window is dropped;
  // none without an event time), or one dummy start when unwindowed.
  auto live_windows = [this, windowed, watermark, window_size](
                          const PartitionWork& w, int64_t i,
                          std::vector<int64_t>* starts) {
    starts->clear();
    if (!windowed) {
      starts->push_back(0);
      return;
    }
    const Column& time_col =
        *w.key_cols[static_cast<size_t>(window_key_index_)];
    if (time_col.IsNull(i)) return;
    window_expr_->EnumerateWindowStarts(time_col.Int64At(i), starts);
    if (watermark != INT64_MIN) {
      std::erase_if(*starts, [&](int64_t start) {
        return start + window_size <= watermark;
      });
    }
  };

  // State key of row i in window `wstart` (ignored when unwindowed) —
  // byte-identical to EncodeRow of the boxed key, without boxing.
  auto encode_key = [this](const PartitionWork& w, int64_t i, int64_t wstart,
                           std::string* enc) {
    enc->clear();
    enc->push_back(static_cast<char>(group_exprs_.size()));
    for (size_t g = 0; g < group_exprs_.size(); ++g) {
      if (static_cast<int>(g) == window_key_index_) {
        enc->push_back(static_cast<char>(TypeId::kTimestamp));
        char buf[8];
        std::memcpy(buf, &wstart, 8);
        enc->append(buf, 8);
      } else if (const KeyDict* dict = w.key_dicts[g].get()) {
        enc->append(dict->encoded[static_cast<size_t>(
            dict->codes[static_cast<size_t>(i)])]);
      } else {
        w.key_cols[g]->EncodeValueTo(i, enc);
      }
    }
  };

  // Reads row i's aggregate arguments into `args` (sized to the aggregate
  // count; count(*) slots stay null).
  auto load_args = [this, needs_args](const PartitionWork& w, int64_t i,
                                      Row* args) {
    if (!needs_args) return;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      if (aggregates_[a].func != AggFunc::kCountAll) {
        (*args)[a] = w.arg_cols[a]->ValueAt(i);
      }
    }
  };

  // Folds `args` into key `enc`'s state. On the key's first touch this
  // batch, one Touch of `shard` finds (and decodes) or creates its entry,
  // whose handle the flush writes back through.
  auto fold_row = [this](std::string_view enc, const Row& args,
                         ChangedMap* changed,
                         StateStore* shard) -> Status {
    auto it = changed->find(enc);
    if (it == changed->end()) {
      Touched touched;
      touched.ref = shard->Touch(enc);
      if (touched.ref.created) {
        touched.state = InitAggState(aggregates_);
      } else {
        SS_ASSIGN_OR_RETURN(touched.state,
                            DecodeRow(shard->Value(touched.ref)));
      }
      it = changed->emplace(std::string(enc), std::move(touched)).first;
    }
    UpdateAggState(aggregates_, args, &it->second.state);
    return Status::OK();
  };

  // Flush + emit for one shard: write back the
  // changed states through their handles (before any eviction Remove, which
  // would move entries), then emit per output mode (batch/complete:
  // everything; append: finals of windows closed by the watermark; update:
  // changed minus evicted), evicting closed windows along the way.
  auto apply_shard = [&](StateStore* shard, const ChangedMap& changed,
                         std::vector<Row>& out_rows) -> Status {
    std::string buf;
    for (const auto& [enc, touched] : changed) {
      buf.clear();
      EncodeRow(touched.state, &buf);
      shard->Set(touched.ref, buf);
    }

    if (ctx->is_batch) {
      // One-shot batch run: emit everything, no eviction needed.
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto state = DecodeRow(v);
        if (!state.ok()) {
          iter_status = state.status();
          return;
        }
        auto row = finalize(k, *state);
        if (!row.ok()) {
          iter_status = row.status();
          return;
        }
        out_rows.push_back(std::move(*row));
      });
      return iter_status;
    }

    // Eviction of closed windows (and append-mode emission of their
    // finals), shard-local.
    std::vector<std::string> evict;
    if (windowed && watermark != INT64_MIN) {
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto key = DecodeRow(k);
        if (!key.ok()) {
          iter_status = key.status();
          return;
        }
        int64_t wstart =
            (*key)[static_cast<size_t>(window_key_index_)].int64_value();
        if (wstart + window_size <= watermark) {
          if (ctx->mode == OutputMode::kAppend) {
            auto state = DecodeRow(v);
            if (!state.ok()) {
              iter_status = state.status();
              return;
            }
            auto row = finalize(k, *state);
            if (!row.ok()) {
              iter_status = row.status();
              return;
            }
            out_rows.push_back(std::move(*row));
          }
          evict.push_back(k);
        }
      });
      SS_RETURN_IF_ERROR(iter_status);
      for (const std::string& k : evict) shard->Remove(k);
    }

    if (ctx->mode == OutputMode::kUpdate) {
      std::unordered_set<std::string> evicted(evict.begin(), evict.end());
      for (const auto& [enc, touched] : changed) {
        if (evicted.count(enc)) continue;  // closed; never re-emit
        SS_ASSIGN_OR_RETURN(Row row, finalize(enc, touched.state));
        out_rows.push_back(std::move(row));
      }
    } else if (ctx->mode == OutputMode::kComplete) {
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto state = DecodeRow(v);
        if (!state.ok()) {
          iter_status = state.status();
          return;
        }
        auto row = finalize(k, *state);
        if (!row.ok()) {
          iter_status = row.status();
          return;
        }
        out_rows.push_back(std::move(*row));
      });
      SS_RETURN_IF_ERROR(iter_status);
    }
    return Status::OK();
  };

  // Fold: one task per partition makes a single pass over its rows, routing
  // each row's key straight into its shard's changed map, then applies each
  // shard in index order. Partitions are the unit of fold parallelism;
  // shards are the unit of checkpoint and restore.
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < P; ++p) {
    const int S = stores[p]->num_shards();
    const int64_t n = in[p]->num_rows();
    work[p].shard_rows.resize(static_cast<size_t>(S));
    tasks.push_back([this, &work, &stores, &apply_shard, &live_windows,
                     &encode_key, &load_args, &fold_row, p, S,
                     n]() -> Status {
      PartitionWork& w = work[p];
      std::vector<ChangedMap> changed(static_cast<size_t>(S));
      Row args(aggregates_.size());  // all-null is correct for count(*)
      std::vector<int64_t> window_starts;
      std::string enc;
      for (int64_t i = 0; i < n; ++i) {
        live_windows(w, i, &window_starts);
        if (window_starts.empty()) continue;
        load_args(w, i, &args);
        for (int64_t wstart : window_starts) {
          encode_key(w, i, wstart, &enc);
          const int s = stores[p]->ShardOf(enc);
          SS_RETURN_IF_ERROR(fold_row(enc, args,
                                      &changed[static_cast<size_t>(s)],
                                      stores[p]->shard(s)));
        }
      }
      for (int s = 0; s < S; ++s) {
        SS_RETURN_IF_ERROR(
            apply_shard(stores[p]->shard(s), changed[static_cast<size_t>(s)],
                        w.shard_rows[static_cast<size_t>(s)]));
      }
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));

  // Deterministic merge: shard outputs concatenated in shard-index order.
  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(out[p], MergeShardRows(schema_, &work[p].shard_rows));
  }
  return out;
}

// ---------------------------------------------------------------------------
// DedupExec
// ---------------------------------------------------------------------------

DedupExec::DedupExec(int op_id, PhysOpPtr child)
    : PhysOp(op_id, child->schema(), {child}) {}

Result<std::vector<RecordBatchPtr>> DedupExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: stateful operators evaluate
  // expressions and encode state keys over whole batches, so selection
  // views compact here (docs/VECTORIZED_EXEC.md).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  const size_t P = in.size();
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }

  // One task per partition marks its first-seen rows (the dedup key is the
  // whole row); the mask preserves input order, so the output is
  // byte-identical whatever the shard count.
  std::vector<std::vector<uint8_t>> masks(P);
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < P; ++p) {
    tasks.push_back([&in, &masks, &stores, p]() -> Status {
      const int64_t n = in[p]->num_rows();
      ShardedStateStore* store = stores[p];
      std::vector<uint8_t>& mask = masks[p];
      mask.assign(static_cast<size_t>(n), 0);
      std::string enc;
      for (int64_t i = 0; i < n; ++i) {
        enc.clear();
        EncodeRow(in[p]->RowAt(i), &enc);
        // A created entry is the seen-marker itself (empty value).
        if (store->shard(store->ShardOf(enc))->Touch(enc).created) {
          mask[static_cast<size_t>(i)] = 1;
        }
      }
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));

  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) out[p] = in[p]->Filter(masks[p]);
  return out;
}

// ---------------------------------------------------------------------------
// StreamStaticJoinExec
// ---------------------------------------------------------------------------

StreamStaticJoinExec::StreamStaticJoinExec(
    int op_id, PhysOpPtr stream_child, SchemaPtr out_schema,
    std::vector<ExprPtr> stream_keys, SchemaPtr static_schema,
    std::vector<Row> static_rows, std::vector<ExprPtr> static_keys,
    std::vector<int> stream_output_indices,
    std::vector<int> static_output_indices, bool stream_first,
    bool preserve_stream, std::vector<std::pair<int, int>> static_from_stream)
    : PhysOp(op_id, std::move(out_schema), {std::move(stream_child)}),
      stream_keys_(std::move(stream_keys)),
      static_schema_(std::move(static_schema)),
      stream_output_indices_(std::move(stream_output_indices)),
      static_output_indices_(std::move(static_output_indices)),
      stream_first_(stream_first),
      preserve_stream_(preserve_stream),
      static_from_stream_(std::move(static_from_stream)) {
  // Materialize the static side into a broadcast hash table once.
  for (Row& row : static_rows) {
    Row key;
    key.reserve(static_keys.size());
    for (const ExprPtr& e : static_keys) {
      auto v = e->EvalRow(row);
      SS_CHECK(v.ok()) << v.status().ToString();
      key.push_back(std::move(*v));
    }
    static_by_key_[std::move(key)].push_back(std::move(row));
  }
  // Unboxed probe index for a single int64-backed key.
  if (stream_keys_.size() == 1) {
    int64_key_ = true;
    for (const auto& [key, rows] : static_by_key_) {
      if (PhysicalKindOf(key[0].type()) != PhysicalKind::kInt64) {
        int64_key_ = false;
        break;
      }
      auto& bucket = static_by_int64_[key[0].int64_value()];
      for (const Row& r : rows) bucket.push_back(&r);
    }
    if (!int64_key_) static_by_int64_.clear();
  }
}

Result<std::vector<RecordBatchPtr>> StreamStaticJoinExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: join probing evaluates key expressions
  // over whole batches, so selection views compact here.
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  std::vector<RecordBatchPtr> out(in.size());
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < in.size(); ++p) {
    tasks.push_back([this, &in, &out, p]() -> Status {
      SS_ASSIGN_OR_RETURN(RecordBatchPtr batch, ExecutePartition(*in[p]));
      out[p] = std::move(batch);
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  return out;
}

Result<RecordBatchPtr> StreamStaticJoinExec::ExecutePartition(
    const RecordBatch& input) {
  const int64_t n = input.num_rows();
  // Vectorized key evaluation, then per-row hash probe; output columns are
  // gathered typed (no per-cell boxing for the stream side).
  std::vector<ColumnPtr> key_cols(stream_keys_.size());
  for (size_t k = 0; k < stream_keys_.size(); ++k) {
    SS_ASSIGN_OR_RETURN(key_cols[k], stream_keys_[k]->EvalBatch(input));
  }
  std::vector<int64_t> emit_stream_index;
  std::vector<const Row*> emit_static_row;  // nullptr = null-padded
  if (int64_key_ &&
      PhysicalKindOf(key_cols[0]->type()) == PhysicalKind::kInt64) {
    // Unboxed probe on the single int64 key.
    const Column& kc = *key_cols[0];
    for (int64_t i = 0; i < n; ++i) {
      if (!kc.IsNull(i)) {
        auto it = static_by_int64_.find(kc.Int64At(i));
        if (it != static_by_int64_.end()) {
          for (const Row* match : it->second) {
            emit_stream_index.push_back(i);
            emit_static_row.push_back(match);
          }
          continue;
        }
      }
      if (preserve_stream_) {
        emit_stream_index.push_back(i);
        emit_static_row.push_back(nullptr);
      }
    }
  } else {
    Row key(stream_keys_.size());
    for (int64_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        key[k] = key_cols[k]->ValueAt(i);
      }
      auto it = static_by_key_.find(key);
      if (it != static_by_key_.end()) {
        for (const Row& match : it->second) {
          emit_stream_index.push_back(i);
          emit_static_row.push_back(&match);
        }
      } else if (preserve_stream_) {
        emit_stream_index.push_back(i);
        emit_static_row.push_back(nullptr);
      }
    }
  }

  // Build output columns.
  auto build_stream_column = [&](int src_idx) {
    const Column& src = *input.column(src_idx);
    ColumnPtr dst = Column::Make(src.type());
    dst->Reserve(static_cast<int64_t>(emit_stream_index.size()));
    for (int64_t i : emit_stream_index) AppendFromColumn(src, i, dst.get());
    return dst;
  };
  auto build_static_column = [&](int src_idx, TypeId type) {
    // USING-join key coalescing: take the stream's key value when there is
    // no static match (see constructor comment).
    int coalesce_from = -1;
    for (const auto& [static_idx, stream_idx] : static_from_stream_) {
      if (static_idx == src_idx) coalesce_from = stream_idx;
    }
    ColumnPtr dst = Column::Make(type);
    dst->Reserve(static_cast<int64_t>(emit_static_row.size()));
    for (size_t e = 0; e < emit_static_row.size(); ++e) {
      const Row* row = emit_static_row[e];
      if (row != nullptr) {
        dst->AppendValue((*row)[static_cast<size_t>(src_idx)]);
      } else if (coalesce_from >= 0) {
        dst->AppendFrom(*input.column(coalesce_from), emit_stream_index[e]);
      } else {
        dst->AppendNull();
      }
    }
    return dst;
  };

  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(schema_->num_fields()));
  if (stream_first_) {
    for (int idx : stream_output_indices_) {
      columns.push_back(build_stream_column(idx));
    }
    for (int idx : static_output_indices_) {
      columns.push_back(
          build_static_column(idx, static_schema_->field(idx).type));
    }
  } else {
    for (int idx : static_output_indices_) {
      columns.push_back(
          build_static_column(idx, static_schema_->field(idx).type));
    }
    for (int idx : stream_output_indices_) {
      columns.push_back(build_stream_column(idx));
    }
  }
  return RecordBatch::Make(schema_, std::move(columns));
}

// ---------------------------------------------------------------------------
// StreamStreamJoinExec
// ---------------------------------------------------------------------------

namespace {

// State value codec for one join side's rows under one key:
// repeated [matched byte][encoded row].
std::string EncodeSideRows(const std::vector<std::pair<bool, Row>>& rows) {
  std::string out;
  for (const auto& [matched, row] : rows) {
    out.push_back(matched ? 1 : 0);
    EncodeRow(row, &out);
  }
  return out;
}

Result<std::vector<std::pair<bool, Row>>> DecodeSideRows(
    const std::string& data) {
  std::vector<std::pair<bool, Row>> rows;
  size_t pos = 0;
  while (pos < data.size()) {
    bool matched = data[pos++] != 0;
    SS_ASSIGN_OR_RETURN(Row row, DecodeRow(data, &pos));
    rows.emplace_back(matched, std::move(row));
  }
  return rows;
}

}  // namespace

StreamStreamJoinExec::StreamStreamJoinExec(
    int op_id, PhysOpPtr left, PhysOpPtr right, SchemaPtr out_schema,
    std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
    JoinType join_type, std::vector<int> right_output_indices,
    int left_time_index, int right_time_index,
    std::vector<std::pair<int, int>> left_from_right)
    : PhysOp(op_id, std::move(out_schema), {left, right}),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      join_type_(join_type),
      right_output_indices_(std::move(right_output_indices)),
      left_time_index_(left_time_index),
      right_time_index_(right_time_index),
      left_from_right_(std::move(left_from_right)) {
  left_arity_ = children_[0]->schema()->num_fields();
}

Row StreamStreamJoinExec::JoinedRow(const Row* left, const Row* right) const {
  Row out;
  out.reserve(static_cast<size_t>(schema_->num_fields()));
  if (left != nullptr) {
    out.insert(out.end(), left->begin(), left->end());
  } else {
    out.insert(out.end(), static_cast<size_t>(left_arity_), Value::Null());
    // USING-join key coalescing for null-padded right-outer results.
    if (right != nullptr) {
      for (const auto& [left_idx, right_idx] : left_from_right_) {
        out[static_cast<size_t>(left_idx)] =
            (*right)[static_cast<size_t>(right_idx)];
      }
    }
  }
  for (int idx : right_output_indices_) {
    out.push_back(right != nullptr ? (*right)[static_cast<size_t>(idx)]
                                   : Value::Null());
  }
  return out;
}

Result<std::vector<RecordBatchPtr>> StreamStreamJoinExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> left_in,
                      children_[0]->Execute(ctx));
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> right_in,
                      children_[1]->Execute(ctx));
  // Materialize-on-demand boundary (selection views compact here).
  for (RecordBatchPtr& b : left_in) b = RecordBatch::Materialize(b);
  for (RecordBatchPtr& b : right_in) b = RecordBatch::Materialize(b);
  if (left_in.size() != right_in.size()) {
    return Status::Internal("stream-stream join sides not co-partitioned");
  }
  const size_t P = left_in.size();
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }

  // Working cache of one shard's decoded side-state. Tracks how many rows
  // were already stored (`base_n`) and whether stored rows changed
  // (`dirty`), so the flush can append just the new suffix for grow-only
  // keys instead of rewriting the value.
  struct CacheEntry {
    std::vector<std::pair<bool, Row>> rows;
    size_t base_n = 0;
    bool dirty = false;
  };
  using SideCache = std::unordered_map<std::string, CacheEntry>;

  // Watermark-driven eviction: rows whose event time has fallen below the
  // watermark can no longer match. Unmatched rows on a preserved outer side
  // are emitted null-padded exactly once.
  const int64_t watermark = ctx->watermark_micros;
  const bool evicting = watermark != INT64_MIN &&
                        (left_time_index_ >= 0 || right_time_index_ >= 0);

  // One task per partition. The shard is chosen by the hash of the join key
  // *without* the 'L'/'R' side byte, so both sides of a key land in the
  // same shard (the join needs them together); store keys keep the side
  // prefix within the shard. Each shard keeps its own cache and output
  // slot, and sees its rows in input order — so the joined multiset per
  // shard is shard-count-invariant.
  std::vector<std::vector<std::vector<Row>>> shard_rows(P);
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < P; ++p) {
    tasks.push_back([this, ctx, &left_in, &right_in, &stores, &shard_rows,
                     watermark, evicting, p]() -> Status {
      ShardedStateStore* store = stores[p];
      const int S = store->num_shards();
      std::vector<SideCache> caches(static_cast<size_t>(S));
      std::vector<std::vector<Row>>& out = shard_rows[p];
      out.resize(static_cast<size_t>(S));

      auto load = [&](int s, const std::string& store_key)
          -> Result<CacheEntry*> {
        SideCache& cache = caches[static_cast<size_t>(s)];
        auto it = cache.find(store_key);
        if (it == cache.end()) {
          CacheEntry entry;
          std::optional<std::string> stored = store->shard(s)->Get(store_key);
          if (stored.has_value()) {
            SS_ASSIGN_OR_RETURN(entry.rows, DecodeSideRows(*stored));
            entry.base_n = entry.rows.size();
          }
          it = cache.emplace(store_key, std::move(entry)).first;
        }
        return &it->second;
      };

      // The symmetric-hash passes. Pass 1 probes new left rows against the
      // stored right side (prior epochs), appending them to left state;
      // pass 2 probes new right rows against left state, which now includes
      // this epoch's left rows, covering intra-epoch matches exactly once.
      for (int side = 0; side < 2; ++side) {
        const bool is_left = side == 0;
        const RecordBatch& input = is_left ? *left_in[p] : *right_in[p];
        const std::vector<ExprPtr>& keys = is_left ? left_keys_ : right_keys_;
        std::vector<ColumnPtr> key_cols(keys.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          SS_ASSIGN_OR_RETURN(key_cols[k], keys[k]->EvalBatch(input));
        }
        std::string enc;
        const int64_t n = input.num_rows();
        for (int64_t i = 0; i < n; ++i) {
          enc.clear();
          enc.push_back(static_cast<char>(keys.size()));
          for (size_t k = 0; k < key_cols.size(); ++k) {
            key_cols[k]->EncodeValueTo(i, &enc);
          }
          const int s = store->ShardOf(enc);
          std::vector<Row>& out_rows = out[static_cast<size_t>(s)];
          Row row = input.RowAt(i);
          std::string own_key = is_left ? "L" : "R";
          own_key.append(enc);
          std::string other_key = own_key;
          other_key[0] = is_left ? 'R' : 'L';
          SS_ASSIGN_OR_RETURN(CacheEntry * other, load(s, other_key));
          bool matched = false;
          for (size_t k = 0; k < other->rows.size(); ++k) {
            auto& [other_matched, other_row] = other->rows[k];
            out_rows.push_back(is_left ? JoinedRow(&row, &other_row)
                                       : JoinedRow(&other_row, &row));
            if (!other_matched && k < other->base_n) {
              other->dirty = true;  // stored flag flips
            }
            other_matched = true;
            matched = true;
          }
          SS_ASSIGN_OR_RETURN(CacheEntry * own, load(s, own_key));
          own->rows.emplace_back(matched, std::move(row));
        }
      }

      for (int s = 0; s < S; ++s) {
        StateStore* shard = store->shard(s);
        SideCache& cache = caches[static_cast<size_t>(s)];
        std::vector<Row>& out_rows = out[static_cast<size_t>(s)];
        if (evicting || ctx->is_batch) {
          // Pull every stored key of this shard into the cache so eviction
          // sees all state.
          std::vector<std::string> all_keys;
          shard->ForEach([&](const std::string& k, const std::string&) {
            all_keys.push_back(k);
          });
          for (const std::string& k : all_keys) {
            SS_RETURN_IF_ERROR(load(s, k).status());
          }
          for (auto& [store_key, entry] : cache) {
            const bool is_left = store_key[0] == 'L';
            const int time_index =
                is_left ? left_time_index_ : right_time_index_;
            const bool preserved =
                (is_left && join_type_ == JoinType::kLeftOuter) ||
                (!is_left && join_type_ == JoinType::kRightOuter);
            std::vector<std::pair<bool, Row>> kept;
            for (auto& [matched, row] : entry.rows) {
              bool expire;
              if (ctx->is_batch) {
                expire = true;  // batch run: finalize everything
              } else {
                expire = time_index >= 0 &&
                         !row[static_cast<size_t>(time_index)].is_null() &&
                         row[static_cast<size_t>(time_index)].int64_value() <
                             watermark;
              }
              if (expire) {
                if (preserved && !matched) {
                  out_rows.push_back(is_left ? JoinedRow(&row, nullptr)
                                             : JoinedRow(nullptr, &row));
                }
              } else {
                kept.emplace_back(matched, std::move(row));
              }
            }
            if (kept.size() != entry.rows.size()) entry.dirty = true;
            entry.rows = std::move(kept);
          }
        }

        // Flush: untouched entries are skipped, grow-only entries append
        // their new suffix, everything else is rewritten.
        for (const auto& [store_key, entry] : cache) {
          if (entry.rows.empty()) {
            if (entry.base_n > 0) shard->Remove(store_key);
          } else if (entry.dirty) {
            shard->Put(store_key, EncodeSideRows(entry.rows));
          } else if (entry.rows.size() > entry.base_n) {
            std::string tail;
            for (size_t k = entry.base_n; k < entry.rows.size(); ++k) {
              tail.push_back(entry.rows[k].first ? 1 : 0);
              EncodeRow(entry.rows[k].second, &tail);
            }
            SS_RETURN_IF_ERROR(store->Append(s, store_key, tail));
          }
        }
      }
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));

  // Deterministic merge in shard-index order.
  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(out[p], MergeShardRows(schema_, &shard_rows[p]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlatMapGroupsWithStateExec
// ---------------------------------------------------------------------------

FlatMapGroupsWithStateExec::FlatMapGroupsWithStateExec(
    int op_id, PhysOpPtr child, SchemaPtr out_schema,
    std::vector<NamedExpr> key_exprs, GroupUpdateFn update_fn,
    GroupStateTimeout timeout, bool require_single_output)
    : PhysOp(op_id, std::move(out_schema), {std::move(child)}),
      key_exprs_(std::move(key_exprs)),
      update_fn_(std::move(update_fn)),
      timeout_(timeout),
      require_single_output_(require_single_output) {}

Result<std::vector<RecordBatchPtr>> FlatMapGroupsWithStateExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary (selection views compact here).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  std::vector<RecordBatchPtr> out(in.size());
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < in.size(); ++p) {
    tasks.push_back([this, ctx, &in, &out, p]() -> Status {
      SS_ASSIGN_OR_RETURN(
          RecordBatchPtr batch,
          ExecutePartition(ctx, static_cast<int>(p), *in[p]));
      out[p] = std::move(batch);
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  return out;
}

Result<RecordBatchPtr> FlatMapGroupsWithStateExec::ExecutePartition(
    ExecContext* ctx, int partition, const RecordBatch& input) {
  SS_ASSIGN_OR_RETURN(ShardedStateStore * store,
                      ctx->state->GetStore(op_id_, partition));
  const int64_t now = ctx->clock != nullptr ? ctx->clock->NowMicros() : 0;
  const int64_t watermark = ctx->watermark_micros;

  // Group the input rows by key.
  std::vector<ColumnPtr> key_cols(key_exprs_.size());
  for (size_t k = 0; k < key_exprs_.size(); ++k) {
    SS_ASSIGN_OR_RETURN(key_cols[k], key_exprs_[k].expr->EvalBatch(input));
  }
  std::map<std::string, std::pair<Row, std::vector<Row>>> groups;
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    Row key(key_exprs_.size());
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = key_cols[k]->ValueAt(i);
    }
    std::string enc;
    EncodeRow(key, &enc);
    auto& slot = groups[enc];
    slot.first = std::move(key);
    slot.second.push_back(input.RowAt(i));
  }

  std::vector<Row> out_rows;

  // State value codec: [fixed64 timeout_at][encoded user row].
  auto load_state = [&](StateStore* shard, StateRef ref)
      -> Result<std::pair<std::optional<Row>, int64_t>> {
    if (ref.created) {
      return std::make_pair(std::optional<Row>(), INT64_MAX);
    }
    const std::string& stored = shard->Value(ref);
    size_t pos = 0;
    uint64_t timeout_at;
    if (!GetFixed64(stored, &pos, &timeout_at)) {
      return Status::Internal("corrupt group state");
    }
    SS_ASSIGN_OR_RETURN(Row row, DecodeRow(stored, &pos));
    return std::make_pair(std::optional<Row>(std::move(row)),
                          static_cast<int64_t>(timeout_at));
  };

  // Each group's state is read and written back through one Touch of its
  // shard; the update function cannot reach the store in between.
  auto invoke = [&](const std::string& enc, const Row& key,
                    const std::vector<Row>& values,
                    bool timed_out) -> Status {
    StateStore* shard = store->shard(store->ShardOf(enc));
    const StateRef ref = shard->Touch(enc);
    SS_ASSIGN_OR_RETURN(auto loaded, load_state(shard, ref));
    GroupState state(std::move(loaded.first), watermark, now, timed_out);
    if (!timed_out) {
      // A pre-armed timeout stays armed unless the function re-arms it.
      state.SetTimeoutTimestamp(loaded.second);
    }
    SS_ASSIGN_OR_RETURN(std::vector<Row> results,
                        update_fn_(key, values, &state));
    if (require_single_output_ && results.size() != 1) {
      return Status::InvalidArgument(
          "mapGroupsWithState update function must return exactly one row, "
          "got " + std::to_string(results.size()));
    }
    for (Row& r : results) {
      if (static_cast<int>(r.size()) != schema_->num_fields()) {
        return Status::InvalidArgument(
            "mapGroupsWithState output row arity mismatch");
      }
      out_rows.push_back(std::move(r));
    }
    if (!state.exists() || (timed_out && !state.updated())) {
      // Removed state goes, and so does the entry Touch created for a group
      // that never had state. Timed-out state that the function did not
      // refresh is dropped too (matching Spark: a timeout without update
      // removes nothing automatically, but keeping it would re-fire forever;
      // Spark requires the function to update or remove — we default to
      // remove).
      shard->Remove(enc);
    } else {
      std::string buf;
      int64_t timeout_at =
          timeout_ == GroupStateTimeout::kNone ? INT64_MAX
                                               : state.timeout_at_micros();
      PutFixed64(&buf, static_cast<uint64_t>(timeout_at));
      EncodeRow(state.get(), &buf);
      shard->Set(ref, buf);
    }
    return Status::OK();
  };

  for (const auto& [enc, group] : groups) {
    SS_RETURN_IF_ERROR(invoke(enc, group.first, group.second, false));
  }

  // Timeout sweep: keys not updated this trigger whose deadline passed
  // (processing time vs. watermark, §4.3.2).
  if (timeout_ != GroupStateTimeout::kNone && !ctx->is_batch) {
    const int64_t deadline_clock =
        timeout_ == GroupStateTimeout::kProcessingTime ? now : watermark;
    std::vector<std::pair<std::string, Row>> timed_out_keys;
    Status iter_status;
    store->ForEach([&](const std::string& enc, const std::string& v) {
      if (groups.count(enc)) return;
      size_t pos = 0;
      uint64_t timeout_at;
      if (!GetFixed64(v, &pos, &timeout_at)) {
        iter_status = Status::Internal("corrupt group state");
        return;
      }
      if (deadline_clock != INT64_MIN &&
          static_cast<int64_t>(timeout_at) <= deadline_clock) {
        auto key = DecodeRow(enc);
        if (!key.ok()) {
          iter_status = key.status();
          return;
        }
        timed_out_keys.emplace_back(enc, std::move(*key));
      }
    });
    SS_RETURN_IF_ERROR(iter_status);
    for (const auto& [enc, key] : timed_out_keys) {
      SS_RETURN_IF_ERROR(invoke(enc, key, {}, true));
    }
  }
  return RecordBatch::FromRows(schema_, out_rows);
}

}  // namespace sstreaming
