#include "bus/message_bus.h"

#include <algorithm>

namespace sstreaming {

namespace {

std::string Where(const std::string& topic, int partition, int64_t offset) {
  return "topic '" + topic + "' partition " + std::to_string(partition) +
         " offset " + std::to_string(offset);
}

Status CheckStart(const std::string& topic, int partition, int64_t start,
                  int64_t log_end) {
  if (start < 0 || start > log_end) {
    return Status::OutOfRange(Where(topic, partition, start) +
                              ": start offset outside log [0, " +
                              std::to_string(log_end) + "]");
  }
  return Status::OK();
}

// Transposes rows into one column per field, each typed by the field's first
// non-null value (all-null fields get a null column). A record whose arity
// or field type disagrees with the earlier ones is an InvalidArgument, with
// its index in *bad.
Status ColumnsFromRows(const std::vector<Row>& rows,
                       std::vector<ColumnPtr>* out, int64_t* bad) {
  out->clear();
  if (rows.empty()) return Status::OK();
  const size_t arity = rows[0].size();
  std::vector<TypeId> types(arity, TypeId::kNull);
  size_t untyped = arity;
  for (size_t i = 0; i < rows.size() && untyped > 0; ++i) {
    if (rows[i].size() != arity) break;  // reported below
    for (size_t f = 0; f < arity; ++f) {
      if (types[f] == TypeId::kNull && !rows[i][f].is_null()) {
        types[f] = rows[i][f].type();
        --untyped;
      }
    }
  }
  for (TypeId type : types) {
    out->push_back(Column::Make(type));
    out->back()->Reserve(static_cast<int64_t>(rows.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    *bad = static_cast<int64_t>(i);
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "record has " + std::to_string(row.size()) +
          " fields, the batch's first record has " + std::to_string(arity));
    }
    for (size_t f = 0; f < arity; ++f) {
      const Value& v = row[f];
      if (!v.is_null() && v.type() != types[f]) {
        return Status::InvalidArgument(
            "field " + std::to_string(f) + " holds " + TypeName(v.type()) +
            ", earlier records of the batch hold " + TypeName(types[f]));
      }
      (*out)[f]->AppendValue(v);
    }
  }
  return Status::OK();
}

// Whether every value of a stored column of type `from` can be read through
// a field of type `to` value by value (Column::AppendValue's coercions).
bool Coercible(TypeId from, TypeId to) {
  return from == TypeId::kNull || to == TypeId::kNull ||
         (to == TypeId::kFloat64 && IsNumeric(from));
}

// Appends src[start, start+n) to dst: a bulk copy when the physical types
// agree, else value by value. Returns the index in src of the first value
// dst's type cannot hold (nothing after it is appended), or -1.
int64_t CopyRange(const Column& src, int64_t start, int64_t n, Column* dst) {
  if (PhysicalKindOf(src.type()) == PhysicalKindOf(dst->type())) {
    dst->AppendRange(src, start, n);
    return -1;
  }
  const bool coercible = Coercible(src.type(), dst->type());
  for (int64_t i = start; i < start + n; ++i) {
    if (!coercible && !src.IsNull(i)) return i;
    dst->AppendValue(src.ValueAt(i));
  }
  return -1;
}

// Calls fn(segment, first, count) for the rows [first, first+count) of each
// segment that overlaps [start, end), in offset order; stops at an error.
template <typename Segments, typename Fn>
Status ForEachSlice(const Segments& segments, int64_t start, int64_t end,
                    Fn fn) {
  if (start >= end) return Status::OK();
  auto seg = std::upper_bound(
      segments.begin(), segments.end(), start,
      [](int64_t offset, const auto& s) { return offset < s.base; });
  if (seg != segments.begin()) --seg;
  for (; seg != segments.end() && seg->base < end; ++seg) {
    const int64_t first = std::max(start, seg->base) - seg->base;
    const int64_t last = std::min(end, seg->end()) - seg->base;
    if (last > first) SS_RETURN_IF_ERROR(fn(*seg, first, last - first));
  }
  return Status::OK();
}

}  // namespace

Status MessageBus::CreateTopic(const std::string& topic, int num_partitions) {
  if (num_partitions < 1) {
    return Status::InvalidArgument("topic needs >= 1 partition");
  }
  std::lock_guard<std::mutex> lock(topics_mu_);
  if (topics_.find(topic) != topics_.end()) {
    return Status::AlreadyExists("topic " + topic + " already exists");
  }
  Topic& t = topics_[topic];
  t.partitions.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    t.partitions.push_back(std::make_unique<Partition>());
  }
  return Status::OK();
}

bool MessageBus::HasTopic(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  return topics_.find(topic) != topics_.end();
}

Result<const MessageBus::Topic*> MessageBus::FindTopic(
    const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::NotFound("unknown topic " + topic);
  }
  // Topics are never removed, so the pointer stays valid after unlocking.
  return const_cast<const Topic*>(&it->second);
}

Result<MessageBus::Partition*> MessageBus::FindPartition(
    const std::string& topic, int partition) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  if (partition < 0 || partition >= static_cast<int>(t->partitions.size())) {
    return Status::OutOfRange("topic '" + topic + "' has no partition " +
                              std::to_string(partition));
  }
  return t->partitions[static_cast<size_t>(partition)].get();
}

Result<int> MessageBus::NumPartitions(const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  return static_cast<int>(t->partitions.size());
}

int64_t MessageBus::Link(Partition* p, Segment segment) {
  segment.ingest = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t base = p->end();
  segment.base = base;
  if (segment.rows > 0) p->segments.push_back(std::move(segment));
  return base;
}

Result<int64_t> MessageBus::Append(const std::string& topic, int partition,
                                   Row row) {
  SS_ASSIGN_OR_RETURN(Partition* p, FindPartition(topic, partition));
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t offset = p->end();
  auto fits = [&row](const Segment& tail) {
    if (tail.stamps.empty() || tail.columns.size() != row.size()) return false;
    for (size_t f = 0; f < row.size(); ++f) {
      if (!row[f].is_null() && row[f].type() != tail.columns[f]->type()) {
        return false;
      }
    }
    return true;
  };
  if (p->segments.empty() || !fits(p->segments.back())) {
    Segment open;
    open.base = offset;
    for (const Value& v : row) open.columns.push_back(Column::Make(v.type()));
    p->segments.push_back(std::move(open));
  }
  Segment& tail = p->segments.back();
  for (size_t f = 0; f < row.size(); ++f) tail.columns[f]->AppendValue(row[f]);
  tail.stamps.push_back(now);
  ++tail.rows;
  return offset;
}

Result<int64_t> MessageBus::AppendBatch(const std::string& topic,
                                        int partition,
                                        std::vector<Row> rows) {
  SS_ASSIGN_OR_RETURN(Partition* p, FindPartition(topic, partition));
  Segment segment;
  segment.rows = static_cast<int64_t>(rows.size());
  int64_t bad = 0;
  Status built = ColumnsFromRows(rows, &segment.columns, &bad);
  if (!built.ok()) {
    std::lock_guard<std::mutex> lock(p->mu);
    return Status::InvalidArgument(Where(topic, partition, p->end() + bad) +
                                   ": " + built.message());
  }
  return Link(p, std::move(segment));
}

Result<int64_t> MessageBus::AppendColumns(const std::string& topic,
                                          int partition,
                                          const RecordBatchPtr& batch) {
  SS_ASSIGN_OR_RETURN(Partition* p, FindPartition(topic, partition));
  Segment segment;
  segment.rows = batch->num_rows();
  segment.columns = RecordBatch::Materialize(batch)->columns();
  return Link(p, std::move(segment));
}

Result<std::vector<Row>> MessageBus::Read(const std::string& topic,
                                          int partition, int64_t start,
                                          int64_t end) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  SS_RETURN_IF_ERROR(CheckStart(topic, partition, start, p->end()));
  end = std::min(end, p->end());
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(std::max<int64_t>(0, end - start)));
  SS_RETURN_IF_ERROR(ForEachSlice(
      p->segments, start, end,
      [&out](const Segment& s, int64_t first, int64_t n) {
        for (int64_t i = first; i < first + n; ++i) {
          Row row;
          row.reserve(s.columns.size());
          for (const ColumnPtr& c : s.columns) row.push_back(c->ValueAt(i));
          out.push_back(std::move(row));
        }
        return Status::OK();
      }));
  return out;
}

Result<RecordBatchPtr> MessageBus::ReadBatch(
    const std::string& topic, int partition, int64_t start, int64_t end,
    const SchemaPtr& schema, const std::vector<int>* projection) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  SS_RETURN_IF_ERROR(CheckStart(topic, partition, start, p->end()));
  end = std::min(end, p->end());
  const int num_fields = schema->num_fields();
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(num_fields));
  for (const Field& f : schema->fields()) {
    ColumnPtr col = Column::Make(f.type);
    col->Reserve(std::max<int64_t>(0, end - start));
    columns.push_back(std::move(col));
  }
  SS_RETURN_IF_ERROR(ForEachSlice(
      p->segments, start, end,
      [&](const Segment& s, int64_t first, int64_t n) -> Status {
        for (int c = 0; c < num_fields; ++c) {
          const size_t src =
              projection == nullptr
                  ? static_cast<size_t>(c)
                  : static_cast<size_t>((*projection)[static_cast<size_t>(c)]);
          if (src >= s.columns.size()) {
            return Status::InvalidArgument(
                Where(topic, partition, s.base + first) + ": record has " +
                std::to_string(s.columns.size()) +
                " fields, schema reads field " + std::to_string(src));
          }
          const Column& stored = *s.columns[src];
          int64_t bad = CopyRange(stored, first, n,
                                  columns[static_cast<size_t>(c)].get());
          if (bad >= 0) {
            const Field& field = schema->field(c);
            return Status::InvalidArgument(
                Where(topic, partition, s.base + bad) + ": field " +
                std::to_string(src) + " holds " + TypeName(stored.type()) +
                ", schema declares '" + field.name + "' " +
                TypeName(field.type));
          }
        }
        return Status::OK();
      }));
  return RecordBatch::Make(schema, std::move(columns));
}

Result<int64_t> MessageBus::OldestIngestMicros(const std::string& topic,
                                               int partition, int64_t start,
                                               int64_t end) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  // Undated records (stamp 0) don't pull the minimum to zero.
  int64_t oldest = 0;
  auto take = [&oldest](int64_t stamp) {
    if (stamp > 0 && (oldest == 0 || stamp < oldest)) oldest = stamp;
  };
  SS_RETURN_IF_ERROR(ForEachSlice(
      p->segments, std::max<int64_t>(0, start), end,
      [&take](const Segment& s, int64_t first, int64_t n) {
        if (s.stamps.empty()) {
          take(s.ingest);
        } else {
          for (int64_t i = first; i < first + n; ++i) {
            take(s.stamps[static_cast<size_t>(i)]);
          }
        }
        return Status::OK();
      }));
  return oldest;
}

Result<int64_t> MessageBus::EndOffset(const std::string& topic,
                                      int partition) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  return p->end();
}

Result<std::vector<int64_t>> MessageBus::EndOffsets(
    const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  std::vector<int64_t> out;
  out.reserve(t->partitions.size());
  for (const auto& p : t->partitions) {
    std::lock_guard<std::mutex> lock(p->mu);
    out.push_back(p->end());
  }
  return out;
}

Result<int64_t> MessageBus::TotalRecords(const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> ends, EndOffsets(topic));
  int64_t total = 0;
  for (int64_t e : ends) total += e;
  return total;
}

}  // namespace sstreaming
