#include "state/state_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

constexpr char kOpPut = 1;
constexpr char kOpRemove = 2;
/// A record's fixed header: the op byte and the fixed64 key length.
constexpr size_t kHeaderBytes = 9;
/// A put's framing: the header plus the fixed64 value length.
constexpr size_t kPutFramingBytes = kHeaderBytes + 8;

/// Reads a fixed64 at `*pos`, advancing it; false when `data` is too short.
bool GetFixed64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

/// Reads a length-prefixed byte string at `*pos` as a view into `data`.
bool GetBytes(std::string_view data, size_t* pos, std::string_view* out) {
  uint64_t len;
  if (!GetFixed64(data, pos, &len) || len > data.size() - *pos) return false;
  *out = data.substr(*pos, len);
  *pos += len;
  return true;
}

/// Appends one log record's header and key; the header goes out in one
/// append.
void AppendRecord(std::string* out, char op, const std::string& key) {
  char header[kHeaderBytes];
  header[0] = op;
  const uint64_t klen = key.size();
  std::memcpy(header + 1, &klen, 8);
  out->append(header, sizeof(header));
  out->append(key);
}

void AppendPut(std::string* out, const std::string& key,
               const std::string& value) {
  AppendRecord(out, kOpPut, key);
  const uint64_t vlen = value.size();
  char buf[8];
  std::memcpy(buf, &vlen, 8);
  out->append(buf, 8);
  out->append(value);
}

/// Parses the record at `*pos` into views of `data`, advancing `*pos`;
/// false on a framing error. `value` is set for puts only.
bool NextRecord(std::string_view data, size_t* pos, char* op,
                std::string_view* key, std::string_view* value) {
  *op = data[(*pos)++];
  if (!GetBytes(data, pos, key)) return false;
  if (*op == kOpPut) return GetBytes(data, pos, value);
  return *op == kOpRemove;
}

struct VersionFile {
  int64_t version;
  bool is_snapshot;
};

Result<std::vector<VersionFile>> ListVersionFiles(const std::string& dir) {
  SS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  std::vector<VersionFile> files;
  for (const std::string& name : names) {
    bool snapshot = name.size() > 9 &&
                    name.compare(name.size() - 9, 9, ".snapshot") == 0;
    bool delta =
        name.size() > 6 && name.compare(name.size() - 6, 6, ".delta") == 0;
    if (!snapshot && !delta) continue;
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(name.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '.') continue;
    files.push_back(VersionFile{static_cast<int64_t>(v), snapshot});
  }
  std::sort(files.begin(), files.end(),
            [](const VersionFile& a, const VersionFile& b) {
              if (a.version != b.version) return a.version < b.version;
              return a.is_snapshot < b.is_snapshot;
            });
  return files;
}

std::string VersionPath(const std::string& dir, int64_t version,
                        bool snapshot) {
  return dir + "/" + std::to_string(version) +
         (snapshot ? ".snapshot" : ".delta");
}

}  // namespace

Result<std::unique_ptr<StateStore>> StateStore::Open(const std::string& dir,
                                                     int64_t version,
                                                     Options options) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<StateStore> store(new StateStore(dir, options));
  if (version > 0) SS_RETURN_IF_ERROR(store->LoadUpTo(version));
  store->last_commit_version_ = store->loaded_version_;
  return store;
}

Status StateStore::LoadUpTo(int64_t version) {
  SS_FAILPOINT("state.load");
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir_));
  // Newest snapshot at or below `version`.
  int64_t base = 0;
  for (const VersionFile& f : files) {
    if (f.is_snapshot && f.version <= version) base = f.version;
  }
  if (base > 0) {
    SS_ASSIGN_OR_RETURN(std::string data,
                        ReadFile(VersionPath(dir_, base, true)));
    SS_RETURN_IF_ERROR(ApplyLog(data));
    loaded_version_ = base;
  }
  // Apply deltas in (base, version] in order.
  for (const VersionFile& f : files) {
    if (f.is_snapshot || f.version <= base || f.version > version) continue;
    SS_ASSIGN_OR_RETURN(std::string data,
                        ReadFile(VersionPath(dir_, f.version, false)));
    SS_RETURN_IF_ERROR(ApplyLog(data));
    loaded_version_ = f.version;
  }
  return Status::OK();
}

Status StateStore::ApplyLog(std::string_view data) {
  // Pass 1 checks the framing and counts the puts, so a corrupt file
  // changes nothing and a snapshot sizes the empty table exactly once.
  size_t puts = 0;
  for (size_t pos = 0; pos < data.size();) {
    const size_t start = pos;
    char op;
    std::string_view key, value;
    if (!NextRecord(data, &pos, &op, &key, &value)) {
      return Status::IOError("corrupt state file: bad record at byte " +
                             std::to_string(start));
    }
    if (op == kOpPut) ++puts;
  }
  if (entries_.empty()) {
    Reserve(puts);
    entries_.reserve(puts);
  }
  for (size_t pos = 0; pos < data.size();) {
    char op;
    std::string_view key, value;
    NextRecord(data, &pos, &op, &key, &value);
    if (op == kOpPut) {
      const uint32_t i = FindOrInsert(key).index;
      Assign(i, value);
      entries_[i].durable = true;
    } else {
      const size_t slot = FindSlot(key, HashKey(key));
      if (slot != std::string::npos) EraseAt(slot);
    }
  }
  return Status::OK();
}

uint32_t StateStore::HashKey(std::string_view key) {
  const uint64_t h = std::hash<std::string_view>()(key);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t StateStore::FindSlot(std::string_view key, uint32_t hash) const {
  if (slots_.empty()) return std::string::npos;
  for (size_t pos = hash & mask();; pos = (pos + 1) & mask()) {
    const Slot& slot = slots_[pos];
    if (slot.index == kEmpty) return std::string::npos;
    if (slot.hash == hash && entries_[slot.index].key == key) return pos;
  }
}

StateRef StateStore::FindOrInsert(std::string_view key) {
  const uint32_t hash = HashKey(key);
  if (entries_.size() >= slots_.size() / 4 * 3) Reserve(entries_.size() + 1);
  size_t pos = hash & mask();
  for (;; pos = (pos + 1) & mask()) {
    const Slot& slot = slots_[pos];
    if (slot.index == kEmpty) break;
    if (slot.hash == hash && entries_[slot.index].key == key) {
      return StateRef{slot.index, false};
    }
  }
  const auto index = static_cast<uint32_t>(entries_.size());
  slots_[pos] = Slot{hash, index};
  Entry& entry = entries_.emplace_back();
  entry.key.assign(key);
  entry.hash = hash;
  approx_bytes_ += static_cast<int64_t>(key.size()) + kEntryOverheadBytes;
  return StateRef{index, true};
}

void StateStore::Reserve(size_t entries) {
  // At most 3/4 full keeps linear-probing clusters short.
  size_t capacity = std::max<size_t>(slots_.size(), 16);
  while (entries > capacity / 4 * 3) capacity *= 2;
  if (capacity == slots_.size()) return;
  SS_CHECK(capacity - 1 <= kEmpty) << "state table too large";
  slots_.assign(capacity, Slot{});
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t pos = entries_[i].hash & mask();
    while (slots_[pos].index != kEmpty) pos = (pos + 1) & mask();
    slots_[pos] = Slot{entries_[i].hash, static_cast<uint32_t>(i)};
  }
}

void StateStore::Assign(uint32_t i, std::string_view value) {
  std::string& stored = entries_[i].value;
  approx_bytes_ += static_cast<int64_t>(value.size()) -
                   static_cast<int64_t>(stored.size());
  stored.assign(value);
}

void StateStore::MarkDirty(uint32_t i) {
  Entry& entry = entries_[i];
  if (entry.dirty_pos != kClean) return;
  entry.dirty_pos = static_cast<uint32_t>(dirty_.size());
  dirty_.push_back(i);
}

void StateStore::EraseAt(size_t pos) {
  const uint32_t i = slots_[pos].index;
  approx_bytes_ -= static_cast<int64_t>(entries_[i].key.size() +
                                        entries_[i].value.size()) +
                   kEntryOverheadBytes;
  // Backward-shift deletion: pull each later member of the probe cluster
  // into the hole unless that would move it before its home position.
  size_t hole = pos;
  for (size_t next = (pos + 1) & mask(); slots_[next].index != kEmpty;
       next = (next + 1) & mask()) {
    const size_t home = slots_[next].hash & mask();
    if (((next - home) & mask()) >= ((next - hole) & mask())) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].index = kEmpty;

  const auto last = static_cast<uint32_t>(entries_.size() - 1);
  if (i != last) {
    // Re-point the newest entry's slot, then move the entry into the gap.
    size_t p = entries_[last].hash & mask();
    while (slots_[p].index != last) p = (p + 1) & mask();
    slots_[p].index = i;
    entries_[i] = std::move(entries_[last]);
    if (entries_[i].dirty_pos != kClean) dirty_[entries_[i].dirty_pos] = i;
  }
  entries_.pop_back();
}

StateRef StateStore::Touch(std::string_view key) {
  const StateRef ref = FindOrInsert(key);
  if (ref.created) MarkDirty(ref.index);
  return ref;
}

void StateStore::Set(StateRef ref, std::string_view value) {
  Assign(ref.index, value);
  MarkDirty(ref.index);
}

std::optional<std::string> StateStore::Get(const std::string& key) const {
  const size_t pos = FindSlot(key, HashKey(key));
  if (pos == std::string::npos) return std::nullopt;
  return entries_[slots_[pos].index].value;
}

void StateStore::Put(const std::string& key, std::string value) {
  const uint32_t i = FindOrInsert(key).index;
  std::string& stored = entries_[i].value;
  approx_bytes_ += static_cast<int64_t>(value.size()) -
                   static_cast<int64_t>(stored.size());
  stored = std::move(value);
  MarkDirty(i);
}

void StateStore::Append(const std::string& key, const std::string& tail) {
  const uint32_t i = FindOrInsert(key).index;
  entries_[i].value.append(tail);
  approx_bytes_ += static_cast<int64_t>(tail.size());
  MarkDirty(i);
}

void StateStore::Remove(const std::string& key) {
  const size_t pos = FindSlot(key, HashKey(key));
  if (pos == std::string::npos) return;
  const Entry& entry = entries_[slots_[pos].index];
  if (entry.dirty_pos != kClean) dirty_[entry.dirty_pos] = kRemoved;
  // A key the last commit never saw needs no removal record.
  if (entry.durable) removed_.push_back(key);
  EraseAt(pos);
}

void StateStore::ForEach(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (const Entry& entry : entries_) fn(entry.key, entry.value);
}

Status StateStore::Commit(int64_t version) {
  if (version <= last_commit_version_) {
    return Status::InvalidArgument(
        "state commit versions must increase: " + std::to_string(version) +
        " <= " + std::to_string(last_commit_version_));
  }
  const bool snapshot = commits_since_snapshot_ + 1 >=
                            options_.snapshot_interval ||
                        last_commit_version_ == 0;
  SS_FAILPOINT("state.commit.before_write");
  if (snapshot) SS_FAILPOINT("state.snapshot.before_write");
  // Both file kinds are sized up front: a snapshot from the byte
  // accounting (payload plus put framing per entry), a delta by summing
  // its records.
  std::string buf;
  if (snapshot) {
    buf.reserve(static_cast<size_t>(
        approx_bytes_ -
        (kEntryOverheadBytes - static_cast<int64_t>(kPutFramingBytes)) *
            size()));
    for (const Entry& entry : entries_) {
      AppendPut(&buf, entry.key, entry.value);
    }
  } else {
    // Removals first: a committed key removed and then re-created this
    // epoch replays as remove-then-put, so the last write wins.
    size_t bytes = 0;
    for (const std::string& key : removed_) bytes += kHeaderBytes + key.size();
    for (uint32_t i : dirty_) {
      if (i != kRemoved) {
        bytes += kPutFramingBytes + entries_[i].key.size() +
                 entries_[i].value.size();
      }
    }
    buf.reserve(bytes);
    for (const std::string& key : removed_) AppendRecord(&buf, kOpRemove, key);
    for (uint32_t i : dirty_) {
      if (i != kRemoved) AppendPut(&buf, entries_[i].key, entries_[i].value);
    }
  }
  SS_RETURN_IF_ERROR(
      WriteFileAtomic(VersionPath(dir_, version, snapshot), buf));
  // Crash window after the version file is durable but before the store
  // adopts it: recovery must treat the on-disk version as authoritative.
  SS_FAILPOINT("state.commit.after_write");
  if (snapshot) {
    ++snapshot_commits_;
    commits_since_snapshot_ = 0;
  } else {
    ++delta_commits_;
    ++commits_since_snapshot_;
  }
  bytes_written_ += static_cast<int64_t>(buf.size());
  for (uint32_t i : dirty_) {
    if (i == kRemoved) continue;
    entries_[i].dirty_pos = kClean;
    entries_[i].durable = true;
  }
  dirty_.clear();
  removed_.clear();
  last_commit_version_ = version;
  loaded_version_ = version;
  return Status::OK();
}

Status StateStore::TruncateAfter(const std::string& dir, int64_t version) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir));
  for (const VersionFile& f : files) {
    if (f.version > version) {
      SS_RETURN_IF_ERROR(
          RemoveFile(VersionPath(dir, f.version, f.is_snapshot)));
    }
  }
  return Status::OK();
}

Status StateStore::PurgeBefore(const std::string& dir, int64_t keep) {
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir));
  // Keep the newest snapshot <= keep and everything after it.
  int64_t base = 0;
  for (const VersionFile& f : files) {
    if (f.is_snapshot && f.version <= keep) base = f.version;
  }
  for (const VersionFile& f : files) {
    if (f.version < base || (f.version == base && !f.is_snapshot)) {
      SS_RETURN_IF_ERROR(
          RemoveFile(VersionPath(dir, f.version, f.is_snapshot)));
    }
  }
  return Status::OK();
}

}  // namespace sstreaming
