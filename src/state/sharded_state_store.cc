#include "state/sharded_state_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "analysis/diagnostics.h"
#include "common/logging.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

constexpr char kShardCountFile[] = "SHARDS";

std::string ShardDir(const std::string& dir, int shard) {
  return dir + "/s" + std::to_string(shard);
}

/// Shard subdirectories present under `dir`, as shard indices, sorted.
std::vector<int> ListShardDirs(const std::string& dir) {
  std::vector<int> shards;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() < 2 || name[0] != 's') continue;
    char* end = nullptr;
    long v = std::strtol(name.c_str() + 1, &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) continue;
    shards.push_back(static_cast<int>(v));
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

/// The SHARDS file's count: decimal digits with an optional trailing
/// newline, else 0 (corrupt).
int ParseShardCount(const std::string& meta) {
  std::string_view digits(meta);
  if (!digits.empty() && digits.back() == '\n') digits.remove_suffix(1);
  if (digits.empty() || digits.size() > 9) return 0;
  int count = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    count = count * 10 + (c - '0');
  }
  return count;
}

/// True when `dir` holds StateStore version files directly — the flat
/// layout of a checkpoint written before keyed state was sharded.
Result<bool> HasFlatVersionFiles(const std::string& dir) {
  SS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  for (const std::string& name : names) {
    if (name.ends_with(".snapshot") || name.ends_with(".delta")) return true;
  }
  return false;
}

}  // namespace

uint64_t ShardedStateStore::StableHashKey(const std::string& key) {
  // FNV-1a, 64-bit: stable across platforms and standard libraries, unlike
  // std::hash — routing is part of the durable layout.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::unique_ptr<ShardedStateStore>> ShardedStateStore::Open(
    const std::string& dir, int64_t version, Options options) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  int num_shards = std::max(1, options.num_shards);
  const std::string meta_path = dir + "/" + kShardCountFile;
  if (FileExists(meta_path)) {
    SS_ASSIGN_OR_RETURN(std::string meta, ReadFile(meta_path));
    int on_disk = ParseShardCount(meta);
    if (on_disk < 1) {
      return Status::IOError("corrupt shard-count file: " + meta_path);
    }
    if (on_disk != num_shards) {
      // Pre-recovery, the plan-manifest gate (analysis/checkpoint_compat.h)
      // catches this as SS3004; this store-level check is defense in depth
      // for checkpoints that predate manifests or were opened directly.
      if (!options.allow_shard_count_mismatch) {
        return Status::FailedPrecondition(
            DiagCodeString(DiagCode::kCheckpointShardCountChanged) +
            ": state at " + dir + " was created with " +
            std::to_string(on_disk) + " shards but " +
            std::to_string(num_shards) +
            " were requested; resharding is not supported (set "
            "allow_checkpoint_incompatibility to adopt the on-disk count)");
      }
      SS_LOG(Warn) << "state at " << dir << " was created with "
                      << on_disk << " shards; ignoring requested "
                      << num_shards << " (resharding is not supported)";
    }
    num_shards = on_disk;
  } else {
    // Version files without SHARDS are a pre-sharding checkpoint: its keys
    // are not routed hash % N, so opening it as an empty shard group would
    // silently drop its state. Refuse it and write nothing.
    SS_ASSIGN_OR_RETURN(bool flat, HasFlatVersionFiles(dir));
    if (flat) {
      return Status::FailedPrecondition(
          DiagCodeString(DiagCode::kCheckpointShardCountChanged) +
          ": state at " + dir +
          " has the flat (pre-sharding) layout, with version files but no " +
          kShardCountFile + " file; it cannot be opened as " +
          std::to_string(num_shards) +
          " shards (start from a fresh checkpoint)");
    }
    SS_RETURN_IF_ERROR(WriteFileAtomic(meta_path,
                                       std::to_string(num_shards) + "\n"));
  }
  std::vector<std::unique_ptr<StateStore>> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    SS_FAILPOINT("state.shard.restore");
    SS_ASSIGN_OR_RETURN(std::unique_ptr<StateStore> shard,
                        StateStore::Open(ShardDir(dir, s), version,
                                         options.shard_options));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedStateStore>(
      new ShardedStateStore(std::move(shards)));
}

void ShardedStateStore::ForEach(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (const auto& shard : shards_) shard->ForEach(fn);
}

int64_t ShardedStateStore::loaded_version() const {
  int64_t min_version = INT64_MAX;
  for (const auto& shard : shards_) {
    min_version = std::min(min_version, shard->loaded_version());
  }
  return shards_.empty() ? 0 : min_version;
}

Status ShardedStateStore::Commit(int64_t version) {
  // Shard errors propagate unchanged: wrapping would strip the failpoint
  // marker crash-injection tests use to recognize injected faults. A commit
  // that fails midway leaves earlier shards checkpointed at `version` —
  // safe, because recovery restores from the WAL-committed epoch and newer
  // shard files are ignored (then overwritten on replay).
  for (const auto& shard : shards_) {
    SS_FAILPOINT("state.shard.checkpoint");
    SS_RETURN_IF_ERROR(shard->Commit(version));
  }
  return Status::OK();
}

Status ShardedStateStore::Append(int s, const std::string& key,
                                 const std::string& tail) {
  SS_FAILPOINT("state.shard.append");
  shards_[static_cast<size_t>(s)]->Append(key, tail);
  return Status::OK();
}

int64_t ShardedStateStore::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

int64_t ShardedStateStore::ApproxBytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->ApproxBytes();
  return total;
}

int64_t ShardedStateStore::bytes_written() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->bytes_written();
  return total;
}

std::vector<ShardedStateStore::ShardSize> ShardedStateStore::PerShardSizes()
    const {
  std::vector<ShardSize> sizes(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    sizes[s].rows = shards_[s]->size();
    sizes[s].bytes = shards_[s]->ApproxBytes();
  }
  return sizes;
}

Status ShardedStateStore::TruncateAfter(const std::string& dir,
                                        int64_t version) {
  for (int s : ListShardDirs(dir)) {
    SS_RETURN_IF_ERROR(StateStore::TruncateAfter(ShardDir(dir, s), version));
  }
  return Status::OK();
}

Status ShardedStateStore::PurgeBefore(const std::string& dir, int64_t keep) {
  for (int s : ListShardDirs(dir)) {
    SS_RETURN_IF_ERROR(StateStore::PurgeBefore(ShardDir(dir, s), keep));
  }
  return Status::OK();
}

}  // namespace sstreaming
