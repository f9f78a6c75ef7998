#ifndef SSTREAMING_STATE_STATE_STORE_H_
#define SSTREAMING_STATE_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sstreaming {

/// Handle to one entry of a StateStore, returned by StateStore::Touch. It
/// stays valid until the next Remove on the same store, which moves the
/// newest entry into the removed entry's place.
struct StateRef {
  uint32_t index = 0;
  /// True when the key had no entry before this Touch.
  bool created = false;
};

/// A versioned key-value store holding one stateful operator's state for one
/// partition (paper §6.1). The working copy is a flat table: a dense entry
/// array in insertion order plus an open-addressed slot index over it.
/// Commit(version) durably records the changes made since the previous
/// commit as an incremental delta file, written from the live entries the
/// epoch touched, and writes a full snapshot every `snapshot_interval`
/// commits so recovery replays a bounded number of deltas. Checkpoints are
/// epoch-tagged: Open(dir, v) reconstructs the newest durable version <= v,
/// and reports which version it actually loaded so the engine can replay the
/// missing epochs from the write-ahead log (checkpoints may legally lag the
/// sink, §3 "written asynchronously ... may be behind").
///
/// Layout under `dir`:
///   <version>.snapshot  - full contents at `version`
///   <version>.delta     - changes from the previous committed version
class StateStore {
 public:
  struct Options {
    Options() {}
    /// Write a full snapshot every N commits (1 = always snapshot).
    int snapshot_interval = 10;
  };

  /// Opens the store and restores the newest durable version <= `version`.
  /// `version` 0 (or a directory with no checkpoints) yields an empty store.
  static Result<std::unique_ptr<StateStore>> Open(const std::string& dir,
                                                  int64_t version,
                                                  Options options = Options());

  /// The version actually restored (<= the requested version).
  int64_t loaded_version() const { return loaded_version_; }

  /// Find-or-create, the read-modify-write verb: one probe finds `key`'s
  /// entry, or creates an empty one (`created` set). A created entry is a
  /// write — it is live and the next commit records it — so a caller that
  /// decides not to keep it calls Remove. Read it with Value and write it
  /// back with Set; neither probes again.
  StateRef Touch(std::string_view key);
  const std::string& Value(StateRef ref) const {
    return entries_[ref.index].value;
  }
  void Set(StateRef ref, std::string_view value);

  std::optional<std::string> Get(const std::string& key) const;
  void Put(const std::string& key, std::string value);
  /// Appends `tail` to the value under `key` (creating the entry when
  /// absent) in place, without copying the existing value. The next commit
  /// records the full appended value, so durability is unchanged; the win
  /// is the in-memory path for grow-only values (e.g. join side state).
  void Append(const std::string& key, const std::string& tail);
  void Remove(const std::string& key);
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

  /// Approximate in-memory footprint of the working copy: key and value
  /// payloads plus a fixed per-entry overhead. Maintained incrementally on
  /// every write (O(1) per call), so the epoch loop can publish state-size
  /// gauges without walking the table.
  int64_t ApproxBytes() const { return approx_bytes_; }

  /// Visits every live entry in insertion order, except that a Remove moves
  /// the newest entry into the removed entry's position — deterministic for
  /// a given sequence of writes, whatever the table's size history. Do not
  /// mutate during iteration; collect keys first when evicting.
  void ForEach(const std::function<void(const std::string& key,
                                        const std::string& value)>& fn) const;

  /// Durably commits all changes since the last commit as `version`.
  /// Versions must be strictly increasing across commits.
  Status Commit(int64_t version);

  /// Removes durable versions > `version` (manual rollback support).
  static Status TruncateAfter(const std::string& dir, int64_t version);

  /// Removes durable files no longer needed to restore versions >= `keep`.
  static Status PurgeBefore(const std::string& dir, int64_t keep);

  /// The in-memory table's 32-bit key hash; its low bits pick the home
  /// slot. Not part of the durable format (shard routing uses
  /// ShardedStateStore::StableHashKey). Public so tests can build probe
  /// collisions.
  static uint32_t HashKey(std::string_view key);

  /// Total bytes written to durable storage by this instance (metric).
  int64_t bytes_written() const { return bytes_written_; }
  /// Number of delta (vs snapshot) commits (metric).
  int64_t delta_commits() const { return delta_commits_; }
  int64_t snapshot_commits() const { return snapshot_commits_; }

 private:
  /// One key's state. `dirty_pos` is the entry's position in `dirty_` while
  /// it has uncommitted writes; `durable` says the key is in the last
  /// committed version, so removing it must be recorded.
  struct Entry {
    std::string key;
    std::string value;
    uint32_t hash = 0;
    uint32_t dirty_pos = kClean;
    bool durable = false;
  };
  /// Open-addressed index slot: the key's 32-bit hash (its low bits are the
  /// home position, the rest filter probes without touching the entry) and
  /// the entry's index, kEmpty when the slot is free.
  struct Slot {
    uint32_t hash = 0;
    uint32_t index = kEmpty;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr uint32_t kClean = UINT32_MAX;
  /// A removed entry's `dirty_` record.
  static constexpr uint32_t kRemoved = UINT32_MAX;

  StateStore(std::string dir, Options options)
      : dir_(std::move(dir)), options_(options) {}

  Status LoadUpTo(int64_t version);
  /// Replays one snapshot or delta file into the table as committed state.
  Status ApplyLog(std::string_view data);

  size_t mask() const { return slots_.size() - 1; }
  /// Slot position holding `key`, or npos.
  size_t FindSlot(std::string_view key, uint32_t hash) const;
  /// Entry index of `key`, inserting an empty clean entry when absent.
  StateRef FindOrInsert(std::string_view key);
  /// Grows the slot index to hold `entries` entries (never shrinks),
  /// reindexing every entry from its stored hash.
  void Reserve(size_t entries);
  /// Replaces the value of entry `i`, keeping the byte accounting.
  void Assign(uint32_t i, std::string_view value);
  void MarkDirty(uint32_t i);
  /// Deletes the entry indexed at slot `pos`: backward-shift deletion in the
  /// index, and the newest entry moves into the freed array position.
  void EraseAt(size_t pos);

  /// Accounting charge per entry beyond the payload (entry record, index
  /// slots). A rough constant — the gauges are approximations.
  static constexpr int64_t kEntryOverheadBytes = 64;

  std::string dir_;
  Options options_;
  int64_t loaded_version_ = 0;
  int64_t approx_bytes_ = 0;
  int64_t last_commit_version_ = 0;
  int commits_since_snapshot_ = 0;
  int64_t bytes_written_ = 0;
  int64_t delta_commits_ = 0;
  int64_t snapshot_commits_ = 0;

  std::vector<Entry> entries_;
  std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
  /// Uncommitted changes, written from the live table at Commit: entries
  /// written since the last commit in first-write order (kRemoved once
  /// removed again), and committed keys removed since.
  std::vector<uint32_t> dirty_;
  std::vector<std::string> removed_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_STATE_STATE_STORE_H_
