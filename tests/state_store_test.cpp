#include "state/state_store.h"

#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

class StateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_state_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

TEST_F(StateStoreTest, EmptyOpen) {
  auto store = StateStore::Open(dir_, 0);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 0);
  EXPECT_EQ((*store)->loaded_version(), 0);
  EXPECT_FALSE((*store)->Get("k").has_value());
}

TEST_F(StateStoreTest, PutGetRemove) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  store->Put("b", "2");
  EXPECT_EQ(*store->Get("a"), "1");
  EXPECT_TRUE(store->Get("b").has_value());
  store->Remove("a");
  EXPECT_FALSE(store->Get("a").has_value());
  EXPECT_EQ(store->size(), 1);
}

TEST_F(StateStoreTest, CommitAndRecoverExactVersion) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("k1", "v1");
    ASSERT_TRUE(store->Commit(1).ok());
    store->Put("k2", "v2");
    store->Remove("k1");
    ASSERT_TRUE(store->Commit(2).ok());
  }
  auto v1 = StateStore::Open(dir_, 1).TakeValue();
  EXPECT_EQ(v1->loaded_version(), 1);
  EXPECT_EQ(*v1->Get("k1"), "v1");
  EXPECT_FALSE(v1->Get("k2").has_value());

  auto v2 = StateStore::Open(dir_, 2).TakeValue();
  EXPECT_EQ(v2->loaded_version(), 2);
  EXPECT_FALSE(v2->Get("k1").has_value());
  EXPECT_EQ(*v2->Get("k2"), "v2");
}

TEST_F(StateStoreTest, RecoveryLoadsNewestVersionAtOrBelowRequest) {
  // Checkpoints may lag the requested epoch (paper: async checkpoints).
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("k", "v3");
    ASSERT_TRUE(store->Commit(3).ok());
  }
  auto store = StateStore::Open(dir_, 10).TakeValue();
  EXPECT_EQ(store->loaded_version(), 3) << "engine must replay epochs 4..10";
  EXPECT_EQ(*store->Get("k"), "v3");
}

TEST_F(StateStoreTest, DeltaChainAcrossManyCommits) {
  StateStore::Options opts;
  opts.snapshot_interval = 5;
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    for (int64_t v = 1; v <= 17; ++v) {
      store->Put("key" + std::to_string(v), "val" + std::to_string(v));
      if (v % 3 == 0) store->Remove("key" + std::to_string(v - 1));
      ASSERT_TRUE(store->Commit(v).ok());
    }
    EXPECT_GT(store->delta_commits(), 0);
    EXPECT_GT(store->snapshot_commits(), 0);
  }
  // Recover at an intermediate version and at the tip; compare to a model.
  for (int64_t target : {7, 12, 17}) {
    auto store = StateStore::Open(dir_, target, opts).TakeValue();
    EXPECT_EQ(store->loaded_version(), target);
    std::map<std::string, std::string> model;
    for (int64_t v = 1; v <= target; ++v) {
      model["key" + std::to_string(v)] = "val" + std::to_string(v);
      if (v % 3 == 0) model.erase("key" + std::to_string(v - 1));
    }
    EXPECT_EQ(store->size(), static_cast<int64_t>(model.size()))
        << "at version " << target;
    for (const auto& [k, v] : model) {
      ASSERT_TRUE(store->Get(k).has_value()) << k;
      EXPECT_EQ(*store->Get(k), v);
    }
  }
}

TEST_F(StateStoreTest, CommitVersionsMustIncrease) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  ASSERT_TRUE(store->Commit(5).ok());
  EXPECT_FALSE(store->Commit(5).ok());
  EXPECT_FALSE(store->Commit(4).ok());
  EXPECT_TRUE(store->Commit(6).ok());
}

TEST_F(StateStoreTest, ReopenedStoreContinuesCommitting) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("a", "1");
    ASSERT_TRUE(store->Commit(1).ok());
  }
  auto store = StateStore::Open(dir_, 1).TakeValue();
  store->Put("b", "2");
  ASSERT_TRUE(store->Commit(2).ok());
  auto reread = StateStore::Open(dir_, 2).TakeValue();
  EXPECT_EQ(*reread->Get("a"), "1");
  EXPECT_EQ(*reread->Get("b"), "2");
}

TEST_F(StateStoreTest, TruncateAfterSupportsRollback) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    for (int64_t v = 1; v <= 5; ++v) {
      // std::string("v") rather than "v": gcc 12's -Wrestrict false-fires
      // on operator+(const char*, string&&) under -O2 (PR 105329).
      store->Put("k", std::string("v") + std::to_string(v));
      ASSERT_TRUE(store->Commit(v).ok());
    }
  }
  ASSERT_TRUE(StateStore::TruncateAfter(dir_, 2).ok());
  auto store = StateStore::Open(dir_, 5).TakeValue();
  EXPECT_EQ(store->loaded_version(), 2);
  EXPECT_EQ(*store->Get("k"), "v2");
}

TEST_F(StateStoreTest, PurgeBeforeKeepsRecoverability) {
  StateStore::Options opts;
  opts.snapshot_interval = 4;
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    for (int64_t v = 1; v <= 12; ++v) {
      store->Put(std::string("k") + std::to_string(v), "v");
      ASSERT_TRUE(store->Commit(v).ok());
    }
  }
  ASSERT_TRUE(StateStore::PurgeBefore(dir_, 10).ok());
  auto store = StateStore::Open(dir_, 12, opts).TakeValue();
  EXPECT_EQ(store->loaded_version(), 12);
  EXPECT_EQ(store->size(), 12);
}

TEST_F(StateStoreTest, BinaryValuesSurvive) {
  std::string key("\x00\x01key", 5);
  std::string value("\x00\xffval", 5);
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put(key, value);
    ASSERT_TRUE(store->Commit(1).ok());
  }
  auto store = StateStore::Open(dir_, 1).TakeValue();
  ASSERT_TRUE(store->Get(key).has_value());
  EXPECT_EQ(*store->Get(key), value);
}

TEST_F(StateStoreTest, ForEachVisitsAll) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  store->Put("b", "2");
  int count = 0;
  store->ForEach([&](const std::string&, const std::string&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST_F(StateStoreTest, TouchFindsOrCreatesWithOneProbe) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  StateRef ref = store->Touch("k");
  EXPECT_TRUE(ref.created);
  EXPECT_EQ(store->Value(ref), "");
  EXPECT_TRUE(store->Get("k").has_value()) << "a created entry is live";
  store->Set(ref, "v1");
  EXPECT_EQ(*store->Get("k"), "v1");
  ASSERT_TRUE(store->Commit(1).ok());

  ref = store->Touch("k");
  EXPECT_FALSE(ref.created);
  EXPECT_EQ(store->Value(ref), "v1");
  // Reading through a handle is not a write: the delta is empty.
  ASSERT_TRUE(store->Commit(2).ok());
  EXPECT_EQ(ReadFile(dir_ + "/2.delta").TakeValue(), "");

  ref = store->Touch("k");
  store->Set(ref, "v2");
  ASSERT_TRUE(store->Commit(3).ok());
  auto reread = StateStore::Open(dir_, 3).TakeValue();
  EXPECT_EQ(*reread->Get("k"), "v2");
  EXPECT_EQ(reread->ApproxBytes(), store->ApproxBytes());
}

// Appends `v` as a little-endian fixed64.
void AppendFixed64(std::string* out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(static_cast<char>(v >> (8 * b)));
}

// One checkpoint record: the op byte (1 = put, 2 = remove), the key as a
// little-endian fixed64 length plus bytes and, for a put, the value the
// same way. Snapshots and deltas are plain record sequences.
std::string Record(char op, const std::string& key,
                   const std::string& value = "") {
  std::string out(1, op);
  AppendFixed64(&out, key.size());
  out += key;
  if (op == 1) {
    AppendFixed64(&out, value.size());
    out += value;
  }
  return out;
}

TEST_F(StateStoreTest, CheckpointBytesKeepTheirFormat) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("k", "vv");
    ASSERT_TRUE(store->Commit(1).ok());
    EXPECT_EQ(ReadFile(dir_ + "/1.snapshot").TakeValue(),
              Record(1, "k", "vv"));
    store->Put("a", "b");
    store->Remove("k");
    ASSERT_TRUE(store->Commit(2).ok());
    EXPECT_EQ(ReadFile(dir_ + "/2.delta").TakeValue(),
              Record(2, "k") + Record(1, "a", "b"));
  }
  // A file in that format with repeated keys replays in order: the last
  // record per key wins.
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/3.snapshot",
                              Record(1, "x", "1") + Record(1, "y", "2") +
                                  Record(2, "x") + Record(1, "y", "3"))
                  .ok());
  auto store = StateStore::Open(dir_, 3).TakeValue();
  EXPECT_EQ(store->size(), 1);
  EXPECT_FALSE(store->Get("x").has_value());
  EXPECT_EQ(*store->Get("y"), "3");
}

TEST_F(StateStoreTest, CorruptFileIsReportedWithItsOffset) {
  std::string truncated = Record(1, "k", "value");
  truncated.pop_back();
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/1.snapshot",
                              Record(1, "ok", "1") + truncated)
                  .ok());
  auto store = StateStore::Open(dir_, 1);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("byte 20"), std::string::npos)
      << store.status().ToString();
}

TEST_F(StateStoreTest, AppendManyTimesToOneKeyRecordsTheWholeValueOnce) {
  std::string expected = "h";
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("hot", "h");
    ASSERT_TRUE(store->Commit(1).ok());
    for (int i = 0; i < 2000; ++i) {
      std::string tail = std::to_string(i);
      tail.insert(tail.begin(), '|');
      store->Append("hot", tail);
      expected += tail;
    }
    store->Append("new", "n");
    EXPECT_EQ(*store->Get("hot"), expected);
    const int64_t before = store->bytes_written();
    ASSERT_TRUE(store->Commit(2).ok());
    // One put record per key, holding the final value.
    EXPECT_EQ(store->bytes_written() - before,
              static_cast<int64_t>(17 + 3 + expected.size() + 17 + 3 + 1));
  }
  auto store = StateStore::Open(dir_, 2).TakeValue();
  EXPECT_EQ(store->size(), 2);
  EXPECT_EQ(*store->Get("hot"), expected);
  EXPECT_EQ(*store->Get("new"), "n");
}

// Keys whose table hash has home slot `home` in a 16-slot index.
std::vector<std::string> KeysWithHome(size_t home, size_t n) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < n; ++i) {
    std::string key = std::string("c") + std::to_string(i);
    if ((StateStore::HashKey(key) & 15) == home) keys.push_back(key);
  }
  return keys;
}

TEST_F(StateStoreTest, RemoveFromTheMiddleOfACollidingCluster) {
  // A fresh store's index has 16 slots and holds 12 keys before it grows.
  // Eight keys homed at slot 14 fill 14, 15, 0..5 (wrapping), and three
  // homed at slot 1 land behind them: one cluster of eleven, mixed homes.
  std::vector<std::string> keys = KeysWithHome(14, 8);
  for (const std::string& key : KeysWithHome(1, 3)) keys.push_back(key);
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    SCOPED_TRACE("victim " + keys[victim]);
    const std::string dir = dir_ + std::string("/v") + std::to_string(victim);
    auto store = StateStore::Open(dir, 0).TakeValue();
    for (const std::string& key : keys) store->Put(key, "v" + key);
    ASSERT_TRUE(store->Commit(1).ok());
    // Remove the victim and a second key three places further on.
    const size_t second = (victim + 3) % keys.size();
    store->Remove(keys[victim]);
    store->Remove(keys[second]);
    EXPECT_EQ(store->size(), static_cast<int64_t>(keys.size() - 2));
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k == victim || k == second) {
        EXPECT_FALSE(store->Get(keys[k]).has_value()) << keys[k];
      } else {
        ASSERT_TRUE(store->Get(keys[k]).has_value()) << keys[k];
        EXPECT_EQ(*store->Get(keys[k]), "v" + keys[k]);
      }
    }
    std::map<std::string, int> visits;
    store->ForEach([&](const std::string& k, const std::string&) {
      ++visits[k];
    });
    EXPECT_EQ(visits.size(), keys.size() - 2);
    for (const auto& [k, n] : visits) EXPECT_EQ(n, 1) << k;
    // Reinsert the victim; every key is found again.
    StateRef ref = store->Touch(keys[victim]);
    EXPECT_TRUE(ref.created);
    store->Set(ref, "again");
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k == second) continue;
      EXPECT_EQ(*store->Get(keys[k]),
                k == victim ? "again" : "v" + keys[k]);
    }
    ASSERT_TRUE(store->Commit(2).ok());
    auto reread = StateStore::Open(dir, 2).TakeValue();
    EXPECT_EQ(reread->size(), static_cast<int64_t>(keys.size() - 1));
    EXPECT_EQ(*reread->Get(keys[victim]), "again");
    EXPECT_FALSE(reread->Get(keys[second]).has_value());
  }
}

using Model = std::map<std::string, std::string>;

// Checks a live store against the model: every key and value, the size,
// and that ForEach visits each live key exactly once.
void ExpectMatchesModel(const StateStore& store, const Model& model) {
  ASSERT_EQ(store.size(), static_cast<int64_t>(model.size()));
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(store.Get(k).has_value()) << k;
    ASSERT_EQ(*store.Get(k), v) << k;
  }
  Model visited;
  bool twice = false;
  store.ForEach([&](const std::string& k, const std::string& v) {
    twice |= !visited.emplace(k, v).second;
  });
  EXPECT_FALSE(twice) << "ForEach visited a key twice";
  EXPECT_EQ(visited, model);
}

// Property test: random op sequences over a key space large enough to grow
// the table several times and build long probe clusters, with ~30% removes
// and Put, Append and Touch (read, write back or drop) interleaved. The live
// store matches an in-memory model after every batch of ops, and every
// committed version recovers to the model at that version.
class StateStoreFuzzTest : public StateStoreTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(StateStoreFuzzTest, RandomOpsMatchModel) {
  Random rng(static_cast<uint64_t>(GetParam()));
  StateStore::Options opts;
  opts.snapshot_interval = 1 + static_cast<int>(rng.Uniform(6));
  std::map<int64_t, std::pair<Model, int64_t>> committed;  // model, bytes
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    Model model;
    int64_t version = 0;
    for (int i = 1; i <= 20000; ++i) {
      std::string key = std::string("k") + std::to_string(rng.Uniform(5000));
      std::string value =
          std::string("v") + std::to_string(rng.Next() % 100000);
      const uint64_t op = rng.Uniform(100);
      if (op < 30) {
        store->Remove(key);
        model.erase(key);
      } else if (op < 60) {
        store->Put(key, value);
        model[key] = value;
      } else if (op < 75) {
        store->Append(key, value);
        model[key] += value;
      } else {
        StateRef ref = store->Touch(key);
        ASSERT_EQ(ref.created, model.count(key) == 0) << key;
        std::string& modeled = model[key];  // a created entry is live, ""
        ASSERT_EQ(store->Value(ref), modeled) << key;
        if (op < 90) {
          store->Set(ref, value);
          model[key] = value;
        } else if (ref.created) {
          store->Remove(key);  // drop the entry Touch created
          model.erase(key);
        }
      }
      if (i % 1000 == 0) ExpectMatchesModel(*store, model);
      if (rng.OneIn(1.0 / 400)) {
        version += 1 + static_cast<int64_t>(rng.Uniform(3));
        ASSERT_TRUE(store->Commit(version).ok());
        committed[version] = {model, store->ApproxBytes()};
      }
    }
  }
  ASSERT_GT(committed.size(), 10u);
  for (const auto& [version, expected] : committed) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto store = StateStore::Open(dir_, version, opts).TakeValue();
    ASSERT_EQ(store->loaded_version(), version);
    ExpectMatchesModel(*store, expected.first);
    EXPECT_EQ(store->ApproxBytes(), expected.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateStoreFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sstreaming
