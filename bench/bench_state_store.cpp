// Ablation for §6.1's state checkpointing design: incremental delta
// checkpoints vs. full snapshots every epoch, as state size grows.
// The design claim: commit cost should be proportional to the *changes*
// in an epoch, not to total state size.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "state/state_store.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

// Commits `epochs` epochs of `changes_per_epoch` changes over a store
// preloaded with `initial_keys` entries.
void RunCommits(benchmark::State& state, int snapshot_interval) {
  const int64_t initial_keys = state.range(0);
  const int64_t changes_per_epoch = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    auto dir = MakeTempDir("bench_state_store").TakeValue();
    StateStore::Options opts;
    opts.snapshot_interval = snapshot_interval;
    auto store = StateStore::Open(dir, 0, opts).TakeValue();
    Random rng(7);
    for (int64_t i = 0; i < initial_keys; ++i) {
      store->Put("key" + std::to_string(i), std::string(64, 'x'));
    }
    SS_CHECK_OK(store->Commit(1));
    state.ResumeTiming();

    for (int64_t epoch = 2; epoch <= 11; ++epoch) {
      for (int64_t c = 0; c < changes_per_epoch; ++c) {
        store->Put("key" + std::to_string(rng.Uniform(
                       static_cast<uint64_t>(initial_keys))),
                   std::string(64, 'y'));
      }
      SS_CHECK_OK(store->Commit(epoch));
    }
    state.PauseTiming();
    int64_t bytes = store->bytes_written();
    store.reset();
    RemoveDirRecursive(dir).ok();
    state.ResumeTiming();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel("state_keys=" + std::to_string(initial_keys));
}

void BM_IncrementalCheckpoints(benchmark::State& state) {
  RunCommits(state, /*snapshot_interval=*/1000);  // deltas only
}
BENCHMARK(BM_IncrementalCheckpoints)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_FullSnapshotEveryEpoch(benchmark::State& state) {
  RunCommits(state, /*snapshot_interval=*/1);  // paper's non-incremental foil
}
BENCHMARK(BM_FullSnapshotEveryEpoch)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Recovery(benchmark::State& state) {
  // Restore time vs. number of delta files to replay.
  const int snapshot_interval = static_cast<int>(state.range(0));
  auto dir = MakeTempDir("bench_state_recovery").TakeValue();
  {
    StateStore::Options opts;
    opts.snapshot_interval = snapshot_interval;
    auto store = StateStore::Open(dir, 0, opts).TakeValue();
    Random rng(7);
    for (int64_t epoch = 1; epoch <= 50; ++epoch) {
      for (int64_t c = 0; c < 2000; ++c) {
        store->Put("key" + std::to_string(rng.Uniform(20000)),
                   std::string(64, 'z'));
      }
      SS_CHECK_OK(store->Commit(epoch));
    }
  }
  for (auto _ : state) {
    auto store = StateStore::Open(dir, 50).TakeValue();
    benchmark::DoNotOptimize(store->size());
  }
  RemoveDirRecursive(dir).ok();
  state.SetLabel("snapshot_interval=" + std::to_string(snapshot_interval));
}
BENCHMARK(BM_Recovery)->Arg(5)->Arg(25)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// The stateful fold's per-epoch state traffic, layer by layer: touch 10k
// random keys of a store holding `range(0)` keys through Touch (one probe
// each: read the value, write the update back through the handle), then
// commit the epoch's delta. Next to the commit ablation above, this puts a
// number on the probe cost of a state larger than the caches.
void BM_FoldTouch(benchmark::State& state) {
  const int64_t keys = state.range(0);
  const int64_t touches_per_epoch = 10000;
  auto dir = MakeTempDir("bench_state_fold").TakeValue();
  StateStore::Options opts;
  opts.snapshot_interval = 1 << 30;  // deltas only after the first commit
  auto store = StateStore::Open(dir, 0, opts).TakeValue();
  for (int64_t i = 0; i < keys; ++i) {
    store->Put("key" + std::to_string(i), std::string(8, '\0'));
  }
  SS_CHECK_OK(store->Commit(1));
  Random rng(11);
  int64_t version = 1;
  std::string value;
  for (auto _ : state) {
    for (int64_t t = 0; t < touches_per_epoch; ++t) {
      const StateRef ref = store->Touch(
          "key" + std::to_string(rng.Uniform(static_cast<uint64_t>(keys))));
      value = store->Value(ref);
      ++value[0];
      store->Set(ref, value);
    }
    SS_CHECK_OK(store->Commit(++version));
  }
  state.SetItemsProcessed(state.iterations() * touches_per_epoch);
  state.SetLabel("state_keys=" + std::to_string(keys));
  store.reset();
  RemoveDirRecursive(dir).ok();
}
BENCHMARK(BM_FoldTouch)->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sstreaming

BENCHMARK_MAIN();
