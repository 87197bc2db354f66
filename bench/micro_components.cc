// Host-CPU microbenchmarks (google-benchmark) of the hot single-node
// components: CRC-32C, CRUSH selection, the bitmap allocator, MetaX
// encode/decode, and KV write-batch encoding. These measure real wall-clock
// cost on the build machine, unlike the virtual-time cluster benches.
#include <benchmark/benchmark.h>

#include "src/alloc/bitmap_allocator.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/core/metax.h"
#include "src/crush/crush.h"
#include "src/kv/write_batch.h"

namespace cheetah {
namespace {

void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(524288);

void BM_CrushSelect(benchmark::State& state) {
  crush::Map map;
  for (int i = 0; i < state.range(0); ++i) {
    map.AddItem(100 + i);
  }
  uint32_t pg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Select(pg++ % 256, 3));
  }
}
BENCHMARK(BM_CrushSelect)->Arg(3)->Arg(12)->Arg(48);

void BM_BitmapAllocate(benchmark::State& state) {
  alloc::BitmapAllocator allocator(1 << 20, 4096);
  std::vector<std::vector<alloc::Extent>> held;
  for (auto _ : state) {
    auto extents = allocator.Allocate(static_cast<uint64_t>(state.range(0)));
    if (!extents.ok()) {
      for (auto& e : held) {
        allocator.Free(e);
      }
      held.clear();
      continue;
    }
    held.push_back(std::move(*extents));
  }
}
BENCHMARK(BM_BitmapAllocate)->Arg(8192)->Arg(65536)->Arg(524288);

void BM_ObMetaEncodeDecode(benchmark::State& state) {
  core::ObMeta meta;
  meta.lvid = 42;
  meta.extents = {{1000, 16}, {5000, 8}};
  meta.checksum = 0xdeadbeef;
  meta.size = 65536;
  for (auto _ : state) {
    auto decoded = core::ObMeta::Decode(meta.Encode());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ObMetaEncodeDecode);

void BM_WriteBatchEncode(benchmark::State& state) {
  kv::WriteBatch batch;
  batch.Put(core::ObMetaKey(7, "object-123456"), std::string(64, 'v'));
  batch.Put(core::PgLogKey(7, 12345), std::string(48, 'l'));
  batch.Put(core::PxLogKey(3, 999), std::string(48, 'p'));
  for (auto _ : state) {
    auto decoded = kv::WriteBatch::Decode(batch.payload());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WriteBatchEncode);

void BM_NameToPg(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::string> names;
  for (int i = 0; i < 1024; ++i) {
    names.push_back("object-" + std::to_string(rng.Next()));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crush::Map::NameToPg(names[i++ % names.size()], 200));
  }
}
BENCHMARK(BM_NameToPg);

}  // namespace
}  // namespace cheetah

BENCHMARK_MAIN();
