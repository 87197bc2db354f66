// Quickstart: boot a small simulated Cheetah cluster, store a few objects,
// read them back, delete one, and print what happened.
//
//   $ ./build/examples/quickstart
//
// Everything (managers running Raft, meta servers with MetaX, raw-block data
// servers, client proxies) runs inside one deterministic simulator process.
#include <cstdio>

#include "src/core/testbed.h"

using namespace cheetah;

int main() {
  // A small paper-shaped cluster: 3 meta machines, 4 data machines with two
  // disks each, 3-way replication for both metadata and data.
  core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 1;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(256);

  core::Testbed bed(std::move(config));
  Status boot = bed.Boot();
  if (!boot.ok()) {
    std::printf("boot failed: %s\n", boot.ToString().c_str());
    return 1;
  }
  std::printf("cluster up: view=%llu, manager leader=%d\n",
              static_cast<unsigned long long>(bed.proxy(0).view()), bed.LeaderManager());

  // put: the proxy gets an allocation from the PG's primary meta server and
  // streams data to the three data replicas while MetaX persists in parallel.
  Status put = bed.PutObject(0, "hello.txt", "Hello, Cheetah!");
  std::printf("put hello.txt: %s\n", put.ToString().c_str());

  // Objects are immutable: a second put of a live name is rejected.
  Status dup = bed.PutObject(0, "hello.txt", "overwrite?");
  std::printf("put hello.txt again: %s (immutability)\n", dup.ToString().c_str());

  // get: one metadata lookup, then a read from any one data replica.
  auto got = bed.GetObject(0, "hello.txt");
  std::printf("get hello.txt: \"%s\"\n", got.ok() ? got->c_str() : got.status().ToString().c_str());

  // delete: a single metadata round trip — no data-server I/O, and the
  // object's blocks are immediately reusable (no compaction).
  Status del = bed.DeleteObject(0, "hello.txt");
  std::printf("delete hello.txt: %s\n", del.ToString().c_str());
  auto gone = bed.GetObject(0, "hello.txt");
  std::printf("get after delete: %s\n", gone.status().ToString().c_str());

  // ...and the name can be reused (the update idiom, §4.3.1).
  Status re = bed.PutObject(0, "hello.txt", "Hello again!");
  auto again = bed.GetObject(0, "hello.txt");
  std::printf("re-put + get: %s / \"%s\"\n", re.ToString().c_str(),
              again.ok() ? again->c_str() : "?");

  const auto& stats = bed.proxy(0).stats();
  std::printf("\nproxy stats: %llu puts, %llu gets, %llu deletes, %llu retries\n",
              static_cast<unsigned long long>(stats.puts.value()),
              static_cast<unsigned long long>(stats.gets.value()),
              static_cast<unsigned long long>(stats.deletes.value()),
              static_cast<unsigned long long>(stats.retries.value()));
  return 0;
}
