#include "src/sim/sync.h"

namespace cheetah::sim {

Task<> WhenAllVoid(std::vector<Task<>> tasks) {
  Actor* actor = co_await CurrentActor{};
  auto latch = std::make_shared<Latch>(static_cast<int>(tasks.size()));
  for (auto& t : tasks) {
    actor->Spawn([](std::shared_ptr<Latch> l, Task<> task) -> Task<> {
      co_await std::move(task);
      l->CountDown();
    }(latch, std::move(t)));
  }
  co_await latch->Wait();
}

Task<Status> WhenAllOk(std::vector<Task<Status>> tasks) {
  for (Status& s : co_await WhenAll(std::move(tasks))) {
    if (!s.ok()) {
      co_return std::move(s);
    }
  }
  co_return Status::Ok();
}

}  // namespace cheetah::sim
