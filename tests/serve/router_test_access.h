// Test-only backdoor into ShardRouter, shared by the router and chaos
// suites (one definition — both TUs link into the same test binary).
//
// shutdown_backend kills one replica's backend while it is still on the
// ring — the window a concurrent shutdown/removal opens in production
// (and the normal state of a crashed remote shard before the health
// monitor drains it). Lets the suites pin the router's partial-failure,
// retry/failover and accounting rules deterministically. add_backend
// puts a test-built ReplicaBackend on the ring, so accounting tests can
// feed a replica chosen values instead of measured ones.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "serve/router.h"

namespace muffin::serve {

struct RouterTestAccess {
  static void shutdown_backend(ShardRouter& router, std::size_t shard) {
    const std::unique_lock<std::shared_mutex> lock(router.mutex_);
    router.replicas_[shard]->backend->shutdown();
  }

  static std::size_t add_backend(ShardRouter& router,
                                 std::shared_ptr<ReplicaBackend> backend) {
    const std::unique_lock<std::shared_mutex> lock(router.mutex_);
    const bool is_remote = backend->remote();
    return router.add_backend_locked(std::move(backend), is_remote);
  }
};

}  // namespace muffin::serve
