#include "unit/sim/server.h"

#include "unit/core/policies/hybrid.h"
#include "unit/core/policies/imu.h"
#include "unit/core/policies/odu.h"

namespace unitdb {

StatusOr<std::unique_ptr<Policy>> MakePolicy(const std::string& name,
                                             const UsmWeights& weights,
                                             const PolicyOptions& options) {
  if (name == "unit") {
    return std::unique_ptr<Policy>(new UnitPolicy(weights, options.unit));
  }
  if (name == "imu") {
    return std::unique_ptr<Policy>(new ImuPolicy());
  }
  if (name == "odu") {
    return std::unique_ptr<Policy>(new OduPolicy());
  }
  if (name == "qmf") {
    return std::unique_ptr<Policy>(new QmfPolicy(options.qmf));
  }
  if (name == "unit-hybrid") {
    return std::unique_ptr<Policy>(new HybridPolicy(weights, options.unit));
  }
  if (name == "unit-noac" || name == "unit-noum" || name == "unit-bare") {
    UnitParams params = options.unit;
    params.enable_admission_control = (name == "unit-noum");
    params.enable_update_modulation = (name == "unit-noac");
    return std::unique_ptr<Policy>(new UnitPolicy(weights, params));
  }
  return Status::NotFound("unknown policy '" + name + "'");
}

std::vector<std::string> KnownPolicies() {
  return {"unit", "imu", "odu", "qmf", "unit-hybrid",
          "unit-noac", "unit-noum", "unit-bare"};
}

StatusOr<std::unique_ptr<Server>> Server::Create(const Workload& workload,
                                                 const Config& config) {
  Status order = CheckArrivalOrder(workload);
  if (!order.ok()) return order;
  auto policy = MakePolicy(config.policy, config.weights, config.options);
  if (!policy.ok()) return policy.status();
  return std::unique_ptr<Server>(
      new Server(workload, config, std::move(*policy)));
}

Server::Server(const Workload& workload, Config config,
               std::unique_ptr<Policy> policy)
    : workload_(workload),
      config_(std::move(config)),
      policy_(std::move(policy)),
      engine_(workload_, policy_.get(), config_.engine) {}

RunMetrics Server::Run() { return engine_.Run(); }

}  // namespace unitdb
