#include "core/config_args.h"

#include <algorithm>
#include <vector>

#include "gf/kernels.h"
#include "obs/json.h"

namespace icollect {

ConfigKeys::ConfigKeys(cli::Flags& flags, p2p::ProtocolConfig& cfg)
    : cfg_{cfg} {
  using p2p::CollectionFidelity;
  using p2p::GossipPolicy;
  using p2p::LifetimeDistribution;
  using p2p::TopologyKind;
  flags.add("peers", "N", "number of peers", cfg.num_peers)
      .add("lambda", "X", "per-peer block injection rate", cfg.lambda)
      .add("s", "N", "blocks per segment", cfg.segment_size)
      .add("mu", "X", "per-peer gossip rate", cfg.mu)
      .add("gamma", "X", "per-block TTL expiry rate", cfg.gamma)
      .add("buffer", "N", "peer buffer capacity B", cfg.buffer_cap)
      .add("servers", "N", "number of servers", cfg.num_servers)
      .add("c", "X", "normalized server capacity (sets server_rate)",
           capacity_)
      .add("server_rate", "X", "pulls per unit time per server",
           cfg.server_rate)
      .add("payload", "N", "payload bytes per block (0 = coefficients only)",
           cfg.payload_bytes)
      .add("seed", "N", "root seed", cfg.seed)
      .add("degree", "N", "mean degree of a non-complete topology",
           cfg.mean_degree)
      .add("churn", "E[L]", "mean peer lifetime (0 = no churn)", churn_)
      .choice("lifetimes", "peer lifetime distribution",
              cfg.churn.distribution,
              {{"exponential", LifetimeDistribution::kExponential},
               {"pareto", LifetimeDistribution::kPareto}})
      .add("pareto_shape", "A", "Pareto lifetime shape (> 1)",
           cfg.churn.pareto_shape)
      .choice("topology", "overlay topology", cfg.topology,
              {{"complete", TopologyKind::kComplete},
               {"erdos-renyi", TopologyKind::kErdosRenyi},
               {"random-regular", TopologyKind::kRandomRegular}})
      .choice("fidelity", "server collection model", cfg.fidelity,
              {{"real-coding", CollectionFidelity::kRealCoding},
               {"state-counter", CollectionFidelity::kStateCounter}})
      .parsed("pull", "non-empty|all|rarest|deficit",
              "server pull scheduling (uniform = non-empty; rarest and\n"
              "deficit accept the -first/-weighted long forms too)",
              cfg.pull_policy, proto::parse_pull_policy_kind)
      .choice("gossip", "gossip segment selection", cfg.gossip_policy,
              {{"uniform", GossipPolicy::kUniformSegment},
               {"newest", GossipPolicy::kNewestFirst},
               {"rarest", GossipPolicy::kRarestFirst}})
      .add("loss", "P", "gossip transit drop probability", cfg.gossip_loss);
}

void ConfigKeys::finish() {
  if (churn_) {
    cfg_.churn.enabled = *churn_ > 0.0;
    cfg_.churn.mean_lifetime = *churn_;
  }
  if (capacity_) cfg_.set_normalized_capacity(*capacity_);
  cfg_.validate();
}

void apply_config_args(p2p::ProtocolConfig& cfg,
                       std::span<const std::string_view> args) {
  cli::Flags flags;
  ConfigKeys keys{flags, cfg};
  flags.parse(args);
  keys.finish();
}

p2p::ProtocolConfig parse_config_args(int argc, const char* const* argv) {
  p2p::ProtocolConfig cfg;
  const std::vector<std::string_view> args(argv + std::min(argc, 1),
                                           argv + argc);
  apply_config_args(cfg, args);
  return cfg;
}

std::string describe(const p2p::ProtocolConfig& cfg) {
  std::string out;
  out += "N=" + std::to_string(cfg.num_peers);
  out += " lambda=" + std::to_string(cfg.lambda);
  out += " s=" + std::to_string(cfg.segment_size);
  out += " mu=" + std::to_string(cfg.mu);
  out += " gamma=" + std::to_string(cfg.gamma);
  out += " B=" + std::to_string(cfg.buffer_cap);
  out += " c=" + std::to_string(cfg.normalized_capacity());
  out += " servers=" + std::to_string(cfg.num_servers);
  out += " topology=";
  out += to_string(cfg.topology);
  out += " fidelity=";
  out += to_string(cfg.fidelity);
  if (cfg.churn.enabled) {
    out += " churn(E[L]=" + std::to_string(cfg.churn.mean_lifetime) + "," +
           to_string(cfg.churn.distribution) + ")";
  }
  if (cfg.pull_policy != proto::PullPolicyKind::kUniform) {
    out += " pull=";
    out += to_string(cfg.pull_policy);
  }
  if (cfg.gossip_policy != p2p::GossipPolicy::kUniformSegment) {
    out += " gossip=";
    out += to_string(cfg.gossip_policy);
  }
  out += " seed=" + std::to_string(cfg.seed);
  return out;
}

std::string config_json(const p2p::ProtocolConfig& cfg) {
  obs::JsonObject churn;
  churn.field("enabled", cfg.churn.enabled)
      .field("mean_lifetime", cfg.churn.mean_lifetime)
      .field_str("lifetimes", to_string(cfg.churn.distribution))
      .field("pareto_shape", cfg.churn.pareto_shape);
  obs::JsonObject o;
  o.field("peers", cfg.num_peers)
      .field("lambda", cfg.lambda)
      .field("s", cfg.segment_size)
      .field("mu", cfg.mu)
      .field("gamma", cfg.gamma)
      .field("buffer", cfg.buffer_cap)
      .field("servers", cfg.num_servers)
      .field("server_rate", cfg.server_rate)
      .field("c", cfg.normalized_capacity())
      .field("payload", cfg.payload_bytes)
      .field("seed", cfg.seed)
      .field_str("topology", to_string(cfg.topology))
      .field("degree", cfg.mean_degree)
      .field_str("fidelity", to_string(cfg.fidelity))
      .field_str("pull", to_string(cfg.pull_policy))
      .field_str("gossip", to_string(cfg.gossip_policy))
      .field("loss", cfg.gossip_loss)
      .field_str("gf_kernel", gf::Kernels::active().name)
      .field_raw("churn", churn.str());
  return o.str();
}

const char* config_args_help() noexcept {
  static const std::string text = [] {
    cli::Flags flags;
    p2p::ProtocolConfig cfg;
    const ConfigKeys keys{flags, cfg};
    return flags.table();
  }();
  return text.c_str();
}

}  // namespace icollect
