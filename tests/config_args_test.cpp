/// Tests for the key=value configuration parser behind tools/icollect_sim.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "core/config_args.h"

namespace icollect {
namespace {

std::vector<std::string_view> args(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

TEST(ConfigArgs, DefaultsSurviveEmptyArgs) {
  p2p::ProtocolConfig cfg;
  const auto before = cfg;
  const auto a = args({});
  apply_config_args(cfg, a);
  EXPECT_EQ(cfg.num_peers, before.num_peers);
  EXPECT_EQ(cfg.segment_size, before.segment_size);
}

TEST(ConfigArgs, ParsesEveryKey) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"peers=300", "lambda=12.5", "s=15", "mu=7.5",
                       "gamma=0.5", "buffer=200", "servers=8", "c=3.5",
                       "payload=64", "seed=77", "degree=16",
                       "topology=erdos-renyi", "churn=2.5",
                       "fidelity=real-coding"});
  apply_config_args(cfg, a);
  EXPECT_EQ(cfg.num_peers, 300u);
  EXPECT_DOUBLE_EQ(cfg.lambda, 12.5);
  EXPECT_EQ(cfg.segment_size, 15u);
  EXPECT_DOUBLE_EQ(cfg.mu, 7.5);
  EXPECT_DOUBLE_EQ(cfg.gamma, 0.5);
  EXPECT_EQ(cfg.buffer_cap, 200u);
  EXPECT_EQ(cfg.num_servers, 8u);
  EXPECT_NEAR(cfg.normalized_capacity(), 3.5, 1e-12);
  EXPECT_EQ(cfg.payload_bytes, 64u);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.mean_degree, 16u);
  EXPECT_EQ(cfg.topology, p2p::TopologyKind::kErdosRenyi);
  EXPECT_TRUE(cfg.churn.enabled);
  EXPECT_DOUBLE_EQ(cfg.churn.mean_lifetime, 2.5);
  EXPECT_EQ(cfg.fidelity, p2p::CollectionFidelity::kRealCoding);
}

TEST(ConfigArgs, LaterTokensWin) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"peers=100", "peers=250"});
  apply_config_args(cfg, a);
  EXPECT_EQ(cfg.num_peers, 250u);
}

TEST(ConfigArgs, ChurnZeroDisables) {
  p2p::ProtocolConfig cfg;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 3.0;
  const auto a = args({"churn=0"});
  apply_config_args(cfg, a);
  EXPECT_FALSE(cfg.churn.enabled);
}

TEST(ConfigArgs, CapacityAfterPeersOrderMatters) {
  p2p::ProtocolConfig cfg;
  auto a = args({"peers=400", "c=5"});
  apply_config_args(cfg, a);
  EXPECT_NEAR(cfg.normalized_capacity(), 5.0, 1e-12);
}

// c= sets server_rate from the final peers= and servers=, so the key
// order cannot change the configuration.
TEST(ConfigArgs, CapacityIsIndependentOfKeyOrder) {
  p2p::ProtocolConfig before;
  p2p::ProtocolConfig after;
  const auto c_first = args({"c=3", "peers=1000", "servers=5"});
  const auto c_last = args({"peers=1000", "servers=5", "c=3"});
  apply_config_args(before, c_first);
  apply_config_args(after, c_last);
  EXPECT_NEAR(before.normalized_capacity(), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(before.server_rate, after.server_rate);
  EXPECT_EQ(config_json(before), config_json(after));
}

TEST(ConfigArgs, MalformedTokensRejected) {
  p2p::ProtocolConfig cfg;
  for (const char* bad :
       {"peers", "=5", "peers=abc", "lambda=1x", "nope=3",
        "topology=ring", "fidelity=magic"}) {
    p2p::ProtocolConfig fresh;
    const auto a = args({bad});
    EXPECT_THROW(apply_config_args(fresh, a), std::invalid_argument)
        << bad;
  }
  (void)cfg;
}

// A rejected invocation must tell the operator *what* was wrong, not
// just that something was: the exception text has to name the offending
// key and value so a typo in a 12-token sweep command is findable.
TEST(ConfigArgs, UnknownKeyErrorNamesTheKey) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"peesr=300"});
  try {
    apply_config_args(cfg, a);
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("peesr"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigArgs, MalformedNumericErrorNamesKeyAndValue) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"lambda=fast"});
  try {
    apply_config_args(cfg, a);
    FAIL() << "malformed numeric accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("lambda"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
  }
}

TEST(ConfigArgs, MissingValueErrorShowsTheToken) {
  p2p::ProtocolConfig cfg;
  for (const char* bad : {"peers", "=5"}) {
    p2p::ProtocolConfig fresh;
    const auto a = args({bad});
    try {
      apply_config_args(fresh, a);
      FAIL() << "token without key=value shape accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("key=value"), std::string::npos)
          << e.what();
    }
  }
  (void)cfg;
}

TEST(ConfigArgs, EmptyValueRejected) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"peers="});
  EXPECT_THROW(apply_config_args(cfg, a), std::invalid_argument);
}

TEST(ConfigArgs, NegativeRateRejectedByValidation) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"lambda=-3"});
  EXPECT_THROW(apply_config_args(cfg, a), std::invalid_argument);
}

TEST(ConfigArgs, FinalValidationRuns) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"buffer=2", "s=10"});  // B < s
  EXPECT_THROW(apply_config_args(cfg, a), std::invalid_argument);
}

TEST(ConfigArgs, StateCounterPayloadConflictCaught) {
  p2p::ProtocolConfig cfg;
  const auto a = args({"fidelity=state-counter", "payload=64"});
  EXPECT_THROW(apply_config_args(cfg, a), std::invalid_argument);
}

TEST(ConfigArgs, ParseArgvHelper) {
  const char* argv[] = {"prog", "peers=123", "s=4"};
  const auto cfg = parse_config_args(3, argv);
  EXPECT_EQ(cfg.num_peers, 123u);
  EXPECT_EQ(cfg.segment_size, 4u);
}

TEST(ConfigArgs, DescribeMentionsKeyFields) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = 42;
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 1.5;
  const std::string text = describe(cfg);
  EXPECT_NE(text.find("N=42"), std::string::npos);
  EXPECT_NE(text.find("churn"), std::string::npos);
  EXPECT_NE(text.find("fidelity"), std::string::npos);
}

TEST(ConfigArgs, HelpTextIsNonEmpty) {
  EXPECT_NE(config_args_help(), nullptr);
  EXPECT_GT(std::string_view{config_args_help()}.size(), 50u);
}

TEST(ConfigArgs, HelpNamesEveryKey) {
  const std::string_view help{config_args_help()};
  for (const char* key :
       {"peers=", "lambda=", "s=", "mu=", "gamma=", "buffer=", "servers=",
        "c=", "server_rate=", "payload=", "seed=", "degree=", "churn=",
        "lifetimes=", "pareto_shape=", "topology=", "fidelity=", "pull=",
        "gossip=", "loss="}) {
    EXPECT_NE(help.find(std::string{"  "} + key), std::string_view::npos)
        << key;
  }
}

TEST(ConfigArgs, PullKeyAcceptsEveryPolicyName) {
  using proto::PullPolicyKind;
  const std::pair<const char*, PullPolicyKind> cases[] = {
      {"pull=non-empty", PullPolicyKind::kUniform},
      {"pull=uniform", PullPolicyKind::kUniform},
      {"pull=all", PullPolicyKind::kUniformAll},
      {"pull=uniform-all", PullPolicyKind::kUniformAll},
      {"pull=rarest", PullPolicyKind::kRarestFirst},
      {"pull=rarest-first", PullPolicyKind::kRarestFirst},
      {"pull=deficit", PullPolicyKind::kDeficitWeighted},
      {"pull=deficit-weighted", PullPolicyKind::kDeficitWeighted}};
  for (const auto& [token, policy] : cases) {
    p2p::ProtocolConfig cfg;
    const auto a = args({token});
    apply_config_args(cfg, a);
    EXPECT_EQ(cfg.pull_policy, policy) << token;
  }
  p2p::ProtocolConfig cfg;
  const auto bad = args({"pull=round-robin"});
  EXPECT_THROW(apply_config_args(cfg, bad), std::invalid_argument);
}

}  // namespace
}  // namespace icollect
