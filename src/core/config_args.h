#pragma once

/// \file config_args.h
/// The protocol's key=value vocabulary: one cli::Flags row per
/// ProtocolConfig key, shared by the CLI drivers (tools/icollect_sim,
/// tools/icollect_sweep) and any downstream embedding that wants
/// string-driven configuration. The keys and their values are listed by
/// config_args_help(), which renders the same rows.
///
/// Values are validated by ProtocolConfig::validate() after parsing.

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/cli.h"
#include "p2p/config.h"

namespace icollect {

/// Declares the protocol keys as rows of a cli::Flags table bound to
/// `cfg`. The table must not outlive this object. After parsing, call
/// finish(): it applies c= (which depends on the final peers= and
/// servers=, whatever the key order) and churn=, then validates.
class ConfigKeys {
 public:
  ConfigKeys(cli::Flags& flags, p2p::ProtocolConfig& cfg);

  /// Throws std::invalid_argument on an inconsistent configuration.
  void finish();

 private:
  p2p::ProtocolConfig& cfg_;
  std::optional<double> capacity_;
  std::optional<double> churn_;
};

/// Parse `key=value` tokens into `cfg` (later tokens win). Throws
/// std::invalid_argument on malformed tokens, unknown keys, bad values,
/// or an inconsistent final configuration.
void apply_config_args(p2p::ProtocolConfig& cfg,
                       std::span<const std::string_view> args);

/// Convenience: parse argv[1..argc) over a default-constructed config.
[[nodiscard]] p2p::ProtocolConfig parse_config_args(int argc,
                                                    const char* const* argv);

/// One-line human-readable rendering of a configuration.
[[nodiscard]] std::string describe(const p2p::ProtocolConfig& cfg);

/// Complete JSON echo of a configuration (flat object, seed included) —
/// the config.json of a telemetry bundle, so every run is reproducible
/// from its artifacts alone.
[[nodiscard]] std::string config_json(const p2p::ProtocolConfig& cfg);

/// The help text for the recognized keys.
[[nodiscard]] const char* config_args_help() noexcept;

}  // namespace icollect
