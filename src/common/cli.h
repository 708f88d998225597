#pragma once

/// \file cli.h
/// One strict command-line parser for every tool.
///
/// A tool declares each flag once, as a row of a Flags table: name,
/// metavar, help line and a typed target. The same table parses the
/// arguments and prints --help, so the two cannot drift apart.
///
/// Spellings:
///  - `--flag value` and `--flag=value`;
///  - a switch (bool target) takes no value: `--flag`, or `--flag=0|1`;
///  - an optional-value flag (optional_value()) takes its value in the
///    `=` form only: a bare `--flag` stores a default-constructed value;
///  - a row named without the leading dashes is a bare `key=value`
///    token;
///  - a std::vector target makes the flag repeatable, and a
///    std::optional target records whether the flag was given.
///
/// Numbers go through std::from_chars over the whole token and must fit
/// the target type, so "8x", "-1" into an unsigned target and
/// 5000000000 into a uint32_t are all rejected. Every failure throws
/// UsageError. parse_or_exit() turns it into a diagnostic plus the usage
/// text on stderr and exit status 2 — the usage-error contract every
/// tool shares: 0 ok, 1 a run that started and failed, 2 a usage error.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace icollect::cli {

/// A malformed command line: unknown flag or key, missing or bad value.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parse all of `text` as a T; nullopt on garbage, sign or range errors.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// A `HOST:PORT` endpoint. Port 0 never parses, so it marks "unset".
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Split `HOST:PORT` at the last colon. The port must be all digits in
/// [1, 65535]; the host may be empty (any address).
[[nodiscard]] inline std::optional<HostPort> split_host_port(
    std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto port = parse_number<std::uint16_t>(text.substr(colon + 1));
  if (!port || *port == 0) return std::nullopt;
  return HostPort{std::string{text.substr(0, colon)}, *port};
}

namespace detail {

// A plain target takes one value, a vector collects repeated flags and
// an optional records presence; Element is what one value parses to.
template <class T>
struct Slot { using Element = T; };
template <class E>
struct Slot<std::vector<E>> { using Element = E; };
template <class E>
struct Slot<std::optional<E>> { using Element = E; };

/// The built-in value parser for a target element type.
template <class E>
[[nodiscard]] std::optional<E> parse_as(std::string_view text) {
  if constexpr (std::is_same_v<E, bool>) {
    if (text == "1") return true;
    if (text == "0") return false;
    return std::nullopt;
  } else if constexpr (std::is_arithmetic_v<E>) {
    return parse_number<E>(text);
  } else if constexpr (std::is_same_v<E, std::string>) {
    return std::string{text};
  } else {
    static_assert(std::is_same_v<E, HostPort>, "no built-in parser");
    return split_host_port(text);
  }
}

/// What a valid value of E looks like, for diagnostics.
template <class E>
[[nodiscard]] std::string describe() {
  if constexpr (std::is_same_v<E, bool>) {
    return "0 or 1";
  } else if constexpr (std::is_integral_v<E>) {
    return "an integer in [" + std::to_string(std::numeric_limits<E>::min()) +
           ", " + std::to_string(std::numeric_limits<E>::max()) + "]";
  } else if constexpr (std::is_arithmetic_v<E>) {
    return "a number";
  } else if constexpr (std::is_same_v<E, std::string>) {
    return "text";
  } else {
    return "HOST:PORT with a port in [1, 65535]";
  }
}

}  // namespace detail

class Flags {
 public:
  /// `synopsis` follows the program name on the usage line.
  explicit Flags(std::string synopsis = "[options]")
      : synopsis_{std::move(synopsis)} {}

  /// A row parsed by the built-in parser of the target's element type
  /// (integer, double, string, HostPort or bool).
  template <class T>
  Flags& add(std::string name, std::string metavar, std::string help,
             T& target) {
    using E = typename detail::Slot<T>::Element;
    return parsed(std::move(name), std::move(metavar), std::move(help),
                  target, detail::parse_as<E>, detail::describe<E>());
  }

  /// Like add(), but the value may be omitted; it is then taken in the
  /// `=` form only, so `--flag` never swallows the next token.
  template <class E>
  Flags& optional_value(std::string name, std::string metavar,
                        std::string help, std::optional<E>& target) {
    add(std::move(name), std::move(metavar), std::move(help), target);
    rows_.back().arity = Arity::kOptional;
    return *this;
  }

  /// A name -> value choice list; the metavar lists the names, which
  /// must outlive the table (string literals do).
  template <class T>
  Flags& choice(
      std::string name, std::string help, T& target,
      std::initializer_list<
          std::pair<std::string_view, typename detail::Slot<T>::Element>>
          choices) {
    using E = typename detail::Slot<T>::Element;
    std::string names;
    for (const auto& c : choices) {
      if (!names.empty()) names += '|';
      names += c.first;
    }
    std::vector<std::pair<std::string_view, E>> table{choices};
    return parsed(
        std::move(name), names, std::move(help), target,
        [table = std::move(table)](std::string_view text) -> std::optional<E> {
          for (const auto& [n, v] : table) {
            if (n == text) return v;
          }
          return std::nullopt;
        },
        "one of " + names);
  }

  /// A row with its own parser: `parser` maps the value text to an
  /// optional element (nullopt rejects it). A diagnostic shows `want`,
  /// or the metavar when `want` is empty.
  template <class T, class Parse>
  Flags& parsed(std::string name, std::string metavar, std::string help,
                T& target, Parse parser, std::string want = {}) {
    if (want.empty()) want = metavar;
    const Arity arity =
        std::is_same_v<T, bool> ? Arity::kNone : Arity::kRequired;
    auto set = [&target, parser = std::move(parser)](
                   std::optional<std::string_view> text) {
      if (!text) {  // a bare switch or optional-value flag
        if constexpr (std::is_same_v<T, bool>) {
          target = true;
        } else if constexpr (requires { target.emplace(); }) {
          target.emplace();  // a std::optional target
        }
        return true;
      }
      auto value = parser(*text);
      if (!value) return false;
      if constexpr (requires { target.push_back(std::move(*value)); }) {
        target.push_back(std::move(*value));  // a std::vector target
      } else {
        target = std::move(*value);
      }
      return true;
    };
    rows_.push_back(Row{std::move(name), std::move(metavar), std::move(help),
                        std::move(want), arity, std::move(set)});
    return *this;
  }

  /// A heading line in the help text.
  Flags& section(std::string title) {
    rows_.push_back(Row{{}, {}, std::move(title), {}, Arity::kNone, {}});
    return *this;
  }

  /// Free text printed after the table.
  Flags& note(std::string text) {
    note_ += std::move(text);
    return *this;
  }

  /// Apply every token to its row; later tokens win. Throws UsageError.
  void parse(std::span<const std::string_view> args) const {
    parse_tokens(args, false);
  }

  /// Parse argv[1..argc). `-h`/`--help` prints the help on stdout and
  /// exits 0; a UsageError exits 2 through usage_error().
  void parse_or_exit(int argc, const char* const* argv) {
    program_ = argc > 0 ? argv[0] : "?";
    const std::vector<std::string_view> args(argv + (argc > 0 ? 1 : 0),
                                             argv + argc);
    try {
      if (parse_tokens(args, true)) {
        std::fputs(help().c_str(), stdout);
        std::exit(0);
      }
    } catch (const UsageError& e) {
      usage_error(e.what());
    }
  }

  /// Print `program: message` and the usage text on stderr; exit 2.
  [[noreturn]] void usage_error(std::string_view message) const {
    std::fprintf(stderr, "%s: %.*s\n%s", program_.c_str(),
                 static_cast<int>(message.size()), message.data(),
                 help().c_str());
    std::exit(2);
  }

  /// Usage line, the row table, then the note.
  [[nodiscard]] std::string help() const {
    return "usage: " + program_ + " " + synopsis_ + "\n" + table() + note_;
  }

  /// One line per row (help continuation lines indented to match).
  [[nodiscard]] std::string table() const {
    constexpr std::size_t kColumn = 26;
    std::string out;
    for (const Row& row : rows_) {
      if (row.name.empty()) {
        out += row.help + "\n";
        continue;
      }
      std::string line = "  " + spelling(row);
      line += line.size() < kColumn ? std::string(kColumn - line.size(), ' ')
                                    : "\n" + std::string(kColumn, ' ');
      for (const char ch : row.help) {
        line += ch;
        if (ch == '\n') line += std::string(kColumn, ' ');
      }
      out += line + "\n";
    }
    return out;
  }

 private:
  enum class Arity { kNone, kOptional, kRequired };

  struct Row {
    std::string name;  // "--flag", "key", or empty for a section heading
    std::string metavar;
    std::string help;
    std::string want;  // a valid value, for diagnostics
    Arity arity = Arity::kRequired;
    std::function<bool(std::optional<std::string_view>)> set;
  };

  [[nodiscard]] static bool is_flag(std::string_view name) noexcept {
    return name.starts_with("--");
  }

  [[nodiscard]] static std::string spelling(const Row& row) {
    if (!is_flag(row.name)) return row.name + "=" + row.metavar;
    if (row.metavar.empty()) return row.name;
    if (row.arity == Arity::kRequired) return row.name + " " + row.metavar;
    return row.name + "[=" + row.metavar + "]";
  }

  [[nodiscard]] const Row* find(std::string_view name) const noexcept {
    for (const Row& row : rows_) {
      if (!row.name.empty() && row.name == name) return &row;
    }
    return nullptr;
  }

  /// Returns true when help was requested (only if `allow_help`).
  bool parse_tokens(std::span<const std::string_view> args,
                    bool allow_help) const {
    const auto quoted = [](std::string_view s) {
      return "'" + std::string{s} + "'";
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string_view arg = args[i];
      if (allow_help && (arg == "-h" || arg == "--help")) return true;
      const bool flag = is_flag(arg);
      const auto eq = arg.find('=');
      if (!flag && (eq == std::string_view::npos || eq == 0)) {
        throw UsageError("expected --flag or key=value, got " +
                         quoted(arg));
      }
      const std::string_view name = arg.substr(0, eq);
      const Row* row = find(name);
      if (row == nullptr) {
        throw UsageError((flag ? "unknown flag " : "unknown key ") +
                         quoted(name));
      }
      std::optional<std::string_view> value;
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (row->arity == Arity::kRequired) {
        if (i + 1 == args.size()) {
          throw UsageError("missing value for " + std::string{name});
        }
        value = args[++i];
      }
      if (!row->set(value)) {
        throw UsageError("bad value " + quoted(value.value_or("")) +
                         " for " + std::string{name} + " (want " +
                         row->want + ")");
      }
    }
    return false;
  }

  std::string synopsis_;
  std::string program_ = "?";
  std::vector<Row> rows_;
  std::string note_;
};

}  // namespace icollect::cli
