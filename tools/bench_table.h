#pragma once

/// \file bench_table.h
/// The document both bench-table generators (icollect_pulls,
/// icollect_scenarios) write: a header naming the schema, replica count
/// and root seed, then one section per table,
/// `"<name>": {"config": {...}, "points": [{...}, ...]}`, with one point
/// object per line so a diff of a re-capture reads point by point.
///
/// The tool opens its destination (open()) before any replica runs, so
/// an unwritable --out path fails at once, not after the whole bench.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace icollect::tools {

class BenchDocument {
 public:
  BenchDocument(std::string_view schema, std::uint64_t replicas,
                std::uint64_t seed) {
    head_ += "{\n  \"schema\": \"";
    head_ += schema;
    head_ += "\",\n  \"replicas\": ";
    head_ += std::to_string(replicas);
    head_ += ",\n  \"base_seed\": ";
    head_ += std::to_string(seed);
    head_ += ",\n";
  }

  /// Append one table; `config` and each point are JSON objects.
  void add_table(std::string_view name, std::string_view config,
                 const std::vector<std::string>& points) {
    std::string t{"  \""};
    t += name;
    t += "\": {\n    \"config\": ";
    t += config;
    t += ",\n    \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      t += "      ";
      t += points[i];
      t += i + 1 < points.size() ? ",\n" : "\n";
    }
    t += "    ]\n  }";
    tables_.push_back(std::move(t));
  }

  [[nodiscard]] std::string str() const {
    std::string doc = head_;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      doc += tables_[i];
      doc += i + 1 < tables_.size() ? ",\n" : "\n";
    }
    doc += "}\n";
    return doc;
  }

  /// Open the destination: `out_path`, or stdout when it is empty.
  /// False, with a diagnostic on stderr, when the file cannot be opened.
  [[nodiscard]] bool open(std::string out_path, const char* program) {
    out_path_ = std::move(out_path);
    program_ = program;
    if (out_path_.empty()) return true;
    out_.open(out_path_, std::ios::binary);
    if (out_) return true;
    std::fprintf(stderr, "%s: cannot write %s\n", program_,
                 out_path_.c_str());
    return false;
  }

  /// Write the document to the destination open() chose. Returns the
  /// process exit status (2 when the file cannot be written).
  [[nodiscard]] int write() {
    const std::string doc = str();
    if (out_path_.empty()) {
      std::fputs(doc.c_str(), stdout);
      return 0;
    }
    if (!(out_ << doc << std::flush)) {
      std::fprintf(stderr, "%s: cannot write %s\n", program_,
                   out_path_.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu bytes)\n", out_path_.c_str(), doc.size());
    return 0;
  }

 private:
  std::string head_;
  std::vector<std::string> tables_;
  std::string out_path_;
  const char* program_ = "";
  std::ofstream out_;
};

}  // namespace icollect::tools
