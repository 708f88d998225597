#pragma once

/// \file bench_table.h
/// The document both bench-table generators (icollect_pulls,
/// icollect_scenarios) write: a header naming the schema, replica count
/// and root seed, then one section per table,
/// `"<name>": {"config": {...}, "points": [{...}, ...]}`, with one point
/// object per line so a diff of a re-capture reads point by point.

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

  /// Write the document to `out_path`, or to stdout when it is empty.
  /// Returns the process exit status (2 when the file cannot be written).
  [[nodiscard]] int write(const std::string& out_path,
                          const char* program) const {
    const std::string doc = str();
    if (out_path.empty()) {
      std::fputs(doc.c_str(), stdout);
      return 0;
    }
    std::ofstream f{out_path, std::ios::binary};
    if (!(f << doc)) {
      std::fprintf(stderr, "%s: cannot write %s\n", program,
                   out_path.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), doc.size());
    return 0;
  }

 private:
  std::string head_;
  std::vector<std::string> tables_;
};

}  // namespace icollect::tools
